"""Electric and magnetic Hamiltonian terms, dense matrices, and spectra.

The electric energy is a discrete-curl quadratic form: every lattice link
contributes ``(R_p - R_q)^2`` for the two plaquettes sharing it, with the
constrained plaquette's rotor pinned to zero.  The magnetic energy is
either ``B^2/2`` bilinears (non-compact) or ``n_p + 1`` cosines (compact):
one per independent plaquette plus the maximally coupled constraint row.
All additive constants are dropped.

Each term's diagonal is a plain grid tensor (`diagonal_of_term`) of shape
``(N,)*len(support)``, axis i over the grid index of support plaquette i;
only `walsh.fwt` reads its raveled form as dyadic samples.  The Hamiltonian
lives in the magnetic basis, H = F diag(e) F^dagger + diag(b).  The diagonals
``e`` (rotor basis) and ``b`` (field basis) place the term tensors on the
``(N,)*n_p`` register tensor and sum them; ``F[l, m] = w^{lm} / sqrt(N)`` is
the per-plaquette DFT, pairing magnetic grid index ``l`` with rotor grid
index ``m``.  `fourier_conjugate` applies F diag(e) F^dagger to states by
FFTs; `dense_electric` builds it as a multilevel circulant from one inverse
FFT.  Both routes start from `operator_diagonals`, which checks Hermiticity
on that inverse FFT, the circulant's kernel.  `circuits.qft_circuit`
realizes the same F, which is what makes circuit evolution and dense
evolution comparable.

Extreme eigenpairs need no dense matrix: `extreme_eigenpairs` is a Lanczos
iteration on any matrix-free Hermitian product.  It diagonalizes the Lanczos
tridiagonal only every eighth step and where a breakdown, the last step or a
non-finite residual may stop it; a test that fires replays the skipped steps'
tests in order, so it stops where a test at every step would.  `ground_state` (so
`plaquette_expectation`) runs it on H psi = `fourier_conjugate(e, psi) + b psi`
from `operator_diagonals`, and `trotter.error_bound` on i[H_E, H_B].  Dense
matrices remain for full spectra, exact evolution and test oracles.

Memory follows one byte budget, `lattice.MEMORY_BUDGET` (2 GiB): each site that
allocates arrays growing with 2^n or 4^n first reserves its measured peak working
set (`lattice.reserve`), and above the budget raises `ResourceLimitError`.  Term
diagonals fit up to 26 qubits, register diagonals 25, dense matrices 13, and Krylov
bases 64 states at 20 qubits, 128 at 19, 256 at 18, 512 at 17 and 1024 at 16.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .lattice import (
    Digitization,
    LatticeSpec,
    ResourceLimitError,
    WeaveMatrix,
    _is_integer,
    b_grid,
    identity_weave,
    r_grid,
    reserve,
)

LANCZOS_TOL = 1e-13  # Ritz residual bound over the largest Ritz magnitude

_COUPLING_TOL = 1e-12
_TEST_STRIDE = 8  # Lanczos steps of a block between unprompted Ritz tests


@dataclass(frozen=True)
class BilinearTerm:
    """One quadratic summand coeff * O_i O_j with O either R or B.

    The coefficient is a bare quadratic-form weight; the coupling factors
    (g^2/2 for rotors, 1/(2 g^2) for fields) are applied when the diagonal
    is evaluated.
    """

    kind: str  # "RR" | "BB"
    i: int
    j: int
    coefficient: float

    def __post_init__(self):
        if self.kind not in ("RR", "BB"):
            raise ValueError(f"unknown bilinear kind {self.kind!r}")
        if not math.isfinite(self.coefficient):
            raise ValueError("non-finite coefficient")

    @property
    def plaquettes(self) -> tuple[int, ...]:
        return (self.i,) if self.i == self.j else (self.i, self.j)


@dataclass(frozen=True)
class CosineTerm:
    """One magnetic summand prefactor/g^2 * cos(sum_i c_i B_i)."""

    support: tuple[tuple[int, float], ...]
    prefactor: float = -1.0

    def __post_init__(self):
        if not self.support:
            raise ValueError("cosine term needs at least one plaquette")

    @property
    def plaquettes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.support)


@dataclass(frozen=True)
class HamiltonianModel:
    lattice: LatticeSpec
    digitization: Digitization
    electric: tuple[BilinearTerm, ...]
    magnetic: tuple

    @property
    def n_p(self) -> int:
        return self.lattice.n_p

    @property
    def n_qubits(self) -> int:
        return self.n_p * self.digitization.n_q


def electric_quadratic_form(lattice: LatticeSpec, weave: WeaveMatrix | None = None) -> np.ndarray:
    """Link-sum quadratic form over the independent rotors (weave-rotated if given)."""
    n_all = lattice.n_x * lattice.n_y
    q = np.zeros((n_all, n_all))
    for p, r in lattice.links():
        q[p, p] += 1.0
        q[r, r] += 1.0
        q[p, r] -= 1.0
        q[r, p] -= 1.0
    q = q[: lattice.n_p, : lattice.n_p]  # constrained rotor pinned to zero
    if weave is not None:
        if weave.n_p != lattice.n_p:
            raise ValueError(f"weave is {weave.n_p}x{weave.n_p} but lattice has n_p={lattice.n_p}")
        q = weave.w.T @ q @ weave.w
    return q


def magnetic_quadratic_form(n_p: int, weave: WeaveMatrix | None = None) -> np.ndarray:
    """Quadratic form of sum B_p^2 + (sum B_p)^2 after the constraint."""
    q = np.eye(n_p) + np.ones((n_p, n_p))
    if weave is not None:
        q = weave.w.T @ q @ weave.w
    return q


def _bilinears(kind: str, q: np.ndarray) -> list[BilinearTerm]:
    terms = []
    n = q.shape[0]
    for i in range(n):
        if abs(q[i, i]) > _COUPLING_TOL:
            terms.append(BilinearTerm(kind, i, i, float(q[i, i])))
        for j in range(i + 1, n):
            if abs(q[i, j]) > _COUPLING_TOL:
                terms.append(BilinearTerm(kind, i, j, 2.0 * float(q[i, j])))
    return terms


def electric_terms(lattice: LatticeSpec, weave: WeaveMatrix | None = None) -> list[BilinearTerm]:
    """Rotor bilinears of the electric Hamiltonian, O(n_p) without a weave."""
    return _bilinears("RR", electric_quadratic_form(lattice, weave))


def magnetic_terms(d: Digitization, weave: WeaveMatrix | None = None):
    """Magnetic summands: cosine rows (compact) or field bilinears (non-compact)."""
    if d.formulation == "compact":
        rows = (weave if weave is not None else identity_weave(d.n_p)).m
        terms = []
        for row in rows:
            support = tuple(
                (i, float(c)) for i, c in enumerate(row) if abs(c) > _COUPLING_TOL
            )
            terms.append(CosineTerm(support, prefactor=-1.0))
        return terms
    return _bilinears("BB", magnetic_quadratic_form(d.n_p, weave))


def build_model(
    lattice: LatticeSpec,
    d: Digitization,
    weave: WeaveMatrix | None = None,
) -> HamiltonianModel:
    if d.n_p != lattice.n_p:
        raise ValueError(f"digitization has n_p={d.n_p}, lattice has n_p={lattice.n_p}")
    if (d.basis == "weaved") != (weave is not None):
        need = "requires a" if weave is None else "takes no"
        raise ValueError(f"{d.basis} basis {need} weave matrix")
    return HamiltonianModel(
        lattice,
        d,
        tuple(electric_terms(lattice, weave)),
        tuple(magnetic_terms(d, weave)),
    )


def diagonal_of_term(term, d: Digitization) -> np.ndarray:
    """Diagonal of one term as a grid tensor over its support plaquettes.

    The tensor has shape ``(N,)*len(support)``; axis i runs over the grid of
    support plaquette i, as read from the digitization.
    """
    support = term.plaquettes
    width = len(support) * d.n_q  # four tensors: this one and fwt's copy and butterfly halves
    reserve(f"{width}-qubit term diagonal", 32 << width)
    if isinstance(term, CosineTerm):
        arg = 0.0
        for p, c in term.support:
            arg = np.add.outer(arg, c * b_grid(d, p))
        return (term.prefactor / d.g**2) * np.cos(arg)

    rotor = term.kind == "RR"
    grids = [(r_grid if rotor else b_grid)(d, p) for p in support]
    scale = (0.5 * d.g**2 if rotor else 0.5 / d.g**2) * term.coefficient
    return scale * (grids[0] ** 2 if len(support) == 1 else np.multiply.outer(grids[0], grids[1]))


def local_form(term, d: Digitization) -> tuple:
    """All a term's diagonal reads besides ``d.g`` and ``d.n_q``: equal forms, equal diagonals."""
    grids = tuple(float(d.b_max[p]) for p in term.plaquettes)
    if isinstance(term, CosineTerm):
        return ("cos", tuple(c for _, c in term.support), term.prefactor, grids)
    return (term.kind, term.coefficient, grids)


def _register_sum(terms, d: Digitization) -> np.ndarray:
    """Sum of the terms' diagonals on the ``(N,)*n_p`` register tensor.

    Axis k holds plaquette n_p - 1 - k, so the raveled tensor is in state
    order (plaquette 0 on the lowest qubits).
    """
    big_n = d.n_states
    total = np.zeros((big_n,) * d.n_p)
    for term in terms:
        axes = [d.n_p - 1 - p for p in term.plaquettes]
        shape = [big_n if a in axes else 1 for a in range(d.n_p)]
        total += diagonal_of_term(term, d).transpose(np.argsort(axes)).reshape(shape)
    return total


def dense_diagonals(model: HamiltonianModel):
    """`operator_diagonals`, raveled: electric (rotor basis) and magnetic (field basis)."""
    return tuple(tensor.ravel() for tensor in operator_diagonals(model))


def ft_matrix(n_q: int) -> np.ndarray:
    """Per-plaquette discrete Fourier transform F[l, m] = w^{lm} / sqrt(N)."""
    big_n = 1 << n_q
    lm = np.outer(np.arange(big_n), np.arange(big_n))
    return np.exp(2j * np.pi / big_n * lm) / math.sqrt(big_n)


def fourier_conjugate(diagonal: np.ndarray, states: np.ndarray,
                      n_p: int | None = None) -> np.ndarray:
    """F diag(diagonal) F^dagger applied to ``states``.

    ``diagonal`` is a register tensor of shape ``(N,)*n_p``, or a stack of
    them when ``n_p`` is given; ``states`` ends in the same ``n_p`` axes,
    after any leading batch axes, which broadcast against the diagonal's.
    F^dagger is the orthonormal `fftn` over the last ``n_p`` axes (all of the
    diagonal's by default) and F its inverse.
    """
    axes = tuple(range(-(diagonal.ndim if n_p is None else n_p), 0))
    return np.fft.ifftn(
        diagonal * np.fft.fftn(states, axes=axes, norm="ortho"), axes=axes, norm="ortho"
    )


def operator_diagonals(model: HamiltonianModel):
    """Register tensors ``e`` and ``b`` of H = F diag(e) F^dagger + diag(b).

    Every route to H starts here: the dense matrices and the matrix-free product
    H psi = `fourier_conjugate(e, psi) + b psi`.  Hermiticity is checked on ``k = ifftn(e)``,
    the kernel of F diag(e) F^dagger: ``max |k[d] - conj(k[-d])|`` is ``max |h - h^dagger|``,
    real diagonal or not.  It reserves eight real register tensors; the check's peak is seven.
    """
    reserve(f"{model.n_qubits}-qubit register diagonals", 64 << model.n_qubits)
    d = model.digitization
    e = _register_sum(model.electric, d)
    kernel = np.fft.ifftn(e)
    negated = -np.arange(d.n_states) % d.n_states
    dev = np.abs(kernel - kernel[np.ix_(*[negated] * e.ndim)].conj()).max()
    if dev > 1e-10:
        raise AssertionError(f"dense Hamiltonian not Hermitian: {dev:.3e}")
    return e, _register_sum(model.magnetic, d)


def _circulant(e: np.ndarray) -> np.ndarray:
    """F diag(e) F^dagger as a dense matrix.

    A multilevel circulant: entry ``[l, l']`` is ``k = ifftn(e)`` at ``(l - l') mod N``
    per plaquette, gathered with nothing of size dim^2 but the result allocated.
    """
    # the result, the kernel and 1 MiB for numpy's gather buffers
    reserve(f"{e.size}x{e.size} dense matrix", 16 * e.size * (e.size + 1) + (1 << 20))
    kernel, n = np.fft.ifftn(e), e.ndim
    grid = np.arange(e.shape[0])
    offsets = (grid[:, None] - grid[None, :]) % grid.size
    # register axis k runs along row axis k and column axis n + k
    index = tuple(np.expand_dims(offsets, [a for a in range(2 * n) if a % n != k])
                  for k in range(n))
    return kernel[index].reshape(e.size, e.size)


def dense_electric(model: HamiltonianModel) -> np.ndarray:
    """Electric Hamiltonian F diag(e) F^dagger in the magnetic basis, as a dense matrix."""
    return _circulant(operator_diagonals(model)[0])


def dense_matrix(model: HamiltonianModel) -> np.ndarray:
    """Full Hamiltonian in the magnetic basis, as a dense matrix."""
    e, b = operator_diagonals(model)
    h = _circulant(e)
    h[np.diag_indices_from(h)] += b.ravel()
    return h


def noncompact_mode_frequencies(lattice: LatticeSpec) -> np.ndarray:
    """Normal-mode frequencies of the undigitized non-compact theory.

    Simultaneously reduces the electric and magnetic quadratic forms; the
    coupling cancels, so the result is g-independent.
    """
    q_e = electric_quadratic_form(lattice)
    q_b = magnetic_quadratic_form(lattice.n_p)
    try:
        chol = np.linalg.cholesky(q_b)
    except np.linalg.LinAlgError as exc:
        raise ValueError("magnetic quadratic form is not positive definite") from exc
    w2 = np.linalg.eigvalsh(chol.T @ q_e @ chol)
    if w2.min() <= 0:
        raise ValueError("electric quadratic form is not positive definite")
    return np.sqrt(w2)


def noncompact_spectrum_oracle(lattice: LatticeSpec, count: int) -> np.ndarray:
    """Lowest ``count`` exact eigenvalues sum_k w_k (m_k + 1/2), ascending.

    A best-first search pops occupation tuples in order of energy.  A popped
    tuple's successors raise one mode k, at or after the mode its own parent
    raised, by one quantum, so every tuple has exactly one parent and the
    heap never holds more than 1 + count * modes tuples.
    """
    omega = noncompact_mode_frequencies(lattice)
    if count * omega.size > 4_000_000:
        raise ResourceLimitError(
            f"oracle search too large: {count} levels over {omega.size} modes"
        )

    def entry(ms, last):
        return float(omega @ (np.array(ms) + 0.5)), ms, last

    heap = [entry((0,) * omega.size, 0)]
    energies = []
    while len(energies) < count:
        energy, ms, last = heapq.heappop(heap)
        energies.append(energy)
        for k in range(last, omega.size):
            heapq.heappush(heap, entry(ms[:k] + (ms[k] + 1,) + ms[k + 1:], k))
    return np.array(energies)


def _tridiagonal(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


def extreme_eigenpairs(apply, dim: int):
    """Lowest and highest eigenpairs ``(value, vector)`` of a Hermitian operator on C^dim.

    Lanczos with full reorthogonalization (Gram-Schmidt twice per step) from a
    ``default_rng(0)`` start vector.  A breakdown (an invariant subspace before
    ``dim`` steps) starts a new block from the next random vector, orthogonalized
    against the basis; the tridiagonal matrix then splits into blocks.  The current
    block stops at the first step where the Ritz residual bound ``beta |s_last|`` of
    both its extreme pairs is within `LANCZOS_TOL` of the largest Ritz magnitude
    seen, which is never above the spectral radius.  Unconverged at ``dim`` steps,
    or on a non-finite residual, it raises `numpy.linalg.LinAlgError`; a ``dim``
    that is not a positive integer raises `ValueError`.

    The block's tridiagonal is diagonalized only at every eighth step of a block
    and where a breakdown, the last step or a non-finite ``beta`` may stop it
    (``beta`` within `LANCZOS_TOL` of twice the block's Gershgorin bound, which no
    Ritz value exceeds).  Within a block the extreme Ritz values only move outward
    (Cauchy interlacing), so the largest magnitude at a test is the running
    maximum, and a converged extreme pair stays converged unless a more extreme
    Ritz value appears.  When a test fires, the steps since the previous test are
    tested in order and the first that fires acts, so the stop step, breakdowns and
    result are those of a test at every step.  The basis grows to 64 states, then
    by doubling; each growth reserves the old and the grown basis, four working
    states and the tridiagonal tests' matrices.
    """
    if not _is_integer(dim) or dim < 1:
        raise ValueError(f"dim must be a positive integer, got {dim!r}")

    def orthogonalize(w, k):  # against basis[:k + 1]; conjugating w, not the basis, copies no basis
        for _ in range(2):
            w = w - basis[: k + 1].T @ (basis[: k + 1] @ w.conj()).conj()
        return w

    def test(k, scale):
        """The running Ritz magnitude after step ``k`` and what its test fires, if anything."""
        theta, s = np.linalg.eigh(_tridiagonal(diag[start : k + 1], off[start:k]))
        scale = max(scale, -theta[0], theta[-1])
        if k + 1 < dim and off[k] <= LANCZOS_TOL * scale:
            return scale, "restart"
        if off[k] * np.abs(s[-1, [0, -1]]).max() <= LANCZOS_TOL * scale:
            return scale, "stop"
        if k + 1 == dim or not np.isfinite(off[k]):
            return scale, "fail"
        return scale, None

    rng = np.random.default_rng(0)
    basis = np.zeros((0, dim), dtype=complex)
    diag, off = np.zeros(dim), np.zeros(dim)
    v, start, scale, tested, k = rng.standard_normal(dim), 0, 0.0, -1, -1
    while True:
        k += 1
        if k == len(basis):
            rows = max(2 * k, 64)
            reserve(f"{rows}x{dim} Lanczos basis", 16 * dim * (k + rows + 4) + 32 * rows * rows)
            basis = np.pad(basis, ((0, rows - k), (0, 0)))[:dim]
        basis[k] = v / np.linalg.norm(v)
        w = apply(basis[k])
        diag[k] = np.vdot(basis[k], w).real
        v = orthogonalize(w, k)
        off[k] = np.linalg.norm(v)
        if (k + 1 - start) % _TEST_STRIDE == 0:
            probe, fired = test(k, scale)
            if not fired:
                scale, tested = probe, k
                continue
        else:
            # doubled against eigh's rounding: the bound then covers every Ritz value
            bound = 2 * (np.abs(diag[start : k + 1]).max() + 2 * off[start:k].max(initial=0.0))
            if k + 1 < dim and np.isfinite(off[k]) and off[k] > LANCZOS_TOL * max(scale, bound):
                continue
        for j in range(tested + 1, k + 1):  # the steps since the last test, in order
            scale, fired = test(j, scale)
            if fired:
                break
        k = tested = j
        if fired == "restart":
            v = orthogonalize(rng.standard_normal(dim), k)
            off[k], start = 0.0, k + 1
        elif fired == "stop":
            break
        elif fired == "fail":
            raise np.linalg.LinAlgError(f"Lanczos unconverged after {k + 1} steps")
    theta, s = np.linalg.eigh(_tridiagonal(diag[: k + 1], off[:k]))
    vectors = basis[: k + 1].T @ s[:, [0, -1]]
    vectors /= np.linalg.norm(vectors, axis=0)
    return (float(theta[0]), vectors[:, 0]), (float(theta[-1]), vectors[:, 1])


def _ground_state(e: np.ndarray, b: np.ndarray):
    def apply(psi):
        psi = psi.reshape(e.shape)
        return (fourier_conjugate(e, psi) + b * psi).ravel()

    (energy, psi), (top, _) = extreme_eigenpairs(apply, e.size)
    # the bound scales with the Ritz extremes, which lie inside the spectrum
    if (residual := np.linalg.norm(apply(psi) - energy * psi)) > 1e-10 * max(1.0, -energy, top):
        raise AssertionError(f"ground state residual {residual:.3e} at energy {energy!r}")
    return energy, psi


def ground_state(model: HamiltonianModel):
    """Lowest eigenpair (E, psi) of H, by `extreme_eigenpairs` on the matrix-free H."""
    return _ground_state(*operator_diagonals(model))


def plaquette_expectation(model: HamiltonianModel) -> float:
    """Ground-state plaquette 1 + g^2/(n_p + 1) <H_B>; compact formulation only."""
    if model.digitization.formulation != "compact":
        raise ValueError("plaquette expectation is defined in the compact formulation")
    e, b = operator_diagonals(model)
    _, psi = _ground_state(e, b)
    h_b = float(np.real(np.vdot(psi, b.ravel() * psi)))
    g = model.digitization.g
    return 1.0 + g**2 / (model.n_p + 1) * h_b

"""Electric and magnetic Hamiltonian terms, dense matrices, and spectra.

The electric energy is a discrete-curl quadratic form: every lattice link
contributes ``(R_p - R_q)^2`` for the two plaquettes sharing it, with the
constrained plaquette's rotor pinned to zero.  The magnetic energy is
either ``B^2/2`` bilinears (non-compact) or ``n_p + 1`` cosines (compact):
one per independent plaquette plus the maximally coupled constraint row.
All additive constants are dropped.

Each term's diagonal is a plain grid tensor (`diagonal_of_term`) of shape
``(N,)*len(support)``, axis i over the grid index of support plaquette i;
only `walsh.fwt` reads its raveled form as dyadic samples.  Dense matrices
live in the magnetic basis, H = F diag(e) F^dagger + diag(b).  The diagonals
``e`` (rotor basis) and ``b`` (field basis) place the term tensors on the
``(N,)*n_p`` register tensor and sum them; ``F[l, m] = w^{lm} / sqrt(N)`` is
the per-plaquette DFT, pairing magnetic grid index ``l`` with rotor grid
index ``m``.  `fourier_conjugate` applies F diag(e) F^dagger to states by
FFTs; `dense_electric` builds it as a multilevel circulant from one inverse
FFT and checks Hermiticity there.  `circuits.qft_circuit` realizes the same
F, which is what makes circuit evolution and dense evolution comparable.

The qubit caps are constants of this module, checked only where memory is
allocated: `DENSE_LIMIT_QUBITS` in `dense_electric` (so every dense matrix,
spectrum, evolution and error budget), `TERM_LIMIT_QUBITS` in
`diagonal_of_term` and `dense_diagonals` (so every Walsh series).  Above a cap
they raise `ResourceLimitError` before allocating.
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
    b_grid,
    identity_weave,
    r_grid,
)

DENSE_LIMIT_QUBITS = 14  # full matrices / diagonalization
TERM_LIMIT_QUBITS = 22  # per-term and full-register diagonals

_COUPLING_TOL = 1e-12


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
    weave: WeaveMatrix | None
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
    if d.basis == "weaved" and weave is None:
        raise ValueError("weaved basis requires a weave matrix")
    use = weave if d.basis == "weaved" else None
    return HamiltonianModel(
        lattice,
        d,
        use,
        tuple(electric_terms(lattice, use)),
        tuple(magnetic_terms(d, use)),
    )


def _check_cap(what: str, n: int, kind: str, cap: int) -> None:
    """Raise before allocating when ``what`` spans more than ``cap`` qubits."""
    if n > cap:
        raise ResourceLimitError(f"{what} spans {n} qubits, above the {kind} limit of {cap}")


def diagonal_of_term(term, d: Digitization) -> np.ndarray:
    """Diagonal of one term as a grid tensor over its support plaquettes.

    The tensor has shape ``(N,)*len(support)``; axis i runs over the grid of
    support plaquette i, as read from the digitization.
    """
    support = term.plaquettes
    _check_cap("term", len(support) * d.n_q, "dense diagonal", TERM_LIMIT_QUBITS)
    if isinstance(term, CosineTerm):
        arg = 0.0
        for p, c in term.support:
            arg = np.add.outer(arg, c * b_grid(d, p))
        return (term.prefactor / d.g**2) * np.cos(arg)

    if term.kind == "RR":
        grids = [r_grid(d, p) for p in support]
        scale = 0.5 * d.g**2 * term.coefficient
    else:
        grids = [b_grid(d, p) for p in support]
        scale = 0.5 / d.g**2 * term.coefficient
    if len(support) == 1:
        return scale * grids[0] ** 2
    return scale * np.multiply.outer(grids[0], grids[1])


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
    """Full-register electric (rotor basis) and magnetic (field basis) diagonals."""
    _check_cap("register", model.n_qubits, "diagonal", TERM_LIMIT_QUBITS)
    d = model.digitization
    return _register_sum(model.electric, d).ravel(), _register_sum(model.magnetic, d).ravel()


def ft_matrix(n_q: int) -> np.ndarray:
    """Per-plaquette discrete Fourier transform F[l, m] = w^{lm} / sqrt(N)."""
    big_n = 1 << n_q
    lm = np.outer(np.arange(big_n), np.arange(big_n))
    return np.exp(2j * np.pi / big_n * lm) / math.sqrt(big_n)


def fourier_conjugate(diagonal: np.ndarray, states: np.ndarray) -> np.ndarray:
    """F diag(diagonal) F^dagger applied to ``states``.

    ``diagonal`` is a register tensor of shape ``(N,)*n_p``; ``states`` ends
    in the same axes, after any leading batch axes.  F^dagger is the
    orthonormal `fftn` over those axes and F its inverse.
    """
    axes = tuple(range(-diagonal.ndim, 0))
    return np.fft.ifftn(
        diagonal * np.fft.fftn(states, axes=axes, norm="ortho"), axes=axes, norm="ortho"
    )


def dense_electric(model: HamiltonianModel) -> np.ndarray:
    """Electric Hamiltonian F diag(e) F^dagger in the magnetic basis, as a dense matrix.

    A multilevel circulant: entry ``[l, l']`` is ``k = ifftn(e)`` at ``(l - l') mod N``
    per plaquette, gathered with nothing of size dim^2 but the result allocated.
    The check ``max |k[d] - conj(k[-d])|`` is ``max |h - h^dagger|``, real diagonal or not.
    """
    _check_cap("register", model.n_qubits, "dense", DENSE_LIMIT_QUBITS)
    e = _register_sum(model.electric, model.digitization)
    kernel, n = np.fft.ifftn(e), e.ndim
    grid = np.arange(model.digitization.n_states)
    offsets = (grid[:, None] - grid[None, :]) % grid.size  # row 0 is -d mod N
    dev = np.abs(kernel - kernel[np.ix_(*[offsets[0]] * n)].conj()).max()
    if dev > 1e-10:
        raise AssertionError(f"dense Hamiltonian not Hermitian: {dev:.3e}")
    # register axis k runs along row axis k and column axis n + k
    index = tuple(np.expand_dims(offsets, [a for a in range(2 * n) if a % n != k])
                  for k in range(n))
    return kernel[index].reshape(e.size, e.size)


def dense_matrix(model: HamiltonianModel) -> np.ndarray:
    """Full Hamiltonian in the magnetic basis; `dense_electric` checks it is Hermitian."""
    h = dense_electric(model)
    h[np.diag_indices_from(h)] += dense_diagonals(model)[1]
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


def ground_state(model: HamiltonianModel):
    """Lowest eigenpair: the `eigvalsh` energy E, the vector by two inverse-iteration solves."""
    h = dense_matrix(model)
    vals = np.linalg.eigvalsh(h)
    h[np.diag_indices_from(h)] -= vals[0]
    psi = np.random.default_rng(0).standard_normal(len(h))
    for _ in range(2):
        psi = np.linalg.solve(h, psi)
        psi /= np.linalg.norm(psi)
    # a backward-stable solve's rounding scales with the spectral radius, not with |E|
    if (residual := np.linalg.norm(h @ psi)) > 1e-10 * max(1.0, -vals[0], vals[-1]):
        raise AssertionError(f"ground state residual {residual:.3e} at energy {vals[0]!r}")
    return float(vals[0]), psi


def plaquette_expectation(model: HamiltonianModel) -> float:
    """Ground-state plaquette 1 + g^2/(n_p + 1) <H_B>; compact formulation only."""
    if model.digitization.formulation != "compact":
        raise ValueError("plaquette expectation is defined in the compact formulation")
    _, psi = ground_state(model)
    _, b_diag = dense_diagonals(model)
    h_b = float(np.real(np.vdot(psi, b_diag * psi)))
    g = model.digitization.g
    return 1.0 + g**2 / (model.n_p + 1) * h_b

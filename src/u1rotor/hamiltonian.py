"""Electric and magnetic Hamiltonian terms, dense matrices, and spectra.

The electric energy is a discrete-curl quadratic form: every lattice link
contributes ``(R_p - R_q)^2`` for the two plaquettes sharing it, with the
constrained plaquette's rotor pinned to zero.  The magnetic energy is
either ``B^2/2`` bilinears (non-compact) or ``n_p + 1`` cosines (compact):
one per independent plaquette plus the maximally coupled constraint row.
All additive constants are dropped.

Dense matrices live in the magnetic basis.  The electric part is rotated
in with the per-plaquette discrete Fourier transform ``F[l, m] =
w^{lm} / sqrt(N)``, pairing magnetic grid index ``l`` with rotor grid index
``m``; `circuits.qft_circuit` realizes the same matrix, which is what makes
circuit evolution and dense evolution comparable.
"""

from __future__ import annotations

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
from .walsh import DiagonalValues

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
    def support(self) -> tuple[int, ...]:
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


def cosine_rows(n_p: int, weave: WeaveMatrix | None = None) -> np.ndarray:
    """The n_p + 1 cosine-argument rows of the compact magnetic Hamiltonian."""
    return (weave if weave is not None else identity_weave(n_p)).m


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
        rows = cosine_rows(d.n_p, weave)
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


def diagonal_of_term(term, d: Digitization, limit: int = TERM_LIMIT_QUBITS) -> DiagonalValues:
    """Joint diagonal of one term over its support plaquettes.

    The first support plaquette is the most significant digit of the joint
    sample index; grids are read per plaquette from the digitization.
    """
    if isinstance(term, CosineTerm):
        support = term.plaquettes
    else:
        support = term.support
    s = len(support)
    n = s * d.n_q
    if n > limit:
        raise ResourceLimitError(
            f"term spans {n} qubits, above the dense diagonal limit of {limit}"
        )
    big_n = d.n_states

    def axis_shape(b):
        return (1,) * b + (big_n,) + (1,) * (s - 1 - b)

    if isinstance(term, CosineTerm):
        arg = np.zeros((big_n,) * s)
        for b, (p, c) in enumerate(term.support):
            arg = arg + c * b_grid(d, p).values.reshape(axis_shape(b))
        values = (term.prefactor / d.g**2) * np.cos(arg)
        return DiagonalValues(n, values.ravel())

    if term.kind == "RR":
        grids = [r_grid(d, p).values for p in support]
        scale = 0.5 * d.g**2 * term.coefficient
    else:
        grids = [b_grid(d, p).values for p in support]
        scale = 0.5 / d.g**2 * term.coefficient
    if s == 1:
        values = scale * grids[0] ** 2
    else:
        values = scale * np.multiply.outer(grids[0], grids[1])
    return DiagonalValues(n, values.ravel())


def _register_grid_values(model: HamiltonianModel, grid_fn) -> list[np.ndarray]:
    """Per-plaquette grid values expanded over the full register (state order)."""
    d = model.digitization
    dim = 1 << model.n_qubits
    idx = np.arange(dim)
    out = []
    for p in range(model.n_p):
        l_p = (idx >> (p * d.n_q)) & (d.n_states - 1)
        out.append(grid_fn(d, p).values[l_p])
    return out


def dense_diagonals(model: HamiltonianModel, limit: int = TERM_LIMIT_QUBITS):
    """Full-register electric (rotor basis) and magnetic (field basis) diagonals."""
    if model.n_qubits > limit:
        raise ResourceLimitError(
            f"register spans {model.n_qubits} qubits, above the diagonal limit of {limit}"
        )
    d = model.digitization
    rv = _register_grid_values(model, r_grid)
    bv = _register_grid_values(model, b_grid)
    dim = 1 << model.n_qubits

    q_e = electric_quadratic_form(model.lattice, model.weave)
    e_diag = np.zeros(dim)
    for i in range(model.n_p):
        e_diag += 0.5 * d.g**2 * q_e[i, i] * rv[i] ** 2
        for j in range(i + 1, model.n_p):
            if abs(q_e[i, j]) > _COUPLING_TOL:
                e_diag += d.g**2 * q_e[i, j] * rv[i] * rv[j]

    b_diag = np.zeros(dim)
    if d.formulation == "compact":
        for row in cosine_rows(model.n_p, model.weave):
            arg = np.zeros(dim)
            for i in range(model.n_p):
                if abs(row[i]) > _COUPLING_TOL:
                    arg += row[i] * bv[i]
            b_diag += -np.cos(arg) / d.g**2
    else:
        q_b = magnetic_quadratic_form(model.n_p, model.weave)
        for i in range(model.n_p):
            b_diag += 0.5 / d.g**2 * q_b[i, i] * bv[i] ** 2
            for j in range(i + 1, model.n_p):
                if abs(q_b[i, j]) > _COUPLING_TOL:
                    b_diag += q_b[i, j] / d.g**2 * bv[i] * bv[j]
    return e_diag, b_diag


def ft_matrix(n_q: int) -> np.ndarray:
    """Per-plaquette discrete Fourier transform F[l, m] = w^{lm} / sqrt(N)."""
    big_n = 1 << n_q
    lm = np.outer(np.arange(big_n), np.arange(big_n))
    return np.exp(2j * np.pi / big_n * lm) / math.sqrt(big_n)


def _kron_chain(blocks: list[np.ndarray]) -> np.ndarray:
    """Kronecker product with blocks[0] least significant (plaquette 0 lowest qubits)."""
    out = blocks[-1]
    for b in reversed(blocks[:-1]):
        out = np.kron(out, b)
    return out


def dense_electric(model: HamiltonianModel, limit: int = DENSE_LIMIT_QUBITS) -> np.ndarray:
    """Electric Hamiltonian rotated to the magnetic basis, as a dense matrix."""
    if model.n_qubits > limit:
        raise ResourceLimitError(
            f"register spans {model.n_qubits} qubits, above the dense limit of {limit}"
        )
    d = model.digitization
    f = ft_matrix(d.n_q)
    big_n = d.n_states
    eye = np.eye(big_n)
    rot = []  # per-plaquette rotor operator in the magnetic basis
    rot_sq = []
    for p in range(model.n_p):
        r = r_grid(d, p).values
        rot.append((f * r[None, :]) @ f.conj().T)
        rot_sq.append((f * (r**2)[None, :]) @ f.conj().T)
    q_e = electric_quadratic_form(model.lattice, model.weave)
    dim = 1 << model.n_qubits
    h_e = np.zeros((dim, dim), dtype=complex)
    for i in range(model.n_p):
        blocks = [eye] * model.n_p
        blocks[i] = rot_sq[i]
        h_e += 0.5 * d.g**2 * q_e[i, i] * _kron_chain(blocks)
        for j in range(i + 1, model.n_p):
            if abs(q_e[i, j]) > _COUPLING_TOL:
                blocks = [eye] * model.n_p
                blocks[i] = rot[i]
                blocks[j] = rot[j]
                h_e += d.g**2 * q_e[i, j] * _kron_chain(blocks)
    return h_e


def dense_matrix(model: HamiltonianModel, limit: int = DENSE_LIMIT_QUBITS) -> np.ndarray:
    """Full Hamiltonian in the magnetic basis; Hermitian to 1e-10 by construction."""
    h = dense_electric(model, limit)
    _, b_diag = dense_diagonals(model)
    h[np.diag_indices_from(h)] += b_diag
    dev = np.abs(h - h.conj().T).max()
    if dev > 1e-10:
        raise AssertionError(f"dense Hamiltonian not Hermitian: {dev:.3e}")
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

    Occupation tuples grow one mode at a time, and a partial tuple whose
    excitation sum_k m_k w_k already exceeds (count - 1) * min(w) is dropped:
    the lowest mode's own ladder puts ``count`` levels at or below that.
    """
    omega = noncompact_mode_frequencies(lattice)
    # the slack keeps tuples that tie the bound up to rounding
    bound = (count - 1) * float(omega.min()) * (1.0 + 1e-12)
    partial = [((), 0.0)]
    for w in omega:
        grown = []
        for ms, excitation in partial:
            m = 0
            while excitation + m * w <= bound:
                grown.append((ms + (m,), excitation + m * w))
                m += 1
        partial = grown
        if len(partial) > 4_000_000:
            raise ResourceLimitError(f"oracle enumeration too large: {len(partial)} states")
    energies = sorted(float(omega @ (np.array(ms) + 0.5)) for ms, _ in partial)
    return np.array(energies[:count])


def ground_state(model: HamiltonianModel, limit: int = DENSE_LIMIT_QUBITS):
    """Lowest eigenpair of the dense Hamiltonian."""
    h = dense_matrix(model, limit)
    vals, vecs = np.linalg.eigh(h)
    return float(vals[0]), vecs[:, 0]


def plaquette_expectation(model: HamiltonianModel, limit: int = DENSE_LIMIT_QUBITS) -> float:
    """Ground-state plaquette 1 + g^2/(n_p + 1) <H_B>; compact formulation only."""
    if model.digitization.formulation != "compact":
        raise ValueError("plaquette expectation is defined in the compact formulation")
    _, psi = ground_state(model, limit)
    _, b_diag = dense_diagonals(model)
    h_b = float(np.real(np.vdot(psi, b_diag * psi)))
    g = model.digitization.g
    return 1.0 + g**2 / (model.n_p + 1) * h_b

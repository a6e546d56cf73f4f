"""Lattice geometry, digitization grids, and the weaved operator basis.

A periodic ``n_x x n_y`` plaquette lattice carries one constraint, so the
last plaquette is eliminated and ``n_p = n_x*n_y - 1`` independent rotors
remain.  Plaquette ``p`` occupies qubits ``[p*n_q, (p+1)*n_q)`` of the flat
register, little-endian: qubit ``p*n_q + r`` holds bit ``r`` of the
magnetic grid index ``l_p``.  This layout is fixed so QASM exports are
stable.

Each plaquette samples its field on ``2^n_q`` points ``-b_max + l*db`` with
``db = 2 b_max / 2^n_q``; the conjugate rotor grid follows from
``r_max = pi N / (2 b_max)`` and ``dr = pi / b_max``.  `b_grid` and
`r_grid` return these points as plain arrays indexed by ``l``.  The
half-width prescriptions (`b_max_noncompact`, `b_max_compact`) cap the
compact grid at pi in the original basis, or at pi over the smallest cosine
coefficient of the plaquette in the weaved basis.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

WEAVE_ORTHO_TOL = 1e-10
MEMORY_BUDGET = 1 << 31  # bytes one construction may hold at its peak: 2 GiB


class WeaveUnavailableError(ValueError):
    """No built-in weave for this plaquette count; load one from a file."""


class ResourceLimitError(RuntimeError):
    """A construction would exceed `MEMORY_BUDGET` (see `reserve`) or a search or sweep bound."""


def reserve(what: str, nbytes: int) -> int:
    """Refuse ``what`` if its peak of ``nbytes`` exceeds the budget; else return the bytes left."""
    if nbytes > MEMORY_BUDGET:
        raise ResourceLimitError(f"{what} needs {nbytes} B, over the {MEMORY_BUDGET} B budget")
    return MEMORY_BUDGET - nbytes


def _is_integer(value) -> bool:
    """Whether a count is a Python or numpy integer; a bool is not."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class LatticeSpec:
    """Periodic plaquette lattice; the last plaquette is constraint-eliminated."""

    n_x: int
    n_y: int

    def __post_init__(self):
        if not (_is_integer(self.n_x) and _is_integer(self.n_y)) or min(self.n_x, self.n_y) < 2:
            raise ValueError(
                f"lattice sizes must be integers of at least 2, got {self.n_x!r}x{self.n_y!r}")

    @property
    def n_p(self) -> int:
        return self.n_x * self.n_y - 1

    def plaquette_index(self, x: int, y: int) -> int:
        return (x % self.n_x) + (y % self.n_y) * self.n_x

    def links(self):
        """All 2*n_x*n_y links as (p, q) plaquette pairs (periodic neighbors)."""
        for y in range(self.n_y):
            for x in range(self.n_x):
                p = self.plaquette_index(x, y)
                yield p, self.plaquette_index(x + 1, y)
                yield p, self.plaquette_index(x, y + 1)


@dataclass(frozen=True)
class WeaveMatrix:
    """Orthogonal rotor rotation ``w`` plus its cosine-argument rows ``m``.

    ``m`` stacks the rows of ``w`` and one final row of negated column sums
    (the constraint plaquette's field expressed in the rotated operators);
    row ``c`` holds the coefficients inside the c-th cosine.
    """

    w: np.ndarray
    m: np.ndarray

    @property
    def n_p(self) -> int:
        return self.w.shape[0]


def weave_from_matrix(w: np.ndarray) -> WeaveMatrix:
    """Validate finite orthogonality and attach the cosine-argument rows."""
    w = np.asarray(w, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError(f"weave must be square, got shape {w.shape}")
    with np.errstate(invalid="ignore"):  # inf entries give NaN, which fails the check below
        dev = np.abs(w.T @ w - np.eye(w.shape[0])).max()
    if not dev <= WEAVE_ORTHO_TOL:
        raise ValueError(
            f"weave matrix is not orthogonal: max |W^T W - 1| = {dev:.3e} > {WEAVE_ORTHO_TOL:.1e}"
        )
    m = np.vstack([w, -w.sum(axis=0)])
    return WeaveMatrix(w, m)


def identity_weave(n_p: int) -> WeaveMatrix:
    """The original basis expressed as a (trivial) weave."""
    return weave_from_matrix(np.eye(n_p))


def builtin_weave(n_p: int) -> WeaveMatrix:
    """Published weave for n_p = 3; other sizes must be loaded from a file."""
    if n_p != 3:
        raise WeaveUnavailableError(
            f"no built-in weave for n_p={n_p}; supply a matrix file"
        )
    s2, s3 = math.sqrt(2.0), math.sqrt(3.0)
    w = np.array([[s2, -2.0, 0.0], [s2, 1.0, -s3], [s2, 1.0, s3]]) / math.sqrt(6.0)
    return weave_from_matrix(w)


def load_weave(path) -> WeaveMatrix:
    """Read a weave from JSON: {"n_p": int, "rows": [[...], ...]} (row-major)."""
    with open(path) as fh:
        data = json.load(fh)
    for key in ("rows", "n_p"):
        if not isinstance(data, dict) or key not in data:
            raise ValueError(f"weave file {path} has no {key!r} entry")
    n_p = data["n_p"]
    if not _is_integer(n_p):
        raise ValueError(f"weave file {path}: n_p must be an integer, got {n_p!r}")
    rows = np.asarray(data["rows"], dtype=object)
    if rows.shape != (n_p, n_p):
        raise ValueError(f"expected {n_p}x{n_p} rows, got shape {rows.shape}")
    if not all(type(x) in (int, float) for x in rows.flat):  # JSON numbers load as these; true as bool
        raise ValueError(f"weave file {path}: rows must hold numbers only")
    try:
        return weave_from_matrix(rows.astype(float))
    except OverflowError:  # an integer beyond the float range
        raise ValueError(f"weave file {path}: rows hold a number beyond the float range") from None


def save_weave(weave: WeaveMatrix, path) -> None:
    with open(path, "w") as fh:
        json.dump({"n_p": weave.n_p, "rows": weave.w.tolist()}, fh, indent=1)
        fh.write("\n")


def b_max_noncompact(g: float, n_q: int) -> float:
    """Optimal half-width for an unbounded quadratic field at coupling g.

    The harmonic-matching constants beta_r = beta_b = 1 of every plaquette
    are folded in: their factor sqrt(beta_r / beta_b) is exactly 1.
    """
    if not 0 < g < math.inf:
        raise ValueError(f"coupling must be positive and finite, got g={g}")
    big_n = 1 << n_q
    return g * (big_n / 2.0) * math.sqrt(math.sqrt(8.0) * math.pi / big_n)


def cosine_cap(weave: WeaveMatrix | None, plaquette: int) -> float:
    """Upper limit on b_max: pi over the smallest nonzero cosine coefficient."""
    if weave is None:
        return math.pi
    column = weave.m[:, plaquette]
    nonzero = np.abs(column[np.abs(column) > 1e-12])
    if nonzero.size == 0:
        raise ValueError(f"degenerate weave: plaquette {plaquette} absent from every cosine")
    return math.pi / float(nonzero.min())


def b_max_compact(g: float, n_q: int, plaquette: int = 0, weave: WeaveMatrix | None = None) -> float:
    """Compact-formulation half-width: the unbounded value clamped at its cap."""
    return min(b_max_noncompact(g, n_q), cosine_cap(weave, plaquette))


@dataclass(frozen=True)
class Digitization:
    """Per-plaquette grid parameters for one lattice register."""

    n_q: int
    g: float
    b_max: np.ndarray
    formulation: str  # "compact" | "non-compact"
    basis: str  # "original" | "weaved"

    def __post_init__(self):
        if not _is_integer(self.n_q) or self.n_q < 1:
            raise ValueError(f"need an integer n_q of at least one qubit, got {self.n_q!r}")
        if self.formulation not in ("compact", "non-compact"):
            raise ValueError(f"unknown formulation {self.formulation!r}")
        if self.basis not in ("original", "weaved"):
            raise ValueError(f"unknown basis {self.basis!r}")
        if not 0 < self.g < math.inf:
            raise ValueError(f"coupling must be positive and finite, got {self.g}")
        b = np.asarray(self.b_max, dtype=float)
        if b.ndim != 1:
            raise ValueError("b_max must be one-dimensional, one value per plaquette, "
                             f"got shape {b.shape}")
        if b.size == 0:
            raise ValueError("b_max holds no plaquette")
        if not np.all((b > 0) & np.isfinite(b)):
            raise ValueError("b_max must be positive and finite")
        # term weights and grids scale by g^2, 1/g^2 and both grid spacings
        with np.errstate(over="ignore", under="ignore", divide="ignore"):
            g2 = np.float64(self.g) ** 2
            scales = np.concatenate([[g2, 1 / g2], math.pi / b, np.ldexp(b, 1 - self.n_q)])
        if not np.all((scales > 0) & (scales < math.inf)):
            raise ValueError(f"coupling g={self.g} gives a zero or infinite g^2, 1/g^2 or spacing")
        if self.formulation == "compact" and self.basis == "original":
            if np.any(b > math.pi + 1e-12):
                raise ValueError("original compact grids cannot exceed pi")
        object.__setattr__(self, "b_max", b)

    @property
    def n_p(self) -> int:
        return self.b_max.shape[0]

    @property
    def n_states(self) -> int:
        return 1 << self.n_q


def digitize(
    n_p: int,
    n_q: int,
    g: float,
    formulation: str,
    basis: str = "original",
    weave: WeaveMatrix | None = None,
) -> Digitization:
    """Apply the half-width prescriptions to every independent plaquette."""
    if not (_is_integer(n_p) and _is_integer(n_q)):
        raise ValueError(f"n_p and n_q must be integers, got {n_p!r} and {n_q!r}")
    if n_p < 1:
        raise ValueError(f"need at least one plaquette, got n_p={n_p}")
    if not 1 <= n_q < 1024:  # the 2^n_q grid points must fit a float
        raise ValueError(f"need n_q from 1 to 1023 qubits, got n_q={n_q}")
    if (basis == "weaved") != (weave is not None):
        need = "requires a" if weave is None else "takes no"
        raise ValueError(f"{basis} basis {need} weave matrix")
    if weave is not None and weave.n_p != n_p:
        raise ValueError(f"weave is {weave.n_p}x{weave.n_p} but lattice has n_p={n_p}")
    b_max = np.empty(n_p)
    for i in range(n_p):
        if formulation == "non-compact":
            b_max[i] = b_max_noncompact(g, n_q)
        else:
            b_max[i] = b_max_compact(g, n_q, i, weave)
    return Digitization(n_q, g, b_max, formulation, basis)


def b_grid(d: Digitization, plaquette: int) -> np.ndarray:
    """Magnetic grid -b_max + l*db for l = 0 .. 2^n_q - 1 (never reaches +b_max)."""
    b = d.b_max[plaquette]
    db = 2.0 * b / d.n_states
    return -b + db * np.arange(d.n_states)


def r_grid(d: Digitization, plaquette: int) -> np.ndarray:
    """Conjugate rotor grid; contains exactly one zero at l = N/2."""
    b = d.b_max[plaquette]
    r_max = math.pi * d.n_states / (2.0 * b)
    dr = math.pi / b
    return -r_max + dr * np.arange(d.n_states)


def embed_positions(support, n_q: int) -> list[int]:
    """Register positions for a term's local Walsh series.

    A term's diagonal tensor, raveled, has the first support plaquette as
    its most significant digit; the dyadic sampling convention of `fwt` then
    pins local series qubit ``b*n_q + m`` to register qubit
    ``support[b]*n_q + (n_q - 1 - m)``.
    """
    return [p * n_q + (n_q - 1 - m) for p in support for m in range(n_q)]

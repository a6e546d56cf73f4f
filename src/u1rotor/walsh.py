"""Sparse Walsh-series algebra on qubit registers.

Indices follow the Paley convention: series entry ``j`` multiplies the
operator that applies sigma^z to every register qubit ``q`` whose bit ``q``
of ``j`` is set.  Dense diagonals are sampled dyadically: ``values[k]`` is
the eigenvalue on the basis state whose qubit ``q`` carries bit
``n - 1 - q`` of the sample index ``k``.  Together these conventions fix
the transform pair

    a_j = 2^-n * sum_k values[k] * (-1)^popcount(j & reverse_n(k))

which is what `fwt` / `inverse_fwt` implement (``reverse_n`` reverses an
n-bit string).  Coefficients of magnitude <= `PRUNE_TOL` are never stored.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Storage pruning threshold; far below any angle that survives truncation.
PRUNE_TOL = 1e-15


def bit_reverse(value, width: int):
    """Reverse the low ``width`` bits of ``value`` (an int or an integer array)."""
    out = value & 0  # zero of the same type and shape
    for i in range(width):
        out = (out << 1) | ((value >> i) & 1)
    return out


@dataclass(frozen=True)
class DiagonalValues:
    """Dense real diagonal over ``n`` qubits, sampled in dyadic order."""

    n: int
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if self.n < 0:
            raise ValueError(f"negative register width {self.n}")
        if vals.shape != (1 << self.n,):
            raise ValueError(
                f"expected {1 << self.n} diagonal values for n={self.n}, "
                f"got shape {vals.shape}"
            )
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class WalshSeries:
    """Sparse map from Paley index to real coefficient on an ``n``-qubit register."""

    n: int
    terms: dict[int, float] = field(default_factory=dict)

    def __post_init__(self):
        pruned = {}
        for mask, coeff in self.terms.items():
            if not 0 <= mask < (1 << self.n):
                raise ValueError(f"mask {mask} out of range for n={self.n}")
            if abs(coeff) > PRUNE_TOL:
                pruned[int(mask)] = float(coeff)
        object.__setattr__(self, "terms", pruned)

    def __len__(self) -> int:
        return len(self.terms)

    def coefficient(self, mask: int) -> float:
        return self.terms.get(mask, 0.0)


def walsh_value(j: int, k: int, n: int) -> int:
    """Value (+1 or -1) of the j-th Paley Walsh function at sample index k.

    ``k`` is interpreted dyadically (bit-reversed binary), so the result is
    ``(-1)^popcount(j & reverse_n(k))``.
    """
    if not 0 <= j < (1 << n):
        raise ValueError(f"index j={j} out of range for n={n}")
    if not 0 <= k < (1 << n):
        raise ValueError(f"sample k={k} out of range for n={n}")
    parity = bin(j & bit_reverse(k, n)).count("1") & 1
    return -1 if parity else 1


def _fwht_inplace(a: np.ndarray) -> None:
    """Unnormalized fast Walsh-Hadamard butterfly, in place."""
    size = a.shape[0]
    h = 1
    while h < size:
        blocks = a.reshape(-1, 2, h)
        u = blocks[:, 0, :].copy()
        v = blocks[:, 1, :].copy()
        blocks[:, 0, :] = u + v
        blocks[:, 1, :] = u - v
        h *= 2


def _series_of_state_order(work: np.ndarray, n: int) -> WalshSeries:
    """Normalized transform of a state-ordered diagonal; overwrites ``work``."""
    _fwht_inplace(work)
    work /= 1 << n
    keep = np.nonzero(np.abs(work) > PRUNE_TOL)[0]
    return WalshSeries(n, {int(j): float(work[j]) for j in keep})


def fwt(values: DiagonalValues) -> WalshSeries:
    """Forward transform of a dyadically sampled diagonal into a sparse series."""
    n = values.n
    return _series_of_state_order(values.values[bit_reverse(np.arange(1 << n), n)], n)


def series_from_state_values(values: np.ndarray, n: int) -> WalshSeries:
    """Transform a diagonal given in plain register order (state index = array index)."""
    vals = np.asarray(values, dtype=float)
    if vals.shape != (1 << n,):
        raise ValueError(f"expected {1 << n} values for n={n}, got {vals.shape}")
    return _series_of_state_order(vals.copy(), n)


def inverse_fwt(series: WalshSeries) -> DiagonalValues:
    """Reconstruct the dense dyadic diagonal represented by a series."""
    n = series.n
    return DiagonalValues(n, state_values(series)[bit_reverse(np.arange(1 << n), n)])


def state_values(series: WalshSeries) -> np.ndarray:
    """Dense diagonal of a series in plain register order."""
    n = series.n
    coeffs = np.zeros(1 << n)
    for mask, c in series.terms.items():
        coeffs[mask] = c
    _fwht_inplace(coeffs)
    return coeffs


def binary_to_gray(j: int) -> int:
    """Reflected Gray code of ``j``."""
    if j < 0:
        raise ValueError("Gray code defined for non-negative integers")
    return j ^ (j >> 1)


def gray_rank(mask: int) -> int:
    """Position of ``mask`` in the Gray sequence (inverse of `binary_to_gray`).

    Sorting Walsh indices by this key yields sequency order: indices sharing
    a most significant bit form one contiguous group, reflected within.
    """
    if mask < 0:
        raise ValueError("Gray rank defined for non-negative integers")
    rank = 0
    while mask:
        rank ^= mask
        mask >>= 1
    return rank


def sequency_sorted(masks) -> list[int]:
    """Masks sorted into sequency order (msb groups ascending, Gray within)."""
    return sorted(masks, key=gray_rank)


def embed(series: WalshSeries, positions: list[int], width: int) -> WalshSeries:
    """Relocate a series onto a wider register.

    Bit ``i`` of every mask moves to qubit ``positions[i]``; coefficients are
    untouched.  Positions must be distinct and inside the target register.
    """
    if len(positions) != series.n:
        raise ValueError(
            f"need {series.n} positions for an n={series.n} series, got {len(positions)}"
        )
    if len(set(positions)) != len(positions):
        raise ValueError(f"position collision in {positions}")
    for p in positions:
        if not 0 <= p < width:
            raise ValueError(f"position {p} outside target register of width {width}")
    # one lookup table per byte of a mask: the moved bits for each of its 256 values
    tables = []
    for lo in range(0, series.n, 8):
        chunk = positions[lo:lo + 8]
        table = [0] * (1 << len(chunk))
        for v in range(1, len(table)):
            table[v] = table[v & (v - 1)] | (1 << chunk[(v & -v).bit_length() - 1])
        tables.append((lo, table))
    moved: dict[int, float] = {}
    for mask, coeff in series.terms.items():
        new = 0
        for lo, table in tables:
            new |= table[(mask >> lo) & 0xFF]
        moved[new] = coeff
    return WalshSeries(width, moved)


def merge(series_list) -> WalshSeries:
    """Sum series over a common register, combining equal masks.

    Summation happens before any truncation decision; entries cancelling to
    zero are removed.
    """
    series_list = list(series_list)
    if not series_list:
        raise ValueError("nothing to merge")
    if len(series_list) == 1:
        return series_list[0]
    n = series_list[0].n
    total: dict[int, float] = {}
    for s in series_list:
        if s.n != n:
            raise ValueError(f"register width mismatch in merge: {s.n} != {n}")
        for mask, coeff in s.terms.items():
            total[mask] = total.get(mask, 0.0) + coeff
    return WalshSeries(n, total)


def threshold_truncate(series: WalshSeries, theta_min: float) -> tuple[WalshSeries, int]:
    """Drop every entry whose rotation angle magnitude 2|a_j| falls below theta_min.

    Keeps exactly the entries with |a_j| >= theta_min / 2 and returns the
    surviving series together with the number of dropped entries.
    """
    if not theta_min >= 0:
        raise ValueError(f"cutoff must be non-negative, got {theta_min}")
    cut = theta_min / 2.0
    kept = {m: c for m, c in series.terms.items() if abs(c) >= cut}
    return WalshSeries(series.n, kept), len(series.terms) - len(kept)


def l1_norm(series: WalshSeries) -> float:
    """Sum of absolute coefficient values."""
    return float(sum(abs(c) for c in series.terms.values()))

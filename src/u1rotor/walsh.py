"""Sparse Walsh-series algebra on qubit registers.

Indices follow the Paley convention: series entry ``j`` multiplies the
operator that applies sigma^z to every register qubit ``q`` whose bit ``q``
of ``j`` is set.  The diagonals that `fwt` reads and `inverse_fwt` returns
are plain 1-D arrays of ``2^n`` samples in dyadic order: ``values[k]`` is
the eigenvalue on the basis state whose qubit ``q`` carries bit
``n - 1 - q`` of the sample index ``k``.  Together these conventions fix
the transform pair

    a_j = 2^-n * sum_k values[k] * (-1)^popcount(j & reverse_n(k))

(``reverse_n`` reverses an n-bit string).  Only these two functions know the
dyadic order; `series_from_state_values` and `state_values` work in plain
register order, where state index = array index.

A `WalshSeries` of any register width stores mask ``t`` as row ``t`` of a
``(terms, ceil(n/64))`` uint64 array ``words`` (qubit ``q`` is bit ``q % 64``
of word ``q // 64``) and its coefficient as ``coeffs[t]``.  Rows are unique
and sorted as integers; coefficients of magnitude <= `PRUNE_TOL` are never
stored.  Sequency order (`sequency_order`) sorts masks by Gray rank, whose
bit ``i`` is the parity of the mask's bits ``>= i``: masks sharing a most
significant bit form one group, groups ascending, reflected Gray within.
"""

from __future__ import annotations

import math

import numpy as np

from . import lattice

# Storage pruning threshold; far below any angle that survives truncation.
PRUNE_TOL = 1e-15


_WORD = (1 << 64) - 1
_SHIFTS = (1, 2, 4, 8, 16, 32)  # doubling shifts that fold a whole 64-bit word


def _word_count(n: int) -> int:
    return max(1, -(-n // 64))


def _words(masks, n: int) -> np.ndarray:
    """Integer masks in [0, 2^n) as a ``(len(masks), ceil(n/64))`` uint64 array."""
    for m in masks:
        if not 0 <= m < (1 << n):
            raise ValueError(f"mask {m} out of range for n={n}")
    shifts = range(0, 64 * _word_count(n), 64)
    rows = [[(int(m) >> s) & _WORD for s in shifts] for m in masks]
    return np.array(rows, dtype=np.uint64).reshape(len(rows), len(shifts))


class WalshSeries:
    """Sparse Paley-indexed coefficients on ``n`` qubits, from ``{mask: coefficient}``."""

    __slots__ = ("n", "words", "coeffs")

    def __init__(self, n: int, terms=None):
        terms = terms or {}
        words = _words(terms, n)
        coeffs = np.array(list(terms.values()), dtype=float)
        if not np.isfinite(coeffs).all():
            raise ValueError("non-finite Walsh coefficient")
        order = np.lexsort(words.T)
        keep = np.abs(coeffs[order]) > PRUNE_TOL
        self.n, self.words, self.coeffs = n, words[order][keep], coeffs[order][keep]

    @classmethod
    def _of(cls, n: int, words: np.ndarray, coeffs: np.ndarray) -> "WalshSeries":
        """Series over sorted, unique mask rows and coefficients above `PRUNE_TOL`."""
        out = cls.__new__(cls)
        out.n, out.words, out.coeffs = n, words, coeffs
        return out

    def __len__(self) -> int:
        return len(self.coeffs)

    def items(self) -> list[tuple[int, float]]:
        """(mask, coefficient) pairs in ascending mask order."""
        masks = [int.from_bytes(row.tobytes(), "little") for row in self.words.astype("<u8")]
        return list(zip(masks, self.coeffs.tolist()))

    def coefficient(self, mask: int) -> float:
        if not 0 <= mask < (1 << self.n):
            return 0.0
        hit = np.flatnonzero((self.words == _words([mask], self.n)).all(axis=1))
        return float(self.coeffs[hit[0]]) if hit.size else 0.0


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
    if not np.isfinite(work).all():
        raise ValueError("non-finite diagonal sample")
    _fwht_inplace(work)
    work /= 1 << n
    keep = np.flatnonzero(np.abs(work) > PRUNE_TOL)
    return WalshSeries._of(n, keep.astype(np.uint64).reshape(-1, 1), work[keep])


def _reversed_samples(values: np.ndarray, n: int) -> np.ndarray:
    """Fresh copy of ``2^n`` samples with entry k moved to the n-bit reversal of k."""
    return values.reshape((2,) * n).transpose().flatten()


def fwt(values) -> WalshSeries:
    """Forward transform of a 1-D dyadically sampled diagonal into a sparse series."""
    vals = np.asarray(values, dtype=float)
    n = max(vals.size.bit_length() - 1, 0)
    if vals.shape != (1 << n,):
        raise ValueError(f"expected a 1-D array of 2^n samples, got shape {vals.shape}")
    return _series_of_state_order(_reversed_samples(vals, n), n)


def series_from_state_values(values: np.ndarray, n: int) -> WalshSeries:
    """Transform a diagonal given in plain register order (state index = array index)."""
    vals = np.asarray(values, dtype=float)
    if vals.shape != (1 << n,):
        raise ValueError(f"expected {1 << n} values for n={n}, got {vals.shape}")
    return _series_of_state_order(vals.copy(), n)


def inverse_fwt(series: WalshSeries) -> np.ndarray:
    """Reconstruct the dense dyadic diagonal represented by a series."""
    return _reversed_samples(state_values(series), series.n)


def state_values(series: WalshSeries) -> np.ndarray:
    """Dense diagonal of a series in plain register order."""
    n = series.n
    lattice.reserve(f"{n}-qubit series diagonal", (20 << n) + 4096)  # array, 3 half arrays
    coeffs = np.zeros(1 << n)
    coeffs[series.words[:, 0].astype(np.intp)] = series.coeffs
    _fwht_inplace(coeffs)
    return coeffs


def _gray_rank_words(words: np.ndarray) -> np.ndarray:
    """Gray rank of each mask row, word by word: bit i is the parity of the mask's bits >= i."""
    rank = words.copy()
    for s in _SHIFTS:
        rank ^= rank >> s
    parity = rank & 1  # bit 0 of a word's rank is the word's own parity
    above = np.bitwise_xor.accumulate(parity[:, ::-1], axis=1)[:, ::-1] ^ parity
    return rank ^ (above * np.uint64(_WORD))  # odd parity in the words above flips a word


def sequency_order(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row order putting mask words in sequency order, and each sorted row's msb.

    Mask 0 (msb -1) comes first, then the msb groups in ascending order.  The
    msb is read off the bit length of a mask's top nonzero word.
    """
    order = np.lexsort(_gray_rank_words(words).T)
    nonzero = words[order] != 0
    top = words.shape[1] - 1 - np.argmax(nonzero[:, ::-1], axis=1)
    smear = words[order, top]
    for s in _SHIFTS:
        smear |= smear >> s
    msb = 64 * top + np.bitwise_count(smear).astype(np.int64) - 1
    return order, np.where(nonzero.any(axis=1), msb, -1)


def _check_positions(positions: list[int], n: int, width: int) -> None:
    if len(positions) != n:
        raise ValueError(f"need {n} positions for an n={n} series, got {len(positions)}")
    if len(set(positions)) != len(positions):
        raise ValueError(f"position collision in {positions}")
    for p in positions:
        if not 0 <= p < width:
            raise ValueError(f"position {p} outside target register of width {width}")


def _permuted(series: WalshSeries, positions: list[int]) -> WalshSeries:
    """One copy onto the series' own register: a transpose of the dense coefficient array.

    Axis ``a`` of the ``(2,)*n`` view holds mask bit ``n - 1 - a``, so output bit
    ``positions[i]`` reads input axis ``n - 1 - i``; `flatnonzero` sorts the rows.
    """
    n = series.n
    source = (n - 1 - np.argsort(positions))[::-1]  # input axis of each output axis
    dense = np.zeros(1 << n)
    dense[series.words[:, 0].astype(np.intp)] = series.coeffs
    dense = dense.reshape((2,) * n).transpose(source).ravel()
    rows = np.flatnonzero(dense)
    return WalshSeries._of(n, rows.view(np.uint64).reshape(-1, 1), dense[rows])


def embed(series: WalshSeries, positions: list[int], width: int) -> WalshSeries:
    """`embed_copies` at the one support ``positions``."""
    return embed_copies(series, [positions], width)[0]


def embed_copies(series: WalshSeries, supports: list[list[int]], width: int) -> list[WalshSeries]:
    """A copy of the series on ``width`` qubits per support, its mask bit ``i`` at ``positions[i]``.

    Positions must be distinct and inside the register.  Supports that span the
    series' own register are permuted densely (`_permuted`) while that array and
    its transpose leave room in `lattice.MEMORY_BUDGET`; every other call
    scatters the mask bits of all copies at once.  Both move values exactly and
    first reserve their measured peak, 512 B per copy and 4 KiB of objects included.
    """
    n, copies, rows = series.n, len(supports), len(series)
    for positions in supports:
        _check_positions(positions, n, width)
    what = f"embedding of {copies} x {rows} Walsh terms on {width} qubits"
    if n == width and 16 << width < lattice.MEMORY_BUDGET:
        # one copy's array and its transpose, or the array, its rows and their values
        lattice.reserve(what, max(16 << width, (8 << width) + 16 * rows)
                        + 16 * rows * (copies - 1) + 512 * copies + 4096)
        return [_permuted(series, positions) for positions in supports]
    # per row and word: the moved and sorted words, one bit's products and numpy's buffers
    words = _word_count(width)
    lattice.reserve(what, 16 * copies * (words * (2 * rows + n) + 2 * rows + 32) + n * rows + 4096)
    # place[c, w, i]: local bit i's bit in word w of copy c (0 where the shift wraps or passes 63)
    pos = np.array(supports, dtype=np.uint64).reshape(copies, 1, n)
    place = pos - np.arange(0, 64 * words, 64, dtype=np.uint64)[:, None]
    np.left_shift(np.uint64(1), place, out=place)
    bits = np.unpackbits(series.words.astype("<u8", copy=False).view(np.uint8), axis=1,
                         count=n, bitorder="little")
    moved = np.zeros((copies * words, rows), dtype=np.uint64)
    for to, bit in zip(place.reshape(copies * words, n).T, bits.T):
        moved |= to[:, None] * bit.astype(np.uint64)
    moved = moved.reshape(copies, words, rows)
    order = np.lexsort(moved.transpose(1, 0, 2))  # each copy sorted on its own
    moved = moved.transpose(0, 2, 1)[np.arange(copies)[:, None], order]
    return [WalshSeries._of(width, w, c) for w, c in zip(moved, series.coeffs[order])]


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
    for s in series_list:
        if s.n != n:
            raise ValueError(f"register width mismatch in merge: {s.n} != {n}")
    rows = sum(map(len, series_list))  # measured peak: three copies of the words, six of a column
    lattice.reserve(f"merge of {rows} Walsh terms on {n} qubits", 8 * rows * (3 * _word_count(n) + 6))
    words = np.concatenate([s.words for s in series_list])
    # stable: each mask's contributions stay in series order and sum from 0.0
    order = np.lexsort(words.T)
    words = words[order]
    first = np.ones(len(words), dtype=bool)
    first[1:] = (words[1:] != words[:-1]).any(axis=1)
    coeffs = np.concatenate([s.coeffs for s in series_list])[order]
    total = np.bincount(np.cumsum(first) - 1, weights=coeffs)
    keep = np.abs(total) > PRUNE_TOL  # entries cancelling to zero
    return WalshSeries._of(n, words[first][keep], total[keep])


def check_cutoff(theta: float) -> float:
    """``theta``, once checked to be a non-negative, finite rotation-angle cutoff."""
    if not 0 <= theta < math.inf:
        raise ValueError(f"cutoff must be non-negative and finite, got {theta}")
    return theta


def threshold_truncate(series: WalshSeries, theta_min: float) -> tuple[WalshSeries, int]:
    """Drop every nonzero mask whose rotation angle magnitude 2|a_j| falls below theta_min.

    Keeps mask 0, the global phase, and exactly the other entries with
    |a_j| >= theta_min / 2; returns the surviving series together with the
    number of dropped entries.
    """
    check_cutoff(theta_min)
    keep = (np.abs(series.coeffs) >= theta_min / 2.0) | ~series.words.any(axis=1)
    kept = WalshSeries._of(series.n, series.words[keep], series.coeffs[keep])
    return kept, len(series) - len(kept)


def l1_norm(series: WalshSeries) -> float:
    """Sum of absolute coefficient values, added one by one in storage order."""
    return float(sum(np.abs(series.coeffs).tolist()))

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import u1rotor as u
from u1rotor.walsh import embed_copies, sequency_order

from conftest import bf_coefficients, bf_walsh, random_series

# cos(-0.29809 + l*db) grid at n_q=2, the coupling-0.1 prescription width
BMAX_G01_NQ2 = 0.29809001788581807


def _cos_grid_values():
    grid = -BMAX_G01_NQ2 + (BMAX_G01_NQ2 / 2.0) * np.arange(4)
    return np.cos(grid)


def _bit_reverse(value, width: int):
    """Reverse the low ``width`` bits of ``value`` (an int or an integer array)."""
    out = value & 0  # zero of the same type and shape
    for i in range(width):
        out = (out << 1) | ((value >> i) & 1)
    return out


def test_orthogonality_exhaustive():
    for n in range(1, 9):
        big_n = 1 << n
        w = np.array([[bf_walsh(j, k, n) for k in range(big_n)] for j in range(big_n)])
        assert np.array_equal(w @ w.T, big_n * np.eye(big_n, dtype=int))


def test_fwt_constant_vector():
    series = u.fwt(np.full(8, 0.7))
    assert series.items() == [(0, 0.7)]


def test_fwt_matches_bruteforce(rng):
    for n in range(1, 7):
        values = rng.normal(size=1 << n)
        series = u.fwt(values)
        expected = bf_coefficients(values, n)
        dense = np.zeros(1 << n)
        for m, c in series.items():
            dense[m] = c
        assert np.abs(dense - expected).max() < 1e-12


def test_fwt_cosine_coefficients():
    # frozen from the brute-force transform of cos on the prescription grid
    series = u.fwt(_cos_grid_values())
    expected = {0: 0.9834314656912715, 1: -0.011025203864207578,
                2: -0.005481873419686617, 3: -0.011025203864207578}
    assert set(dict(series.items())) == set(expected)
    for m, c in expected.items():
        assert series.coefficient(m) == pytest.approx(c, abs=1e-12)
    mags = sorted(np.abs(series.coeffs), reverse=True)
    paper_table = [9.83e-1, 1.10e-2, 1.10e-2, 5.49e-3]
    for got, ref in zip(mags, paper_table):
        assert abs(got - ref) / ref < 0.01


def test_fwt_rejects_bad_length():
    for bad in (np.zeros(3), np.zeros(0), np.zeros((2, 2))):
        with pytest.raises(ValueError):
            u.fwt(bad)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_values_are_rejected(bad):
    # NaN fails every `> PRUNE_TOL` test, so unchecked it would vanish from a series
    with pytest.raises(ValueError, match="non-finite"):
        u.fwt([bad, 1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="non-finite"):
        u.series_from_state_values(np.array([1.0, bad]), 1)
    with pytest.raises(ValueError, match="non-finite"):
        u.WalshSeries(2, {1: bad, 2: 0.5})
    with pytest.raises(ValueError, match="non-finite"):
        u.exp_walsh(1, bad, 1)


def test_inverse_fwt_examples():
    assert np.allclose(u.inverse_fwt(u.WalshSeries(3, {0: 1.3})), 1.3)
    vals = u.inverse_fwt(u.WalshSeries(2, {3: 1.0}))
    assert np.array_equal(vals, [1.0, -1.0, -1.0, 1.0])


def test_round_trip(rng):
    for n in (1, 4, 8, 12):
        values = rng.normal(size=1 << n)
        back = u.inverse_fwt(u.fwt(values))
        assert np.abs(back - values).max() < 1e-12


def test_fwt_inverse_fwt_series_round_trip(rng):
    series = random_series(rng, 6, density=0.3)
    again = u.fwt(u.inverse_fwt(series))
    assert set(dict(again.items())) == set(dict(series.items()))
    for m, c in series.items():
        assert again.coefficient(m) == pytest.approx(c, abs=1e-12)


@pytest.mark.parametrize("n", range(13))
def test_fwt_is_the_state_order_transform_of_the_reversed_samples(rng, n):
    # the bit-reversal gather is the oracle for the reshape-and-flip inside fwt
    gather = _bit_reverse(np.arange(1 << n), n)
    for _ in range(3):
        values = rng.normal(size=1 << n)
        before = values.copy()
        series = u.fwt(values)
        oracle = u.series_from_state_values(values[gather], n)
        assert series.n == oracle.n == n
        assert np.array_equal(series.words, oracle.words)
        assert np.array_equal(series.coeffs, oracle.coeffs)
        assert np.array_equal(values, before)  # fwt works on a copy
        assert np.array_equal(u.inverse_fwt(series), u.state_values(series)[gather])


def test_state_values_matches_dyadic_reordering(rng):
    n = 5
    values = rng.normal(size=1 << n)
    series = u.fwt(values)
    by_state = u.state_values(series)
    for state in range(1 << n):
        assert by_state[state] == pytest.approx(values[_bit_reverse(state, n)], abs=1e-12)
    # and the plain-register transform agrees with fwt of the permuted input
    series2 = u.series_from_state_values(by_state, n)
    assert np.array_equal(series2.words, series.words)


def test_gray_code():
    # every mask of a register, in sequency order, is the reflected Gray sequence
    for n in (1, 3, 8):
        series = u.WalshSeries(n, dict.fromkeys(range(1 << n), 1.0))  # row i holds mask i
        order, msb = sequency_order(series.words)
        assert order.tolist() == [m ^ (m >> 1) for m in range(1 << n)]
        assert msb.tolist() == [m.bit_length() - 1 for m in order.tolist()]
    # across 64-bit words: msb groups ascending, a group's bare msb last
    top = 1 << 130
    expected = [0, 1, 3, 1 << 64, top | (1 << 64), top | 1, top]
    series = u.WalshSeries(131, dict.fromkeys(expected[::-1], 1.0))
    order, msb = sequency_order(series.words)
    masks = [m for m, _ in series.items()]
    assert [masks[i] for i in order] == expected
    assert msb.tolist() == [-1, 0, 1, 64, 130, 130, 130]


def test_embed():
    series = u.WalshSeries(1, {1: 0.4})
    moved = u.embed(series, [3], 4)
    assert moved.items() == [(8, 0.4)]
    same = u.embed(u.WalshSeries(2, {1: 0.1, 3: 0.2}), [0, 1], 2)
    assert same.items() == [(1, 0.1), (3, 0.2)]
    with pytest.raises(ValueError, match="collision"):
        u.embed(u.WalshSeries(2, {3: 1.0}), [1, 1], 3)
    with pytest.raises(ValueError):
        u.embed(u.WalshSeries(2, {3: 1.0}), [0, 5], 3)


def _bitwise_embedding(series, positions):
    """(mask, coefficient) pairs of ``series`` relocated by Python-int bit moves, sorted."""
    moved = {}
    for mask, coeff in series.items():
        new = 0
        for i, p in enumerate(positions):
            if (mask >> i) & 1:
                new |= 1 << p
        moved[new] = coeff
    return sorted(moved.items())


def test_embed_matches_bitwise_reference(rng):
    # masks wider than one byte, registers wider than 64 qubits, and the last
    # ten cases permute the series' own register
    for case in range(40):
        n = int(rng.integers(1, 21))
        width = int(rng.integers(n, 130)) if case < 30 else n
        positions = [int(p) for p in rng.choice(width, size=n, replace=False)]
        series = random_series(rng, n, density=min(1.0, 300 / (1 << n)))
        assert u.embed(series, positions, width).items() == _bitwise_embedding(series, positions)


def test_embed_copies_match_bitwise_reference(rng):
    # 2-6 copies, registers past 64 and 128 qubits, and (every fourth case) several
    # copies permuted on the series' own register; words and coefficients bit for bit
    for case in range(40):
        n = int(rng.integers(1, 13))
        width = n if case % 4 == 3 else int(rng.integers(n, 200))
        series = random_series(rng, n, density=min(1.0, 200 / (1 << n)))
        supports = [[int(p) for p in rng.choice(width, size=n, replace=False)]
                    for _ in range(int(rng.integers(2, 7)))]
        copies = embed_copies(series, supports, width)
        assert len(copies) == len(supports)
        for copy, positions in zip(copies, supports):
            expected = _bitwise_embedding(series, positions)
            assert copy.n == width and copy.words.shape == (len(expected), -(-width // 64))
            assert copy.items() == expected
            assert copy.coeffs.tobytes() == np.array([c for _, c in expected]).tobytes()
    with pytest.raises(ValueError, match="collision"):
        embed_copies(u.WalshSeries(2, {3: 1.0}), [[0, 1], [2, 2]], 3)
    with pytest.raises(ValueError, match="outside"):
        embed_copies(u.WalshSeries(2, {3: 1.0}), [[0, 1], [2, 3]], 3)
    with pytest.raises(ValueError, match="need 2 positions"):
        embed_copies(u.WalshSeries(2, {3: 1.0}), [[0, 1], [2]], 3)


@st.composite
def _sparse_series(draw, n):
    magnitude = st.floats(1e-6, 1.0)
    coeff = st.builds(lambda m, sign: m * sign, magnitude, st.sampled_from([-1.0, 1.0]))
    return u.WalshSeries(n, draw(st.dictionaries(st.integers(0, (1 << n) - 1), coeff,
                                                 max_size=40)))


@st.composite
def _series_pair(draw):
    n = draw(st.integers(1, 10))
    return draw(_sparse_series(n)), draw(_sparse_series(n))


@st.composite
def _embedding(draw):
    series = draw(_sparse_series(draw(st.integers(1, 10))))
    width = draw(st.integers(series.n, 12))
    positions = draw(st.permutations(range(width)))[: series.n]
    return series, positions, width


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_series_pair())
def test_merge_adds_state_values(pair):
    a, b = pair
    expected = u.state_values(a) + u.state_values(b)
    assert np.abs(u.state_values(u.merge([a, b])) - expected).max() <= 1e-12


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_embedding())
def test_embed_commutes_with_state_values(case):
    # register state x reads the local state whose bit i is bit positions[i] of x
    series, positions, width = case
    states = np.arange(1 << width)
    local = sum(((states >> p) & 1) << i for i, p in enumerate(positions))
    got = u.state_values(u.embed(series, positions, width))
    assert np.abs(got - u.state_values(series)[local]).max() <= 1e-12


def test_merge_union_and_cancellation():
    a = u.WalshSeries(3, {1: 0.5, 2: 0.25})
    b = u.WalshSeries(3, {4: 1.0})
    merged = u.merge([a, b])
    assert merged.items() == [(1, 0.5), (2, 0.25), (4, 1.0)]
    cancelled = u.merge([u.WalshSeries(2, {3: 0.7}), u.WalshSeries(2, {3: -0.7})])
    assert len(cancelled) == 0
    with pytest.raises(ValueError, match="mismatch"):
        u.merge([u.WalshSeries(2, {1: 1.0}), u.WalshSeries(3, {1: 1.0})])


def test_merge_shared_masks_of_overlapping_cosines():
    # cos(b1 + b2) on blocks (0,1) and cos(b2 + b3) on blocks (1,2) share
    # exactly 2^n masks: those supported on block 1 alone, identity included.
    n_q = 2
    grid = -BMAX_G01_NQ2 + (BMAX_G01_NQ2 / 2.0) * np.arange(4)
    joint = np.cos(np.add.outer(grid, grid)).ravel()
    local = u.fwt(joint)
    assert len(local) == 1 << (2 * n_q)  # generic grid: all coefficients survive
    first = u.embed(local, u.embed_positions([0, 1], n_q), 3 * n_q)
    second = u.embed(local, u.embed_positions([1, 2], n_q), 3 * n_q)
    shared = set(dict(first.items())) & set(dict(second.items()))
    assert len(shared) == 1 << n_q
    merged = u.merge([first, second])
    assert len(merged) == 2 * (1 << (2 * n_q)) - (1 << n_q)


def test_threshold_truncate():
    series = u.fwt(_cos_grid_values())
    same, dropped = u.threshold_truncate(series, 0.0)
    assert same.items() == series.items() and dropped == 0
    # mask 0, the global phase, is never dropped
    phase_only, dropped = u.threshold_truncate(series, 3.0)
    assert [m for m, _ in phase_only.items()] == [0] and dropped == 3
    # cutoff just above twice the 1.10e-2 magnitudes: only the identity stays
    kept, dropped = u.threshold_truncate(series, 2.3e-2)
    assert [m for m, _ in kept.items()] == [0] and dropped == 3
    # boundary is inclusive: |a| == theta/2 survives
    kept, dropped = u.threshold_truncate(u.WalshSeries(1, {1: 0.5}), 1.0)
    assert kept.items() == [(1, 0.5)] and dropped == 0
    for bad in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="non-negative and finite"):
            u.threshold_truncate(series, bad)


def test_merge_before_truncate_property(rng):
    for _ in range(50):
        n = int(rng.integers(2, 7))
        a = random_series(rng, n, density=0.5, scale=0.05)
        b = random_series(rng, n, density=0.5, scale=0.05)
        merged = u.merge([a, b])
        theta = float(rng.uniform(0, 0.2))
        kept, _ = u.threshold_truncate(merged, theta)
        kept_masks = {m for m, _ in kept.items()}
        for mask, coeff in merged.items():
            if abs(coeff) >= theta / 2:
                assert mask in kept_masks


def test_l1_norm():
    assert u.l1_norm(u.WalshSeries(4, {0: -2.5})) == 2.5
    series = u.fwt(_cos_grid_values())
    total = sum(abs(c) for c in bf_coefficients(_cos_grid_values(), 2))
    assert u.l1_norm(series) == pytest.approx(total, rel=1e-12)
    assert u.l1_norm(series) == pytest.approx(1.0109637468393733, abs=1e-12)


def test_l1_growth_small_case():
    # cos(sum of three fields) at half-width pi/2 already clears the
    # exponential reference 2^((n-5)/4)
    n_q, n_p = 2, 3
    b = 0.5 * np.pi
    grid = -b + (2 * b / 4) * np.arange(4)
    arg = (
        grid[:, None, None] + grid[None, :, None] + grid[None, None, :]
    )
    series = u.fwt(np.cos(arg).ravel())
    assert u.l1_norm(series) >= 2.0 ** ((n_p * n_q - 5) / 4.0)

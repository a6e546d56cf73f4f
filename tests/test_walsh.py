import numpy as np
import pytest

import u1rotor as u

from conftest import bf_coefficients, bf_walsh, random_series

# cos(-0.29809 + l*db) grid at n_q=2, the coupling-0.1 prescription width
BMAX_G01_NQ2 = 0.29809001788581807


def _cos_grid_values():
    grid = -BMAX_G01_NQ2 + (BMAX_G01_NQ2 / 2.0) * np.arange(4)
    return np.cos(grid)


def test_walsh_value_matches_bit_sum_definition():
    for n in range(1, 5):
        for j in range(1 << n):
            for k in range(1 << n):
                assert u.walsh_value(j, k, n) == bf_walsh(j, k, n)


def test_walsh_value_examples():
    assert u.walsh_value(13, 13, 4) == 1
    for k in range(16):
        assert u.walsh_value(0, k, 4) == 1
    assert [u.walsh_value(1, k, 2) for k in range(4)] == [1, 1, -1, -1]


def test_walsh_value_range_errors():
    with pytest.raises(ValueError):
        u.walsh_value(4, 0, 2)
    with pytest.raises(ValueError):
        u.walsh_value(0, 4, 2)


def test_orthogonality_exhaustive():
    for n in range(1, 9):
        big_n = 1 << n
        w = np.array([[bf_walsh(j, k, n) for k in range(big_n)] for j in range(big_n)])
        assert np.array_equal(w @ w.T, big_n * np.eye(big_n, dtype=int))


def test_fwt_constant_vector():
    series = u.fwt(u.DiagonalValues(3, np.full(8, 0.7)))
    assert series.terms == {0: 0.7}


def test_fwt_matches_bruteforce(rng):
    for n in range(1, 7):
        values = rng.normal(size=1 << n)
        series = u.fwt(u.DiagonalValues(n, values))
        expected = bf_coefficients(values, n)
        dense = np.zeros(1 << n)
        for m, c in series.terms.items():
            dense[m] = c
        assert np.abs(dense - expected).max() < 1e-12


def test_fwt_cosine_coefficients():
    # frozen from the brute-force transform of cos on the prescription grid
    series = u.fwt(u.DiagonalValues(2, _cos_grid_values()))
    expected = {0: 0.9834314656912715, 1: -0.011025203864207578,
                2: -0.005481873419686617, 3: -0.011025203864207578}
    assert set(series.terms) == set(expected)
    for m, c in expected.items():
        assert series.terms[m] == pytest.approx(c, abs=1e-12)
    mags = sorted((abs(c) for c in series.terms.values()), reverse=True)
    paper_table = [9.83e-1, 1.10e-2, 1.10e-2, 5.49e-3]
    for got, ref in zip(mags, paper_table):
        assert abs(got - ref) / ref < 0.01


def test_fwt_rejects_bad_length():
    with pytest.raises(ValueError):
        u.DiagonalValues(2, np.zeros(3))


def test_inverse_fwt_examples():
    assert np.allclose(u.inverse_fwt(u.WalshSeries(3, {0: 1.3})).values, 1.3)
    vals = u.inverse_fwt(u.WalshSeries(2, {3: 1.0})).values
    assert np.array_equal(vals, [1.0, -1.0, -1.0, 1.0])


def test_round_trip(rng):
    for n in (1, 4, 8, 12):
        values = rng.normal(size=1 << n)
        back = u.inverse_fwt(u.fwt(u.DiagonalValues(n, values)))
        assert np.abs(back.values - values).max() < 1e-12


def test_fwt_inverse_fwt_series_round_trip(rng):
    series = random_series(rng, 6, density=0.3)
    again = u.fwt(u.inverse_fwt(series))
    assert set(again.terms) == set(series.terms)
    for m, c in series.terms.items():
        assert again.terms[m] == pytest.approx(c, abs=1e-12)


def test_state_values_matches_dyadic_reordering(rng):
    n = 5
    values = rng.normal(size=1 << n)
    series = u.fwt(u.DiagonalValues(n, values))
    by_state = u.state_values(series)
    for state in range(1 << n):
        assert by_state[state] == pytest.approx(values[u.bit_reverse(state, n)], abs=1e-12)
    # and the plain-register transform agrees with fwt of the permuted input
    series2 = u.series_from_state_values(by_state, n)
    assert set(series2.terms) == set(series.terms)


def test_gray_code():
    assert u.binary_to_gray(0) == 0
    assert u.binary_to_gray(2) == 3
    for m in range(256):
        assert u.gray_rank(u.binary_to_gray(m)) == m
    assert u.sequency_sorted(range(1, 8)) == [1, 3, 2, 6, 7, 5, 4]


def test_embed():
    series = u.WalshSeries(1, {1: 0.4})
    moved = u.embed(series, [3], 4)
    assert moved.terms == {8: 0.4}
    same = u.embed(u.WalshSeries(2, {1: 0.1, 3: 0.2}), [0, 1], 2)
    assert same.terms == {1: 0.1, 3: 0.2}
    with pytest.raises(ValueError, match="collision"):
        u.embed(u.WalshSeries(2, {3: 1.0}), [1, 1], 3)
    with pytest.raises(ValueError):
        u.embed(u.WalshSeries(2, {3: 1.0}), [0, 5], 3)


def test_embed_matches_bitwise_reference(rng):
    # masks wider than one byte and registers wider than 64 qubits
    for _ in range(30):
        n = int(rng.integers(1, 21))
        width = int(rng.integers(n, 130))
        positions = [int(p) for p in rng.choice(width, size=n, replace=False)]
        series = random_series(rng, n, density=min(1.0, 300 / (1 << n)))
        expected = {}
        for mask, coeff in series.terms.items():
            new = 0
            for i in range(n):
                if (mask >> i) & 1:
                    new |= 1 << positions[i]
            expected[new] = coeff
        assert list(u.embed(series, positions, width).terms.items()) == list(expected.items())


def test_merge_union_and_cancellation():
    a = u.WalshSeries(3, {1: 0.5, 2: 0.25})
    b = u.WalshSeries(3, {4: 1.0})
    merged = u.merge([a, b])
    assert merged.terms == {1: 0.5, 2: 0.25, 4: 1.0}
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
    local = u.fwt(u.DiagonalValues(2 * n_q, joint))
    assert len(local) == 1 << (2 * n_q)  # generic grid: all coefficients survive
    first = u.embed(local, u.embed_positions([0, 1], n_q), 3 * n_q)
    second = u.embed(local, u.embed_positions([1, 2], n_q), 3 * n_q)
    shared = set(first.terms) & set(second.terms)
    assert len(shared) == 1 << n_q
    merged = u.merge([first, second])
    assert len(merged) == 2 * (1 << (2 * n_q)) - (1 << n_q)


def test_threshold_truncate():
    series = u.fwt(u.DiagonalValues(2, _cos_grid_values()))
    same, dropped = u.threshold_truncate(series, 0.0)
    assert same.terms == series.terms and dropped == 0
    empty, dropped = u.threshold_truncate(series, 3.0)
    assert len(empty) == 0 and dropped == 4
    # cutoff just above twice the 1.10e-2 magnitudes: only the identity stays
    kept, dropped = u.threshold_truncate(series, 2.3e-2)
    assert set(kept.terms) == {0} and dropped == 3
    # boundary is inclusive: |a| == theta/2 survives
    kept, dropped = u.threshold_truncate(u.WalshSeries(1, {1: 0.5}), 1.0)
    assert kept.terms == {1: 0.5} and dropped == 0
    for bad in (-0.1, float("nan")):
        with pytest.raises(ValueError):
            u.threshold_truncate(series, bad)


def test_merge_before_truncate_property(rng):
    for _ in range(50):
        n = int(rng.integers(2, 7))
        a = random_series(rng, n, density=0.5, scale=0.05)
        b = random_series(rng, n, density=0.5, scale=0.05)
        merged = u.merge([a, b])
        theta = float(rng.uniform(0, 0.2))
        kept, _ = u.threshold_truncate(merged, theta)
        for mask, coeff in merged.terms.items():
            if abs(coeff) >= theta / 2:
                assert mask in kept.terms


def test_l1_norm():
    assert u.l1_norm(u.WalshSeries(4, {0: -2.5})) == 2.5
    series = u.fwt(u.DiagonalValues(2, _cos_grid_values()))
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
    series = u.fwt(u.DiagonalValues(n_p * n_q, np.cos(arg).ravel()))
    assert u.l1_norm(series) >= 2.0 ** ((n_p * n_q - 5) / 4.0)

import json
import math

import numpy as np
import pytest

import u1rotor as u

SQRT2, SQRT3, SQRT6 = math.sqrt(2), math.sqrt(3), math.sqrt(6)


def test_lattice_spec():
    lat = u.LatticeSpec(2, 3)
    assert lat.n_p == 5
    assert len(list(lat.links())) == 12
    with pytest.raises(ValueError):
        u.LatticeSpec(1, 4)
    for n_x, n_y in ((2.5, 2), (2, 3.0), (True, 3), ("2", 2)):
        with pytest.raises(ValueError, match="integers of at least 2"):
            u.LatticeSpec(n_x, n_y)
    assert u.LatticeSpec(np.int64(2), np.uint8(3)).n_p == 5


def test_every_link_joins_two_plaquettes():
    lat = u.LatticeSpec(3, 2)
    for p, q in lat.links():
        assert 0 <= p < 6 and 0 <= q < 6 and p != q


def test_b_max_noncompact_value():
    # direct evaluation of g * 2^nq/2 * sqrt(sqrt(8) pi / 2^nq)
    assert u.b_max_noncompact(0.1, 2) == pytest.approx(0.29809001788581807, abs=1e-15)
    assert u.b_max_noncompact(0.1, 3) == pytest.approx(0.4215629461021624, abs=1e-15)


def test_b_max_noncompact_scalings():
    base = u.b_max_noncompact(0.3, 3)
    assert u.b_max_noncompact(0.6, 3) == pytest.approx(2 * base, rel=1e-14)
    assert u.b_max_noncompact(0.3, 4) == pytest.approx(SQRT2 * base, rel=1e-14)
    with pytest.raises(ValueError):
        u.b_max_noncompact(-1.0, 2)
    # NaN compares False with everything, so `g <= 0` alone let it through
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            u.b_max_noncompact(bad, 2)
        with pytest.raises(ValueError, match="finite"):
            u.digitize(2, 2, bad, "compact")


def test_b_max_compact_clamps():
    assert u.b_max_compact(100.0, 2) == pytest.approx(math.pi)
    small = u.b_max_compact(0.1, 2)
    assert small == pytest.approx(u.b_max_noncompact(0.1, 2))


def test_weaved_b_max_caps():
    weave = u.builtin_weave(3)
    mins = [1 / SQRT3, 1 / SQRT6, 1 / SQRT2]
    caps = [SQRT3 * math.pi, SQRT6 * math.pi, SQRT2 * math.pi]
    for i in range(3):
        col = np.abs(weave.m[:, i])
        assert np.min(col[col > 1e-12]) == pytest.approx(mins[i], abs=1e-12)
        assert u.b_max_compact(100.0, 2, i, weave) == pytest.approx(caps[i], abs=1e-12)
        assert u.b_max_compact(100.0, 2, i, weave) >= math.pi


def test_caps_at_least_pi_for_random_orthogonal_weaves():
    rng = np.random.default_rng(5)
    for n_p in (3, 4, 5):
        q, _ = np.linalg.qr(rng.normal(size=(n_p, n_p)))
        weave = u.weave_from_matrix(q)
        for i in range(n_p):
            # orthonormal rows keep every coefficient at magnitude <= 1
            assert u.b_max_compact(1e6, 2, i, weave) >= math.pi


def test_builtin_weave_matrix():
    weave = u.builtin_weave(3)
    expected = np.array([[SQRT2, -2, 0], [SQRT2, 1, -SQRT3], [SQRT2, 1, SQRT3]]) / SQRT6
    assert np.abs(weave.w - expected).max() < 1e-15
    assert np.abs(weave.w.T @ weave.w - np.eye(3)).max() < 1e-12
    assert np.abs(weave.m[3] - np.array([-SQRT3, 0.0, 0.0])).max() < 1e-12
    with pytest.raises(u.WeaveUnavailableError):
        u.builtin_weave(5)


def test_weave_row_norms():
    for weave in (u.builtin_weave(3), u.identity_weave(4)):
        for row in weave.m[:-1]:
            assert np.linalg.norm(row) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(weave.m[-1]) == pytest.approx(
            np.linalg.norm(weave.w.sum(axis=0)), abs=1e-12
        )
    assert np.linalg.norm(u.identity_weave(4).m[-1]) == pytest.approx(2.0)


def test_load_weave_round_trip(tmp_path):
    path = tmp_path / "weave.json"
    u.save_weave(u.builtin_weave(3), path)
    loaded = u.load_weave(path)
    assert np.abs(loaded.w - u.builtin_weave(3).w).max() < 1e-15

    ident = tmp_path / "identity.json"
    ident.write_text(json.dumps({"n_p": 2, "rows": [[1, 0], [0, 1]]}))
    weave = u.load_weave(ident)
    assert np.array_equal(weave.m, np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]))


def test_load_weave_rejects_non_integer_n_p(tmp_path):
    path = tmp_path / "weave.json"
    rows = u.builtin_weave(3).w.tolist()
    for n_p, rows in ((3.7, rows), (3.0, rows), ("3", rows), (True, [[1.0]]), (None, rows)):
        path.write_text(json.dumps({"n_p": n_p, "rows": rows}))
        with pytest.raises(ValueError, match="n_p must be an integer"):
            u.load_weave(path)


def test_load_weave_rejects_non_orthogonal(tmp_path):
    # a NaN or inf entry fails the check too: `dev > tol` alone is False for NaN
    for bad in (1e-6, math.nan, math.inf):
        rows = u.builtin_weave(3).w.copy()
        rows[0, 0] += bad
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n_p": 3, "rows": rows.tolist()}))
        with pytest.raises(ValueError, match="orthogonal"):
            u.load_weave(path)
        with pytest.raises(ValueError, match="orthogonal"):
            u.weave_from_matrix(rows)


def test_degenerate_weave_column_rejected():
    # plaquette 1 appears in no cosine: cap undefined
    w = np.eye(2)
    weave = u.WeaveMatrix(w, np.array([[1.0, 0.0], [0.0, 0.0], [-1.0, 0.0]]))
    with pytest.raises(ValueError, match="degenerate"):
        u.b_max_compact(10.0, 2, 1, weave)


def test_b_grid():
    d = u.digitize(1, 1, 100.0, "compact")
    assert np.allclose(u.b_grid(d, 0), [-math.pi, 0.0])
    d2 = u.digitize(1, 2, 0.1, "compact")
    assert np.allclose(
        u.b_grid(d2, 0),
        [-0.29809001788581807, -0.14904500894290903, 0.0, 0.14904500894290903],
    )
    assert u.b_grid(d2, 0).max() < d2.b_max[0]


def test_r_grid():
    d = u.digitize(1, 1, 100.0, "compact")  # b_max clamps to pi
    assert np.allclose(u.r_grid(d, 0), [-1.0, 0.0])
    d2 = u.Digitization(2, 1.0, np.array([math.pi / 2]), "compact", "original")
    assert np.allclose(u.r_grid(d2, 0), [-4.0, -2.0, 0.0, 2.0])


def test_grid_spacing_conjugacy():
    for n_q in (1, 2, 3):
        d = u.digitize(2, n_q, 0.7, "non-compact")
        bg, rg = u.b_grid(d, 0), u.r_grid(d, 0)
        db = np.diff(bg)
        dr = np.diff(rg)
        assert np.abs(db - db[0]).max() < 1e-14
        assert np.abs(dr - dr[0]).max() < 1e-14
        assert db[0] * dr[0] == pytest.approx(2 * math.pi / (1 << n_q), rel=1e-12)
        assert rg[(1 << n_q) // 2] == pytest.approx(0.0, abs=1e-12)


def test_digitize_validation():
    with pytest.raises(ValueError, match="weaved basis requires a weave"):
        u.digitize(3, 2, 0.1, "compact", basis="weaved")
    # a weave exists only in the weaved basis: the one passed is the one used
    with pytest.raises(ValueError, match="original basis takes no weave"):
        u.digitize(3, 2, 0.1, "compact", weave=u.builtin_weave(3))
    lat = u.LatticeSpec(2, 2)
    with pytest.raises(ValueError, match="weaved basis requires a weave"):
        u.build_model(lat, u.Digitization(2, 0.1, np.ones(3), "compact", "weaved"))
    with pytest.raises(ValueError, match="original basis takes no weave"):
        u.build_model(lat, u.digitize(3, 2, 0.1, "compact"), u.builtin_weave(3))
    d = u.digitize(3, 2, 50.0, "compact", basis="weaved", weave=u.builtin_weave(3))
    assert np.allclose(d.b_max, [SQRT3 * math.pi, SQRT6 * math.pi, SQRT2 * math.pi])
    with pytest.raises(ValueError, match="pi"):
        u.Digitization(2, 1.0, np.array([4.0]), "compact", "original")
    for g, b in ((math.nan, 1.0), (math.inf, 1.0), (0.0, 1.0), (1.0, math.nan), (1.0, math.inf)):
        with pytest.raises(ValueError, match="finite"):
            u.Digitization(2, g, np.array([b]), "non-compact", "original")


def test_digitization_takes_integer_counts_only():
    # a bool, a float or a string is no qubit or plaquette count, even when it equals one
    for bad in (2.0, True, np.float64(2.0), "2"):
        with pytest.raises(ValueError, match="integer"):
            u.digitize(3, bad, 0.5, "compact")
        with pytest.raises(ValueError, match="integer"):
            u.digitize(bad, 2, 0.5, "compact")
        with pytest.raises(ValueError, match="integer"):
            u.Digitization(bad, 0.5, np.ones(3), "compact", "original")
    for n_q in (0, -1, False):
        with pytest.raises(ValueError, match="at least one qubit"):
            u.Digitization(n_q, 0.5, np.ones(3), "compact", "original")
    assert u.digitize(np.int64(3), np.int32(2), 0.5, "compact").n_states == 4
    # b_max is one value per plaquette, at least one plaquette
    for shape in ((1, 2), (3, 1), ()):
        with pytest.raises(ValueError, match="one-dimensional"):
            u.Digitization(2, 0.5, np.ones(shape), "compact", "original")
    with pytest.raises(ValueError, match="no plaquette"):
        u.Digitization(2, 0.5, np.ones(0), "compact", "original")
    for n_p in (0, -1, np.int64(0)):
        with pytest.raises(ValueError, match="at least one plaquette"):
            u.digitize(n_p, 2, 0.5, "compact")
    assert u.digitize(1, 2, 0.5, "compact").n_p == 1


def test_embed_positions_layout():
    # block order preserved, bits reversed inside each block
    assert u.embed_positions([2, 0], 2) == [5, 4, 1, 0]
    assert u.embed_positions([1], 3) == [5, 4, 3]

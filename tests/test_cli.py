import json

import numpy as np
import pytest

import u1rotor as u
from u1rotor.cli import main


def _read_csv(path):
    meta, header, rows = [], None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            meta.append(line)
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, header, rows


def test_spectrum_oracle_is_g_independent(tmp_path):
    outs = []
    for g in (0.1, 1.0):
        out = tmp_path / f"spec_{g}.csv"
        main(["spectrum", "--lattice", "2x2", "--nq", "2", "--formulation", "non-compact",
              "--g", str(g), "--levels", "4", "--out", str(out)])
        _, header, rows = _read_csv(out)
        outs.append([row[header.index("reference")] for row in rows])
    assert outs[0] == outs[1]


def test_spectrum_compact_self_reference(tmp_path):
    out = tmp_path / "spec.csv"
    main(["spectrum", "--lattice", "2x2", "--nq", "1,2", "--formulation", "compact",
          "--g", "0.2", "--levels", "3", "--out", str(out)])
    _, header, rows = _read_csv(out)
    # the largest width is the reference; only the smaller one is tabulated
    assert {row[header.index("n_q")] for row in rows} == {"1"}
    assert len(rows) == 3


def test_plaquette_table(tmp_path):
    out = tmp_path / "plaq.csv"
    main(["plaquette", "--lattice", "2x2", "--nq", "2", "--g-grid", "0.1:10:3:log",
          "--out", str(out)])
    _, header, rows = _read_csv(out)
    assert header == ["g", "plaquette_original", "plaquette_weaved", "ratio"]
    assert len(rows) == 3
    ratios = [float(r[3]) for r in rows]
    assert all(0.8 < r < 1.2 for r in ratios)


def test_gatecount_zero_cutoff_matches_exact_counts(tmp_path):
    out = tmp_path / "gates.csv"
    main(["gatecount", "--axis", "theta", "--term", "cosine", "--nq", "3", "--g", "0.1",
          "--theta-grid", "0", "--dt", "1.0", "--out", str(out)])
    _, header, rows = _read_csv(out)
    d = u.digitize(1, 3, 0.1, "compact")
    series = u.fwt(u.DiagonalValues(3, np.cos(u.b_grid(d, 0).values)))
    counts = u.gate_count(u.exact_circuit(series))
    assert int(rows[0][header.index("rz")]) == counts["rz"]
    assert int(rows[0][header.index("cnot")]) == counts["cx"]


def test_gatecount_weaved_drops_to_zero(tmp_path):
    out = tmp_path / "sweep.csv"
    main(["gatecount", "--axis", "g", "--term", "magnetic", "--basis", "weaved",
          "--np", "3", "--nq", "2", "--g-grid", "0.1:10:6:log",
          "--theta-min", "1", "--theta-min-policy", "dt", "--dt", "0.25", "--out", str(out)])
    _, header, rows = _read_csv(out)
    cnots = [int(r[header.index("cnot")]) for r in rows]
    assert cnots[-1] == 0
    assert cnots[0] > 0


def test_l1_single_plaquette_value(tmp_path):
    out = tmp_path / "l1.csv"
    main(["l1", "--nq", "2", "--np", "1", "--g", "0.1", "--out", str(out)])
    _, header, rows = _read_csv(out)
    assert float(rows[0][header.index("l1_norm")]) == pytest.approx(1.0109637468393733, rel=1e-10)


def test_evolve_zero_time(tmp_path):
    out = tmp_path / "evolve.csv"
    main(["evolve", "--lattice", "2x2", "--nq", "1", "--g-grid", "0.5:5:3:log",
          "--dt-list", "0.2", "--theta-list", "0", "--t", "0", "--out", str(out)])
    _, header, rows = _read_csv(out)
    assert all(float(r[header.index("survival")]) == 1.0 for r in rows)


def test_export_deterministic_and_consistent(tmp_path):
    out1, out2 = tmp_path / "a.qasm", tmp_path / "b.qasm"
    args = ["export", "--lattice", "2x2", "--nq", "1", "--g", "0.8", "--dt", "0.2",
            "--theta-min", "0.1", "--theta-min-policy", "abs"]
    main(args + ["--out", str(out1)])
    main(args + ["--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()

    circ = u.load_qasm(out1)
    counts = u.gate_count(circ)
    gates = tmp_path / "counts.csv"
    main(["gatecount", "--axis", "theta", "--term", "step", "--lattice", "2x2", "--nq", "1",
          "--g", "0.8", "--dt", "0.2", "--theta-grid", "0.1",
          "--theta-min-policy", "abs", "--out", str(gates)])
    _, header, rows = _read_csv(gates)
    assert int(rows[0][header.index("rz")]) == counts["rz"]
    assert int(rows[0][header.index("cnot")]) == counts["cx"]


def test_export_roundtrip_unitary(tmp_path):
    out = tmp_path / "step.qasm"
    main(["export", "--lattice", "2x2", "--nq", "1", "--g", "0.8", "--dt", "0.2",
          "--out", str(out)])
    lat = u.LatticeSpec(2, 2)
    d = u.digitize(lat.n_p, 1, 0.8, "compact")
    model = u.build_model(lat, d)
    plan = u.TrotterPlan(1, 0.2, 1)
    expected = u.circuit_unitary(u.step_circuit(model, plan))
    got = u.circuit_unitary(u.load_qasm(out))
    assert np.abs(got - expected).max() < 1e-12


def test_json_format_and_meta(tmp_path):
    out = tmp_path / "l1.json"
    main(["l1", "--nq", "2", "--np", "1,2", "--g", "0.1", "--format", "json", "--out", str(out)])
    payload = json.loads(out.read_text())
    assert payload["meta"]["command"] == "l1"
    assert payload["columns"][0] == "n_q"
    assert len(payload["rows"]) == 2


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"nq": "2", "np": "1", "g": 0.1}))
    out_a = tmp_path / "a.csv"
    main(["l1", "--config", str(cfg), "--out", str(out_a)])
    _, header, rows = _read_csv(out_a)
    assert rows[0][header.index("n_q")] == "2"
    # explicit flag wins over the config value
    out_b = tmp_path / "b.csv"
    main(["l1", "--config", str(cfg), "--nq", "3", "--out", str(out_b)])
    _, header, rows = _read_csv(out_b)
    assert rows[0][header.index("n_q")] == "3"


def test_weave_file_flag(tmp_path):
    weave_file = tmp_path / "w.json"
    u.save_weave(u.builtin_weave(3), weave_file)
    out = tmp_path / "plaq.csv"
    main(["plaquette", "--lattice", "2x2", "--nq", "2", "--g-grid", "1:1:1:lin",
          "--weave", str(weave_file), "--out", str(out)])
    _, _, rows = _read_csv(out)
    assert len(rows) == 1


def test_workers_do_not_change_output(tmp_path):
    base, threaded = tmp_path / "w1.csv", tmp_path / "w4.csv"
    args = ["plaquette", "--lattice", "2x2", "--nq", "2", "--g-grid", "0.1:5:4:log"]
    main(args + ["--out", str(base)])
    main(args + ["--workers", "4", "--out", str(threaded)])
    assert base.read_bytes() == threaded.read_bytes()


def test_evolve_weaved_2x3_error_budget(tmp_path):
    # five-plaquette weaved evolution with a user-supplied orthogonal matrix:
    # curves rise toward one with the coupling, and the run combining a large
    # step with a cutoff is at most 1.5x worse than the worse single error
    rng = np.random.default_rng(20230817)
    q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
    weave_file = tmp_path / "w5.json"
    u.save_weave(u.weave_from_matrix(q), weave_file)

    out = tmp_path / "evolve.csv"
    main(["evolve", "--lattice", "2x3", "--nq", "1", "--basis", "weaved",
          "--weave", str(weave_file), "--g-grid", "0.3:10:4:log", "--t", "0.2",
          "--dt-list", "1e-3,0.2", "--theta-list", "0,2",
          "--theta-min-policy", "dt", "--out", str(out)])
    _, header, rows = _read_csv(out)
    runs = {}
    for row in rows:
        g = float(row[header.index("g")])
        key = (float(row[header.index("dt")]), float(row[header.index("theta_min")]))
        runs.setdefault(g, {})[key] = float(row[header.index("survival")])
    gs = sorted(runs)
    for g in gs:
        exact = runs[g][(1e-3, 0.0)]
        err_theta = abs(runs[g][(1e-3, 2.0)] - exact)
        err_dt = abs(runs[g][(0.2, 0.0)] - exact)
        err_both = abs(runs[g][(0.2, 2.0)] - exact)
        assert err_both <= 1.5 * max(err_theta, err_dt) + 1e-12
    assert runs[gs[-1]][(1e-3, 0.0)] > 0.95 > runs[gs[0]][(1e-3, 0.0)]


def test_plaquette_scan_mode(tmp_path):
    out = tmp_path / "scan.csv"
    main(["plaquette", "--lattice", "2x2", "--nq", "2", "--g-grid", "1:1:1:lin",
          "--scan-bmax", "--out", str(out)])
    _, header, rows = _read_csv(out)
    assert "scan_scale" in header and "scan_diff" in header
    ratio = float(rows[0][header.index("ratio")])
    scan_diff = float(rows[0][header.index("scan_diff")])
    original = float(rows[0][header.index("plaquette_original")])
    # the scanned width matches the bases at least as well as the prescription
    assert scan_diff <= abs(ratio - 1.0) * abs(original) + 1e-12


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"frobnicate": 1}))
    with pytest.raises(SystemExit):
        main(["l1", "--config", str(cfg)])


def test_config_grid_with_explicit_grid(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"g_grid": "0.1:1:3:log"}))
    out = tmp_path / "sweep.csv"
    main(["gatecount", "--config", str(cfg), "--axis", "g", "--term", "magnetic", "--np", "2",
          "--nq", "1", "--g-grid", "0.5:1:2:lin", "--out", str(out)])
    _, header, rows = _read_csv(out)
    assert [float(r[header.index("g")]) for r in rows] == [0.5, 1.0]


def test_config_value_read_as_flag_text(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"g": "0.5"}))
    args = ["gatecount", "--axis", "theta", "--term", "cosine", "--nq", "3", "--theta-grid", "0"]
    from_config, from_flag = tmp_path / "a.csv", tmp_path / "b.csv"
    main(args + ["--config", str(cfg), "--out", str(from_config)])
    main(args + ["--g", "0.5", "--out", str(from_flag)])
    assert _read_csv(from_config)[1:] == _read_csv(from_flag)[1:]


def test_config_workers_reach_the_sweep(tmp_path, monkeypatch):
    import u1rotor.cli as cli

    seen = []
    pmap = cli._pmap

    def spy(fn, items, workers):
        seen.append(workers)
        return pmap(fn, items, workers)

    monkeypatch.setattr(cli, "_pmap", spy)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"workers": 2}))
    main(["gatecount", "--config", str(cfg), "--term", "cosine", "--nq", "2",
          "--theta-grid", "0", "--out", str(tmp_path / "a.csv")])
    main(["gatecount", "--config", str(cfg), "--workers", "1", "--term", "cosine", "--nq", "2",
          "--theta-grid", "0", "--out", str(tmp_path / "b.csv")])
    assert seen == [2, 1]


@pytest.mark.parametrize("entry", [{"order": 3}, {"g": "abc"}, {"nq": "two"}])
def test_config_values_checked_like_flags(tmp_path, entry):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(entry))
    out = tmp_path / "a.csv"
    with pytest.raises(SystemExit) as exc:
        main(["gatecount", "--config", str(cfg), "--term", "magnetic", "--np", "2",
              "--theta-grid", "0", "--out", str(out)])
    assert exc.value.code != 0
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    # a NaN cutoff used to drop every term and print 0 Rz / 0 CNOT
    ["gatecount", "--term", "cosine", "--axis", "theta", "--nq", "4", "--g", "0.5",
     "--theta-grid", "0,nan"],
    # dt = 0.15 does not divide t = 0.2; one step used to run under a t = 0.2 header
    ["evolve", "--lattice", "2x2", "--nq", "1", "--g-grid", "1:1:1:lin", "--t", "0.2",
     "--dt-list", "0.15"],
    # the single width is the compact reference, which left an empty table
    ["spectrum", "--lattice", "2x2", "--nq", "2", "--formulation", "compact"],
    # 24 qubits, above the term limit: a one-line message, not a traceback
    ["gatecount", "--term", "maximal", "--axis", "np", "--np", "8", "--nq", "3"],
])
def test_bad_input_exits_without_table(tmp_path, argv):
    out = tmp_path / "table.csv"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(out)])
    assert exc.value.code not in (0, None)
    assert not out.exists()

import argparse
import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

import u1rotor as u
from u1rotor.cli import build_parser, main


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
    series = u.fwt(np.cos(u.b_grid(d, 0)))
    counts = u.gate_count(u.exact_circuit(series))
    assert int(rows[0][header.index("rz")]) == counts["rz"]
    assert int(rows[0][header.index("cnot")]) == counts["cx"]


@pytest.mark.parametrize("term", ["electric", "magnetic"])
def test_gatecount_wide_noncompact_matches_circuit(tmp_path, term):
    # 8x8 at n_q = 2 is a 126-qubit register, two 64-bit words per mask
    out = tmp_path / "gates.csv"
    assert main(["gatecount", "--axis", "theta", "--term", term, "--lattice", "8x8",
                 "--formulation", "non-compact", "--nq", "2", "--g", "1.2", "--dt", "0.5",
                 "--theta-grid", "0.004", "--out", str(out)]) == 0
    _, header, rows = _read_csv(out)
    model = u.build_model(u.LatticeSpec(8, 8), u.digitize(63, 2, 1.2, "non-compact"))
    series = u.hamiltonian_series(getattr(model, term), model.digitization, -0.5)
    counts = u.gate_count(u.truncated_circuit(series, 0.004))
    assert series.n == 126 and counts["cx"] > 0
    assert int(rows[0][header.index("rz")]) == counts["rz"]
    assert int(rows[0][header.index("cnot")]) == counts["cx"]


STEP_CASES = [("2x2", order, formulation, basis) for order in (1, 2)
              for formulation in ("compact", "non-compact") for basis in ("original", "weaved")]
STEP_CASES += [("8x8", order, "non-compact", "original") for order in (1, 2)]  # 126 qubits


@pytest.mark.parametrize("lattice, order, formulation, basis", STEP_CASES)
def test_gatecount_step_matches_step_circuit(tmp_path, lattice, order, formulation, basis):
    # step counts add up the factors' series counts; the synthesized step is the oracle
    thetas = [0.0, 0.001, 0.05]
    out = tmp_path / "gates.json"
    assert main(["gatecount", "--axis", "theta", "--term", "step", "--lattice", lattice,
                 "--nq", "2", "--g", "0.7", "--dt", "0.2", "--order", str(order),
                 "--formulation", formulation, "--basis", basis,
                 "--theta-grid", ",".join(map(str, thetas)), "--format", "json",
                 "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["rows"]
    lat = u.LatticeSpec(*map(int, lattice.split("x")))
    weave = u.builtin_weave(lat.n_p) if basis == "weaved" else None
    model = u.build_model(lat, u.digitize(lat.n_p, 2, 0.7, formulation, basis, weave), weave)
    for theta, row in zip(thetas, rows):
        policy = u.ThetaPolicy("abs", theta)
        counts = u.gate_count(u.step_circuit(model, u.TrotterPlan(order, 0.2, 1, policy, policy)))
        assert counts["cx"] > 0
        assert row[:3] == [theta, counts["rz"], counts["cx"]]


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


# SHA-256 of evolve tables over 2 couplings, 3 step sizes (0.1 twice) and a repeated
# cutoff: byte drift in the evolution, the sweep's sharing or the row order changes them
GOLDEN_EVOLVE_TABLES = [
    ((1, "json"), "775b412b2f2b6774fae31e0a08b7578fe2f1dfad9d2285598f466a998586607b"),
    ((1, "csv"), "b61705f58fa750f3a3280e319e06e37520442f0bfc0e754b6e07776065780008"),
    ((2, "json"), "cd4a2eac4ba8e367f86147768183500f9e2056cb6bd161f4e178b4b942420817"),
    ((2, "csv"), "80023c0d216873382327fd56bbaa5ae8e29b84fb418ef15d701fd877c03aeef1"),
]


@pytest.mark.parametrize("case, digest", GOLDEN_EVOLVE_TABLES)
def test_evolve_table_bytes_are_pinned(tmp_path, case, digest):
    order, fmt = case
    for workers in ("1", "2"):
        out = tmp_path / f"evolve_{workers}.{fmt}"
        main(["evolve", "--lattice", "2x2", "--nq", "2", "--g-grid", "0.5:2:2:log", "--t", "0.2",
              "--order", str(order), "--dt-list", "0.2,0.1,0.05,0.1", "--theta-list", "0,0.5,0.5",
              "--format", fmt, "--workers", workers, "--out", str(out)])
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


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
    # "command" and "func" sit on the parsed namespace but are not options: they
    # used to end in argparse's multi-line usage error instead of this message
    cfg = tmp_path / "cfg.json"
    for key in ("frobnicate", "command", "func"):
        cfg.write_text(json.dumps({key: "x"}))
        with pytest.raises(SystemExit) as exc:
            main(["l1", "--config", str(cfg)])
        assert exc.value.code == f"u1rotor l1: config key {key!r} is not an option of l1"


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


def test_parser_built_once_gives_the_same_tables(tmp_path):
    # main keeps one parser; a --config run parses twice with it and leaves nothing behind
    import u1rotor.cli as cli

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"term": "cosine", "nq": 3, "theta_grid": [0, 0.01, 0.1]}))
    flags = ["--term", "cosine", "--nq", "3", "--theta-grid", "0,0.01,0.1"]
    runs = [["--config", str(cfg)], flags, ["--config", str(cfg)], []]
    texts = []
    for i, extra in enumerate(runs):
        out = tmp_path / f"{i}.csv"
        main(["gatecount", *extra, "--out", str(out)])
        texts.append(out.read_text().splitlines()[3:])
    assert texts[0] == texts[1] == texts[2] != texts[3]
    assert len(texts[3]) == 14  # the default magnetic sweep: header and 13 rows
    assert cli._parser() is cli._parser()


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


def test_gatecount_reads_the_weave_file_once(tmp_path, monkeypatch):
    import u1rotor.cli as cli

    reads = []
    load = cli.load_weave

    def spy(path):
        reads.append(path)
        return load(path)

    monkeypatch.setattr(cli, "load_weave", spy)
    weave_file = tmp_path / "w3.json"
    u.save_weave(u.builtin_weave(3), weave_file)
    main(["gatecount", "--term", "magnetic", "--basis", "weaved", "--nq", "2",
          "--weave", str(weave_file), "--out", str(tmp_path / "a.csv")])
    # one read for the 13 points of the default theta grid
    assert reads == [str(weave_file)]
    _, _, rows = _read_csv(tmp_path / "a.csv")
    assert len(rows) == 13


@pytest.mark.parametrize("term, builder, argv", [
    ("magnetic", "hamiltonian_series", ["--np", "3"]),
    ("step", "hamiltonian_series", ["--lattice", "2x2", "--order", "2"]),
])
def test_gatecount_theta_sweep_builds_one_series(tmp_path, monkeypatch, term, builder, argv):
    # the default 13-point theta grid is counted from one series: the compact
    # magnetic factor's (the step's electric factor is counted from its form)
    import u1rotor.trotter as trotter

    builds = []
    build = getattr(trotter, builder)

    def spy(*args):
        builds.append(args)
        return build(*args)

    monkeypatch.setattr(trotter, builder, spy)
    base = ["gatecount", "--axis", "theta", "--term", term, "--nq", "2", "--g", "0.7",
            "--dt", "0.2", *argv, "--format", "json"]
    out = tmp_path / "sweep.json"
    main(base + ["--out", str(out)])
    rows = json.loads(out.read_text())["rows"]
    assert len(builds) == 1 and len(rows) == 13
    # each row is the count of a run at its cutoff alone
    for row in rows:
        alone = tmp_path / "alone.json"
        main(base + ["--theta-grid", repr(row[0]), "--out", str(alone)])
        assert json.loads(alone.read_text())["rows"] == [row]


@pytest.mark.parametrize("argv", [
    ["--term", "electric", "--lattice", "2x2", "--basis", "weaved"],
    ["--term", "electric", "--lattice", "3x3", "--formulation", "non-compact"],
    ["--term", "magnetic", "--np", "3", "--formulation", "non-compact", "--basis", "weaved"],
    ["--term", "step", "--lattice", "2x2", "--formulation", "non-compact", "--order", "2"],
])
def test_gatecount_counts_quadratic_factors_without_a_series(tmp_path, monkeypatch, argv):
    # electric and non-compact factors are counted from their quadratic forms alone
    import u1rotor.cli as cli
    import u1rotor.trotter as trotter

    def refuse(*args):
        raise AssertionError("a quadratic factor's count built a model or a series")

    for module, builder in [(cli, "build_model"), (cli, "hamiltonian_series"),
                            (trotter, "hamiltonian_series"), (trotter, "factor_series")]:
        monkeypatch.setattr(module, builder, refuse)
    out = tmp_path / "sweep.json"
    main(["gatecount", "--axis", "theta", "--nq", "2", "--g", "0.7", "--dt", "0.2", *argv,
          "--format", "json", "--out", str(out)])
    assert len(json.loads(out.read_text())["rows"]) == 13


def test_gatecount_counts_a_32x32_step(tmp_path):
    # 2,046 qubits, above any series: q_b = I + J couples every bit pair, and the
    # electric factor every bit pair of the 2,044 neighbour pairs, each plaquette's
    # own pair, and the bits of the 4 neighbours of the eliminated plaquette
    out = tmp_path / "step.json"
    main(["gatecount", "--axis", "theta", "--term", "step", "--lattice", "32x32",
          "--formulation", "non-compact", "--nq", "2", "--g", "1", "--order", "2",
          "--theta-grid", "0", "--format", "json", "--out", str(out)])
    n = 2046
    electric = {"rz": 4 * 2044 + 1023 + 2 * 4, "cx": 2 * (4 * 2044 + 1023)}
    magnetic = {"rz": n + n * (n - 1) // 2, "cx": n * (n - 1)}
    row = json.loads(out.read_text())["rows"][0]
    assert row[1:3] == [2 * electric["rz"] + magnetic["rz"], 2 * electric["cx"] + magnetic["cx"]]


def test_evolve_builds_one_model_per_coupling_and_one_series_per_step(tmp_path, monkeypatch):
    # 3 couplings x 3 step sizes (0.1 twice) x 3 cutoffs (0.5 twice): 27 rows from 3 models
    # and 6 factor series pairs, each row the survival of a run at its point alone
    import u1rotor.cli as cli
    import u1rotor.simulator as simulator

    calls = {"_model": [], "factor_series": []}
    for owner, name in ((cli, "_model"), (simulator, "factor_series")):
        def spy(*args, _build=getattr(owner, name), _seen=calls[name]):
            _seen.append(args)
            return _build(*args)
        monkeypatch.setattr(owner, name, spy)
    base = ["evolve", "--lattice", "2x2", "--nq", "1", "--t", "0.2", "--order", "2",
            "--format", "json"]
    out = tmp_path / "sweep.json"
    main(base + ["--g-grid", "0.5:2:3:log", "--dt-list", "0.1,0.05,0.1",
                 "--theta-list", "0,0.5,0.5", "--out", str(out)])
    rows = json.loads(out.read_text())["rows"]
    assert (len(calls["_model"]), len(calls["factor_series"]), len(rows)) == (3, 6, 27)
    for row in rows[::4]:
        alone = tmp_path / "alone.json"
        main(base + ["--g-grid", f"{row[0]!r}:{row[0]!r}:1:lin", "--dt-list", repr(row[1]),
                     "--theta-list", repr(row[2]), "--out", str(alone)])
        assert json.loads(alone.read_text())["rows"] == [row]


def test_gatecount_electric_checks_the_weave_size(tmp_path):
    # every term names a weave of the wrong size the same way, electric included
    weave_file = tmp_path / "w5.json"
    u.save_weave(u.weave_from_matrix(np.eye(5)), weave_file)
    out = tmp_path / "a.csv"
    for term in ("electric", "magnetic", "step"):
        with pytest.raises(SystemExit) as exc:
            main(["gatecount", "--term", term, "--lattice", "2x2", "--nq", "2", "--basis",
                  "weaved", "--weave", str(weave_file), "--out", str(out)])
        assert exc.value.code == "u1rotor gatecount: weave is 5x5 but lattice has n_p=3"
    assert not out.exists()


def test_gatecount_rejects_a_weave_file_on_the_np_axis(tmp_path, monkeypatch):
    # a weave file fits one plaquette count: the sweep is refused before any file is read
    import u1rotor.cli as cli

    reads = []
    monkeypatch.setattr(cli, "load_weave", reads.append)
    out = tmp_path / "a.csv"
    with pytest.raises(SystemExit) as exc:
        main(["gatecount", "--term", "maximal", "--axis", "np", "--np", "2:5", "--nq", "2",
              "--basis", "weaved", "--weave", str(tmp_path / "w5.json"), "--out", str(out)])
    assert exc.value.code == "u1rotor gatecount: a --weave file fits one n_p: no --weave with --axis np"
    assert reads == []
    assert not out.exists()


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


# a weave file on the original basis: the missing file shows that nothing is read
ORIGINAL_WITH_WEAVE = [
    ["spectrum", "--lattice", "2x2", "--nq", "1,2", "--levels", "4", "--weave",
     "{tmp}/missing.json"],
    ["gatecount", "--term", "step", "--lattice", "2x2", "--nq", "1", "--weave",
     "{tmp}/missing.json"],
    ["gatecount", "--term", "magnetic", "--nq", "1", "--weave", "{tmp}/missing.json"],
    ["evolve", "--lattice", "2x2", "--nq", "1", "--g-grid", "1:1:1:lin", "--weave",
     "{tmp}/missing.json"],
    ["export", "--lattice", "2x2", "--nq", "1", "--weave", "{tmp}/missing.json"],
]
# the weaved basis on 2x3 (n_p = 5), which has no built-in weave
WEAVED_WITHOUT_WEAVE = [
    ["spectrum", "--lattice", "2x3", "--nq", "1", "--levels", "4", "--basis", "weaved"],
    ["plaquette", "--lattice", "2x3", "--nq", "1", "--g-grid", "1:1:1:lin"],
    ["evolve", "--lattice", "2x3", "--nq", "1", "--g-grid", "1:1:1:lin", "--basis", "weaved"],
    ["export", "--lattice", "2x3", "--nq", "1", "--basis", "weaved"],
    ["gatecount", "--term", "magnetic", "--np", "5", "--nq", "1", "--basis", "weaved"],
]
# t / dt beyond an index-sized integer: round(inf) or a step string too long to build
STEP_OVERFLOW = [
    ["evolve", "--lattice", "2x2", "--nq", "1", "--g-grid", "1:1:1:lin", "--t", "1e300",
     "--dt-list", "1e-10"],
    ["evolve", "--lattice", "2x2", "--nq", "1", "--g-grid", "1:1:1:lin", "--t", "0.2",
     "--dt-list", "1e-300"],
]

# flags that the chosen gatecount term cannot honour: the cosine term is the
# compact cosine of the original basis, and the maximal term is compact
IGNORED_BY_TERM = [
    ["gatecount", "--term", "cosine", "--nq", "2", "--basis", "weaved", "--theta-grid", "0"],
    ["gatecount", "--term", "cosine", "--nq", "2", "--basis", "weaved", "--theta-grid", "0",
     "--weave", "{tmp}/missing.json"],
    ["gatecount", "--term", "cosine", "--formulation", "non-compact"],
    ["gatecount", "--term", "maximal", "--formulation", "non-compact"],
]

# message fragments that a bad-input case must name
# weave rows holding an entry that is no JSON number, by file name
ILL_TYPED_ROWS = {
    "dict": [[{}, 0, 0], [0, 1, 0], [0, 0, 1]],
    "bool": [[True, False, False], [False, True, False], [False, False, True]],
    "null": [[None, 0, 0], [0, 1, 0], [0, 0, 1]],
}
ILL_TYPED_WEAVES = {name: ["gatecount", "--term", "magnetic", "--np", "3", "--nq", "2", "--basis",
                           "weaved", "--weave", f"{{tmp}}/{name}_weave.json"]
                    for name in ILL_TYPED_ROWS}
# weave rows holding an integer beyond the float range
HUGE_WEAVE = ["gatecount", "--term", "magnetic", "--np", "3", "--nq", "2", "--basis", "weaved",
              "--weave", "{tmp}/huge_weave.json"]

BAD_INPUT_MESSAGES = {
    ("l1", "--nq", "3", "--np", "6", "--qubit-limit", "16"): "above --qubit-limit 16",
    ("l1", "--nq", "17"): "above --qubit-limit 16",
    ("gatecount", "--term", "electric", "--lattice", "2x2", "--nq", "1100"):
        "need n_q from 1 to 1023 qubits, got n_q=1100",
    ("gatecount", "--term", "magnetic", "--np", "3", "--nq", "1024", "--formulation",
     "non-compact"): "need n_q from 1 to 1023 qubits, got n_q=1024",
    ("product-scaling", "--nq", "9", "--np", "3"):
        f"27-qubit product needs {64 << 27} B, over the {1 << 31} B budget",
    ("gatecount", "--term", "maximal", "--axis", "np", "--np", "9", "--nq", "3"):
        f"27-qubit term diagonal needs {32 << 27} B, over the {1 << 31} B budget",
    **{tuple(argv): f"{name}_weave.json: rows must hold numbers only"
       for name, argv in ILL_TYPED_WEAVES.items()},
    tuple(HUGE_WEAVE): "huge_weave.json: rows hold a number beyond the float range",
    ("evolve", "--lattice", "2x2", "--nq", "1", "--g-grid", "1:1:1:lin",
     "--theta-list", "inf"): "cutoff must be non-negative and finite",
    ("export", "--lattice", "2x2", "--nq", "1", "--theta-min", "inf"):
        "cutoff must be non-negative and finite",
    ("gatecount", "--term", "cosine", "--axis", "theta", "--nq", "2", "--theta-grid", "inf"):
        "cutoff must be non-negative and finite",
    ("plaquette", "--lattice", "2x2", "--nq", "2", "--g-grid", "1:1:1:lin",
     "--weave", "{tmp}/float_np_weave.json"): "n_p must be an integer",
    ("plaquette", "--lattice", "2x2", "--nq", "2", "--g-grid", "1:1:1:lin",
     "--weave", "{tmp}/bool_np_weave.json"): "n_p must be an integer",
    ("gatecount", "--term", "step", "--lattice", "2x2", "--nq", "1", "--np", "7"):
        "step gate counts need --lattice matching n_p",
    ("gatecount", "--term", "step", "--lattice", "2x2", "--axis", "np", "--np", "2:4"):
        "step gate counts need --lattice matching n_p",
    ("gatecount", "--term", "cosine", "--axis", "np", "--np", "2:4"): "span one plaquette",
    ("gatecount", "--term", "cosine", "--nq", "2", "--np", "3", "--theta-grid", "0"):
        "span one plaquette",
    ("gatecount", "--term", "magnetic", "--lattice", "2x2", "--np", "5", "--nq", "1",
     "--theta-grid", "0"): "magnetic gate counts need --lattice matching n_p",
    ("gatecount", "--term", "maximal", "--lattice", "2x2", "--axis", "np", "--np", "2:4"):
        "maximal gate counts need --lattice matching n_p",
    ("gatecount", "--term", "cosine", "--lattice", "4x4"): "span one plaquette",
    ("gatecount", "--term", "electric", "--lattice", "2x2", "--nq", "2", "--order", "2",
     "--theta-grid", "0,0.1"): "--order 2 applies to --term step only",
    **{tuple(argv): "--weave applies only with --basis weaved" for argv in ORIGINAL_WITH_WEAVE},
    **{tuple(argv): "no built-in weave for n_p=5" for argv in WEAVED_WITHOUT_WEAVE},
    **{tuple(argv): "too many steps" for argv in STEP_OVERFLOW},
    **{tuple(argv): "no --basis weaved" for argv in IGNORED_BY_TERM[:2]},
    **{tuple(argv): "compact only: no --formulation non-compact" for argv in IGNORED_BY_TERM[2:]},
}


@pytest.mark.parametrize("argv", [
    # a NaN cutoff used to drop every term and print 0 Rz / 0 CNOT
    ["gatecount", "--term", "cosine", "--axis", "theta", "--nq", "4", "--g", "0.5",
     "--theta-grid", "0,nan"],
    # dt = 0.15 does not divide t = 0.2; one step used to run under a t = 0.2 header
    ["evolve", "--lattice", "2x2", "--nq", "1", "--g-grid", "1:1:1:lin", "--t", "0.2",
     "--dt-list", "0.15"],
    # the single width is the compact reference, which left an empty table
    ["spectrum", "--lattice", "2x2", "--nq", "2", "--formulation", "compact"],
    # 27 qubits, above the memory budget's 26-qubit terms: a one-line message, not a traceback
    ["gatecount", "--term", "maximal", "--axis", "np", "--np", "9", "--nq", "3"],
    # a NaN coupling made every coefficient NaN, so every term was pruned
    ["gatecount", "--term", "cosine", "--axis", "theta", "--nq", "2", "--g", "nan",
     "--theta-grid", "0"],
    # a NaN step scaled the series by NaN outside any TrotterPlan
    ["gatecount", "--term", "magnetic", "--axis", "theta", "--np", "2", "--nq", "2",
     "--dt", "nan", "--theta-grid", "0"],
    # a zero step died in t / dt with a ZeroDivisionError traceback
    ["evolve", "--lattice", "2x2", "--nq", "1", "--g-grid", "1:1:1:lin", "--t", "0.2",
     "--dt-list", "0"],
    # empty ranges and grids used to fall back to defaults or write header-only tables
    ["gatecount", "--axis", "nq", "--term", "cosine", "--nq", "5:2"],
    ["gatecount", "--axis", "np", "--np", "4:2"],
    ["l1", "--nq", "3:2"],
    ["spectrum", "--lattice", "2x2", "--nq", "3:2"],
    ["evolve", "--lattice", "2x2", "--nq", "1", "--g-grid", "0.5:1:0"],
    # an infinite endpoint leaked a RuntimeWarning and then reported g=nan
    ["plaquette", "--lattice", "2x2", "--nq", "2", "--g-grid", "1:inf:2:lin"],
    ["plaquette", "--lattice", "2x2", "--nq", "2", "--g-grid", "nan:2:2:log"],
    # unreadable config and weave files used to end in a traceback
    ["l1", "--config", "{tmp}/missing.json"],
    ["l1", "--config", "{tmp}/malformed.json"],
    ["l1", "--config", "{tmp}/list.json"],
    ["plaquette", "--lattice", "2x2", "--nq", "2", "--weave", "{tmp}/missing.json"],
    ["plaquette", "--lattice", "2x2", "--nq", "2", "--weave", "{tmp}/empty.json"],
    # a NaN weave entry passed the orthogonality check and silently dropped terms
    ["gatecount", "--axis", "g", "--term", "magnetic", "--basis", "weaved", "--np", "3",
     "--nq", "2", "--g-grid", "1:1:1:lin", "--weave", "{tmp}/nan_weave.json"],
    ["evolve", "--lattice", "2x2", "--nq", "1", "--basis", "weaved", "--g-grid", "1:1:1:lin",
     "--weave", "{tmp}/nan_weave.json"],
    # the 2x2 n_q=1 matrix has 8 levels: 10 died in an IndexError, -2 wrote a
    # header-only table, and 0 silently meant 10
    ["spectrum", "--lattice", "2x2", "--nq", "1", "--levels", "10"],
    ["spectrum", "--lattice", "2x2", "--nq", "1", "--levels", "-2"],
    ["spectrum", "--lattice", "2x2", "--nq", "2", "--levels", "0"],
    # --dense-limit is an unknown flag (the dense cap is a constant); a zero
    # --qubit-limit silently became the default 16
    ["spectrum", "--lattice", "2x2", "--nq", "1", "--levels", "4", "--dense-limit", "0"],
    ["l1", "--nq", "2", "--qubit-limit", "0"],
    # without a lattice or widths these died in an AttributeError or a TypeError
    ["spectrum", "--nq", "2"],
    ["plaquette", "--nq", "2", "--g-grid", "1:1:1:lin"],
    ["evolve", "--nq", "1", "--g-grid", "1:1:1:lin"],
    ["export", "--nq", "1"],
    ["spectrum", "--lattice", "2x2"],
    # 18 qubits above --qubit-limit 16 were dropped, leaving a header-only table
    ["l1", "--nq", "3", "--np", "6", "--qubit-limit", "16"],
    # single-valued flags silently kept one value of a list
    ["plaquette", "--lattice", "2x2", "--nq", "2,3", "--g-grid", "1:1:1:lin"],
    ["evolve", "--lattice", "2x2", "--nq", "1,2", "--g-grid", "1:1:1:lin"],
    ["export", "--lattice", "2x2", "--nq", "1,2"],
    ["product-scaling", "--nq", "2,9", "--np", "3,2"],
    ["gatecount", "--axis", "theta", "--term", "cosine", "--nq", "2,3", "--theta-grid", "0"],
    ["gatecount", "--axis", "nq", "--nq", "1:2", "--np", "2,3"],
    # flags and config keys a subcommand does not read were accepted and ignored
    ["evolve", "--lattice", "2x2", "--nq", "1", "--g-grid", "1:1:1:lin", "--dt", "0.1"],
    ["l1", "--nq", "2", "--np", "1", "--lattice", "2x2"],
    ["l1", "--nq", "2", "--np", "1", "--config", "{tmp}/lattice.json"],
    # a zero width died in a ZeroDivisionError traceback
    ["l1", "--nq", "0"],
    # an infinite cutoff dropped every term (evolve wrote survival 1, export a
    # step of Fourier blocks alone) or died in a math domain error (gatecount)
    ["evolve", "--lattice", "2x2", "--nq", "1", "--g-grid", "1:1:1:lin", "--theta-list", "inf"],
    ["export", "--lattice", "2x2", "--nq", "1", "--theta-min", "inf"],
    ["gatecount", "--term", "cosine", "--axis", "theta", "--nq", "2", "--theta-grid", "inf"],
    # a weave file's n_p of 3.7 or true was read as 3 or 1
    ["plaquette", "--lattice", "2x2", "--nq", "2", "--g-grid", "1:1:1:lin",
     "--weave", "{tmp}/float_np_weave.json"],
    ["plaquette", "--lattice", "2x2", "--nq", "2", "--g-grid", "1:1:1:lin",
     "--weave", "{tmp}/bool_np_weave.json"],
    # gatecount built the 3-plaquette step or the one-plaquette cosine whatever
    # n_p was, and wrote the ignored n_p in the header or as identical rows
    ["gatecount", "--term", "step", "--lattice", "2x2", "--nq", "1", "--np", "7"],
    ["gatecount", "--term", "step", "--lattice", "2x2", "--axis", "np", "--np", "2:4"],
    ["gatecount", "--term", "cosine", "--axis", "np", "--np", "2:4"],
    ["gatecount", "--term", "cosine", "--nq", "2", "--np", "3", "--theta-grid", "0"],
    # the magnetic, maximal and cosine terms ignored --lattice but wrote it in the
    # header over a count of --np plaquettes (cosine: one)
    ["gatecount", "--term", "magnetic", "--lattice", "2x2", "--np", "5", "--nq", "1",
     "--theta-grid", "0"],
    ["gatecount", "--term", "maximal", "--lattice", "2x2", "--axis", "np", "--np", "2:4"],
    ["gatecount", "--term", "cosine", "--lattice", "4x4"],
    # --order was recorded but only --term step reads it
    ["gatecount", "--term", "electric", "--lattice", "2x2", "--nq", "2", "--order", "2",
     "--theta-grid", "0,0.1"],
    # zero and negative worker counts ran the sweep serially
    ["l1", "--nq", "2", "--workers", "0"],
    ["evolve", "--lattice", "2x2", "--nq", "1", "--g-grid", "1:1:1:lin", "--workers", "-3"],
    # 2^n_q grid points overflowed a float: an OverflowError traceback
    ["gatecount", "--term", "electric", "--lattice", "2x2", "--nq", "1100"],
    ["gatecount", "--term", "magnetic", "--np", "3", "--nq", "1024", "--formulation",
     "non-compact"],
    # a width above --qubit-limit without --np left no n_p to run: a header-only table
    ["l1", "--nq", "17"],
    # 27 qubits of repeated products, above the memory budget's 25-qubit products
    ["product-scaling", "--nq", "9", "--np", "3"],
    # a weave entry that is no JSON number ended in a TypeError traceback (a dict),
    # was read as 1 or 0 (a bool) or reported "not orthogonal ... = nan" (a null)
    *ILL_TYPED_WEAVES.values(),
    # an integer beyond the float range ended in an OverflowError traceback
    HUGE_WEAVE,
    # a weave file on the original basis was ignored (every command but
    # gatecount, which read it), and a missing weave failed in three ways
    *ORIGINAL_WITH_WEAVE,
    *WEAVED_WITHOUT_WEAVE,
    # the step count overflowed into an OverflowError traceback
    *STEP_OVERFLOW,
    # recorded in the header but ignored: the count was that of the compact
    # original-basis cosine, after reading any --weave file (the missing file
    # shows that none is read)
    *IGNORED_BY_TERM,
])
def test_bad_input_exits_without_table(tmp_path, argv):
    (tmp_path / "lattice.json").write_text('{"lattice": "2x2"}')
    (tmp_path / "malformed.json").write_text('{"nq": ')
    (tmp_path / "list.json").write_text("[2, 3]")
    (tmp_path / "empty.json").write_text("{}")
    rows = u.builtin_weave(3).w.tolist()
    rows[0][2] = math.nan
    (tmp_path / "nan_weave.json").write_text(json.dumps({"n_p": 3, "rows": rows}))
    rows = u.builtin_weave(3).w.tolist()
    (tmp_path / "float_np_weave.json").write_text(json.dumps({"n_p": 3.7, "rows": rows}))
    (tmp_path / "bool_np_weave.json").write_text(json.dumps({"n_p": True, "rows": [[1.0]]}))
    for name, rows in ILL_TYPED_ROWS.items():
        (tmp_path / f"{name}_weave.json").write_text(json.dumps({"n_p": 3, "rows": rows}))
    rows = [[10**400, 0, 0], [0, 1, 0], [0, 0, 1]]  # an integer beyond the float range
    (tmp_path / "huge_weave.json").write_text(json.dumps({"n_p": 3, "rows": rows}))
    message = BAD_INPUT_MESSAGES.get(tuple(argv), "")
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    out = tmp_path / "table.csv"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(out)])
    # argparse exits 2 after its usage message; every other error is one prefixed line
    assert exc.value.code == 2 or exc.value.code.startswith(f"u1rotor {argv[0]}: ")
    assert message in str(exc.value.code)
    assert not out.exists()



@pytest.mark.parametrize("argv, g", [
    # g^2 underflowed to 0: a ZeroDivisionError in the magnetic weight
    (["plaquette", "--lattice", "2x2", "--nq", "2", "--g-grid=1e-300:1e300:2:log"], "1e-300"),
    # g^2 overflowed: an OverflowError in the magnetic weight
    (["gatecount", "--term", "magnetic", "--np", "3", "--nq", "2", "--g", "1e200",
      "--formulation", "non-compact"], "1e+200"),
    # g^2 is finite but 1/g^2 is not
    (["gatecount", "--term", "electric", "--lattice", "2x2", "--nq", "2", "--g", "1e-160"],
     "1e-160"),
])
def test_extreme_coupling_exits_with_one_line_naming_g(tmp_path, argv, g):
    out = tmp_path / "table.csv"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(out)])
    message = exc.value.code
    assert message.startswith(f"u1rotor {argv[0]}: coupling g={g} ") and "\n" not in message
    assert not out.exists()


@pytest.mark.parametrize("grid", ["1:inf:2:lin", "1:-inf:2:lin", "nan:2:2:log", "0.1:inf:3"])
def test_non_finite_grid_endpoint_names_the_grid(capsys, grid):
    with pytest.raises(SystemExit):
        main(["plaquette", "--lattice", "2x2", "--nq", "2", "--g-grid", grid])
    assert f"--g-grid: grid {grid!r} has a non-finite endpoint" in capsys.readouterr().err


def test_required_lattice_from_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lattice": "2x2"}))
    from_config, from_flag = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["spectrum", "--config", str(cfg), "--nq", "1", "--levels", "4",
                 "--out", str(from_config)]) == 0
    main(["spectrum", "--lattice", "2x2", "--nq", "1", "--levels", "4", "--out", str(from_flag)])
    assert from_config.read_text() == from_flag.read_text()


# The `# config:` header of each subcommand run with its defaults, as written
# before the parser held the defaults.
DEFAULT_HEADERS = {
    ("spectrum", "--lattice", "2x2", "--nq", "2"):
        '{"basis": "original", "formulation": "non-compact", "g": 0.5, "lattice": "2x2", '
        '"levels": 10, "nq": [2], "weave": null}',
    ("plaquette", "--lattice", "2x2", "--nq", "2"):
        '{"g_grid": [0.01, 0.01438449888287663, 0.0206913808111479, 0.029763514416313176, '
        '0.04281332398719394, 0.06158482110660264, 0.08858667904100823, 0.12742749857031335, '
        '0.18329807108324356, 0.26366508987303583, 0.37926901907322497, 0.5455594781168517, '
        '0.7847599703514611, 1.1288378916846884, 1.623776739188721, 2.3357214690901213, '
        '3.359818286283781, 4.832930238571752, 6.951927961775605, 10.0], "lattice": "2x2", '
        '"nq": 2, "scan_bmax": false, "weave": null}',
    ("gatecount",):
        '{"axis": "theta", "basis": "original", "dt": 1.0, "formulation": "compact", "g": 0.1, '
        '"lattice": null, "np": 3, "nq": 2, "order": 1, "term": "magnetic", "theta_min": 0.0, '
        '"theta_min_policy": "abs", "weave": null}',
    ("l1",):
        '{"bmax_over_pi": null, "g": 0.1, "np": null, "nq": [2, 3], "qubit_limit": 16}',
    ("product-scaling",):
        '{"a2": 0.01102520386420755, "g": 0.1, "np_max": 8, "nq": 2, "transitions": '
        '{"1": {"fitted": 0.02209708691207961, "predicted": 0.0220504077284151}, '
        '"2": {"fitted": 0.00017263349150062197, "predicted": 0.0002431102404946742}, '
        '"3": {"fitted": 2.6973983046972182e-06, "predicted": 2.6803399629303085e-06}, '
        '"4": {"fitted": 2.1073424255447017e-08, "predicted": 2.955129451668916e-08}, '
        '"5": {"fitted": 3.2927225399135965e-10, "predicted": 3.258090464977367e-10}}}',
    ("evolve", "--lattice", "2x2"):
        '{"basis": "original", "dt": [0.2], "formulation": "compact", "g_grid": [0.1, '
        '0.13894954943731375, 0.193069772888325, 0.2682695795279726, 0.372759372031494, '
        '0.517947467923121, 0.7196856730011519, 1.0, 1.3894954943731375, 1.9306977288832496, '
        '2.6826957952797246, 3.72759372031494, 5.17947467923121, 7.196856730011517, 10.0], '
        '"lattice": "2x2", "nq": 1, "order": 1, "t": 0.2, "theta_min": [0.0], '
        '"theta_min_policy": "dt", "weave": null}',
}


@pytest.mark.parametrize("argv", list(DEFAULT_HEADERS), ids=lambda argv: argv[0])
def test_defaults_did_not_move(tmp_path, argv):
    out = tmp_path / "table.csv"
    main(list(argv) + ["--out", str(out)])
    meta, _, _ = _read_csv(out)
    assert meta[2] == "# config: " + DEFAULT_HEADERS[argv]


def test_export_defaults_did_not_move(tmp_path):
    implicit, explicit = tmp_path / "a.qasm", tmp_path / "b.qasm"
    main(["export", "--lattice", "2x2", "--out", str(implicit)])
    main(["export", "--lattice", "2x2", "--nq", "2", "--g", "0.5", "--formulation", "compact",
          "--basis", "original", "--dt", "0.1", "--order", "1", "--theta-min", "0",
          "--theta-min-policy", "abs", "--out", str(explicit)])
    assert implicit.read_bytes() == explicit.read_bytes()


def _subcommand_flags():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {name: {opt for action in p._actions for opt in action.option_strings} - {"-h", "--help"}
            for name, p in sub.choices.items()}


def test_readme_lists_each_subcommands_flags():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    documented, current = {}, None
    for line in readme.splitlines():
        item = re.match(r"- `([a-z0-9-]+)`: ", line)
        if item:
            current = documented.setdefault(item.group(1), set())
        elif not line.startswith("  "):
            current = None
        if current is not None:
            current.update(re.findall(r"`(--[a-z0-9-]+)", line))
    assert documented == _subcommand_flags()


def test_subnormal_cutoff_gives_a_finite_t_estimate(tmp_path):
    # 1 / 1e-320 overflows: the row used to carry Infinity, which is not JSON
    out = tmp_path / "t.json"
    main(["gatecount", "--term", "cosine", "--axis", "theta", "--nq", "2",
          "--theta-grid", "1e-320,0.25", "--format", "json", "--out", str(out)])

    def reject(token):
        raise ValueError(f"non-finite JSON token {token}")

    rows = json.loads(out.read_text(), parse_constant=reject)["rows"]
    assert rows[0][3] == 1.15 * -math.log2(1e-320)
    assert rows[1][3] == 1.15 * math.log2(1.0 / 0.25)

"""The two QASM paths: each distinct gate line written and read once, or every line on its own.

`circuits.QASM_DISTINCT_SHARE` picks the path from a sample of the lines; the
tests force one path or the other by patching it (1.0 always takes the
distinct lines once, 0.0 never does) and hold both to the same bytes and bits.
"""

import re

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

import u1rotor as u
from conftest import export_qasm_oracle
from test_circuits import GOLDEN_STEP_QASM
from test_simulator import _EDGE_ANGLES, _bits_of, _random_circuit
from u1rotor import circuits
from u1rotor.cli import main

PATHS = {"once": 1.0, "per-line": 0.0}


@pytest.fixture(params=PATHS)
def path(request, monkeypatch):
    monkeypatch.setattr(circuits, "QASM_DISTINCT_SHARE", PATHS[request.param])
    return request.param


def _both(monkeypatch, call):
    """``call()`` under each forced path, in `PATHS` order."""
    out = []
    for share in PATHS.values():
        monkeypatch.setattr(circuits, "QASM_DISTINCT_SHARE", share)
        out.append(call())
    return out


def _diff(a: str, b: str):
    """None when two texts are equal, else their first differing lines (no pytest text diff)."""
    if a == b:
        return None
    pairs = enumerate(zip(a.splitlines(), b.splitlines()))
    return next(((i, x, y) for i, (x, y) in pairs if x != y), "one text ends early")


def _table(rng, width, kinds, angles):
    """Gate rows of the given kinds on random qubits, angled kinds taking the next angle."""
    kinds = np.asarray(kinds, np.uint8)
    q0 = rng.integers(0, width, len(kinds))
    q1 = np.where(circuits._TWO_QUBIT[kinds], (q0 + rng.integers(1, width, len(kinds))) % width, -1)
    angle = np.full(len(kinds), np.nan)
    angled = circuits._ANGLED[kinds]
    angle[angled] = angles[:angled.sum()]
    return kinds, q0, q1, angle


def _fresh_angles(rng, n):
    """n distinct finite angles: random bit patterns, edge values first."""
    bits = rng.integers(-2**63, 2**63 - 1, size=2 * n + 64, dtype=np.int64)
    finite = np.unique(bits.view(np.float64)[np.isfinite(bits.view(np.float64))].view(np.int64))
    drawn = rng.permutation(finite).view(np.float64)
    drawn = drawn[~np.isin(drawn.view(np.int64), np.array(_EDGE_ANGLES).view(np.int64))]
    return np.concatenate([_EDGE_ANGLES, drawn])[:n]


@st.composite
def _layouts(draw):
    """(layout, circuit): gate lines all repeated, all distinct, or distinct only in the sample."""
    layout = draw(st.sampled_from(["repeated", "distinct", "distinct-sample"]))
    width = draw(st.one_of(st.sampled_from([2, 2046]), st.integers(2, 2046)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    phase = draw(st.sampled_from(_EDGE_ANGLES))
    every_kind = np.arange(len(circuits.GATE_NAMES))
    if layout == "repeated":  # a pool of at most 218 lines, every edge angle on one qubit
        size = draw(st.integers(0, 200))
        pool = _table(rng, width, np.concatenate([every_kind, rng.integers(0, 5, size)]),
                      _fresh_angles(rng, size + 5))
        edges = (np.zeros(len(_EDGE_ANGLES), np.uint8), np.zeros(len(_EDGE_ANGLES), np.int64),
                 np.full(len(_EDGE_ANGLES), -1), np.array(_EDGE_ANGLES))
        pool = [np.concatenate(cols) for cols in zip(pool, edges)]
        pick = np.concatenate([np.arange(len(pool[0])),
                               rng.integers(0, len(pool[0]), draw(st.integers(2000, 6000)))])
        cols = [col[pick] for col in pool]
    else:  # distinct angled lines and one line of each kind without an angle
        rows = circuits.QASM_SAMPLE if layout == "distinct-sample" else draw(st.integers(100, 3000))
        kinds = np.concatenate([every_kind, rng.choice([circuits.RZ, circuits.CU1], rows - 5)])
        cols = _table(rng, width, rng.permutation(kinds), _fresh_angles(rng, rows))
        if layout == "distinct-sample":  # the sampled rows repeated after the sample
            pick = np.concatenate([np.arange(rows), rng.integers(0, rows, draw(st.integers(1, 4096)))])
            cols = [col[pick] for col in cols]
    return layout, u.Circuit.from_columns(width, *cols, global_phase=phase)


# no shrinking: a seeded table of thousands of rows shrinks for minutes
@settings(max_examples=40, deadline=None, derandomize=True,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(_layouts())
def test_export_matches_the_single_template_writer(case):
    layout, circ = case
    text = u.export_qasm(circ)
    assert _diff(text, export_qasm_oracle(circ)) is None
    sample = text.splitlines()[4:4 + circuits.QASM_SAMPLE]
    repeated = len(set(sample)) <= circuits.QASM_DISTINCT_SHARE * len(sample)
    assert repeated == (layout == "repeated")  # each layout lies on its side of the rule
    if layout == "repeated":  # -0.0 and 0.0 on one qubit write two lines
        assert "rz(-0) q[0];" in text and "rz(0) q[0];" in text


def test_export_paths_agree_on_wide_registers(monkeypatch):
    # a key that would not fit 64 bits leaves every line to the per-line path
    gates = [u.Gate("rz", (2**40,), 0.5), u.Gate("cx", (0, 2**40)), u.Gate("rz", (2**40,), -0.0)]
    circ = u.Circuit(2**40 + 1, gates * 3)
    once, per_line = _both(monkeypatch, lambda: u.export_qasm(circ))
    assert _diff(once, per_line) is _diff(once, export_qasm_oracle(circ)) is None
    assert _bits_of(u.read_qasm(once)) == _bits_of(circ)


def _repeated_gates(n=500):
    return "h q[0];\ncx q[0],q[1];\n" * n


def test_a_repeated_qreg_is_a_second_declaration(path):
    text = f"OPENQASM 2.0;\nqreg q[2];\n{_repeated_gates()}qreg q[2];\n{_repeated_gates()}"
    with pytest.raises(ValueError, match=r"^second qreg declaration: 'qreg q\[2\];'$"):
        u.read_qasm(text)


def test_the_last_repeated_phase_comment_wins(path):
    # the distinct comments are 0.5 then 0.25, but the text's last one is 0.5 again
    text = "".join(f"// global_phase: {phase}\n{_repeated_gates(100)}" for phase in (0.5, 0.25, 0.5))
    assert u.read_qasm(f"qreg q[2];\n{text}").global_phase == 0.5
    assert u.read_qasm(f"qreg q[2];\n{text}// global_phase: 0.25\n").global_phase == 0.25


@pytest.mark.parametrize("bad, later, message", [
    ("rz(1.2.3) q[0];", "rz(1.2.4) q[0];", "unsupported QASM line"),
    ("rz(0.1) q[5];", "rz(0.2) q[7];", "qubit outside the register"),
    ("cx q[1],q[1];", "cx q[0],q[0];", "repeated qubit"),
    ("// global_phase: abc", "// global_phase: xyz", "could not convert string to float"),
])
def test_a_bad_line_repeated_500_times_is_quoted(path, bad, later, message):
    # the text's first bad line is quoted, though another bad line is repeated more
    text = (f"qreg q[2];\n{_repeated_gates(50)}{bad}\n{_repeated_gates(50)}"
            + f"{later}\n" * 600 + f"{bad}\n" * 499)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}.*: {re.escape(repr(bad))}$"):
        u.read_qasm(text)


def test_a_gate_repeated_across_the_qreg_is_refused(path):
    text = f"h q[0];\nqreg q[2];\n{_repeated_gates()}"
    with pytest.raises(ValueError, match=r"^gate before qreg declaration: 'h q\[0\];'$"):
        u.read_qasm(text)


def test_read_paths_give_the_same_columns(monkeypatch):
    # one noisy text of a step circuit: repeats, comments and spacing, read by each path
    lattice = u.LatticeSpec(2, 2)
    model = u.build_model(lattice, u.digitize(lattice.n_p, 2, 0.5, "compact"))
    step = u.step_circuit(model, u.TrotterPlan(2, 0.1, 1))
    lines = u.export_qasm(step).splitlines()
    noisy = [f"  {line}\t" if i % 7 == 0 else line for i, line in enumerate(lines)]
    text = "\r\n".join(noisy[:4] + ["// a comment", ""] + noisy[4:])
    once, per_line = _both(monkeypatch, lambda: _bits_of(u.read_qasm(text)))
    assert once == per_line == _bits_of(step)


def _golden_step(case):
    (n_x, n_y), n_q, g, formulation, basis, order, policy, value = case
    lattice = u.LatticeSpec(n_x, n_y)
    weave = u.builtin_weave(lattice.n_p) if basis == "weaved" else None
    model = u.build_model(lattice, u.digitize(lattice.n_p, n_q, g, formulation, basis, weave), weave)
    theta = u.ThetaPolicy(policy, value)
    return u.step_circuit(model, u.TrotterPlan(order, 0.1, 1, theta, theta))


def _edge_table(width):
    rng = np.random.default_rng(width)
    kinds = rng.integers(0, len(circuits.GATE_NAMES), 600)
    angles = rng.integers(-2**63, 2**63 - 1, 2400, dtype=np.int64).view(np.float64)
    cols = _table(rng, width, kinds, np.concatenate([_EDGE_ANGLES, angles[np.isfinite(angles)]]))
    return u.Circuit.from_columns(width, *cols, global_phase=-0.0)


def _cli_export(tmp_path, argv):
    out = tmp_path / "step.qasm"
    main(["export", *argv, "--out", str(out)])
    return out.read_text()


# the circuits and exports that the other test modules write as QASM
FIXTURES = {
    **{f"golden-step-{i}": (lambda case=case: _golden_step(case))
       for i, (case, _) in enumerate(GOLDEN_STEP_QASM)},
    "single-rz": lambda: u.Circuit(1, [u.Gate("rz", (0,), -0.8)]),
    "mask-13": lambda: u.exp_walsh(13, 0.5, 4),
    "truncated": lambda: u.truncated_circuit(u.WalshSeries(3, {3: 0.4, 5: -0.2, 6: 0.9}), 0.1),
    "random": lambda: u.Circuit.joined(3, [_random_circuit(np.random.default_rng(s), 3, 20)
                                           for s in range(10)]),
    **{f"edge-angles-{w}": (lambda w=w: _edge_table(w)) for w in (65, 126, 2046)},
    "empty": lambda: u.Circuit(4),
}
CLI_EXPORTS = {
    "export-truncated": ["--lattice", "2x2", "--nq", "1", "--g", "0.8", "--dt", "0.2",
                         "--theta-min", "0.1", "--theta-min-policy", "abs"],
    "export-exact": ["--lattice", "2x2", "--nq", "1", "--g", "0.8", "--dt", "0.2"],
    "export-defaults": ["--lattice", "2x2"],
}


@pytest.mark.parametrize("name", FIXTURES)
def test_every_fixture_round_trips_through_both_paths(name, monkeypatch):
    circ = FIXTURES[name]()
    texts = _both(monkeypatch, lambda: u.export_qasm(circ))
    assert _diff(texts[0], texts[1]) is _diff(texts[0], export_qasm_oracle(circ)) is None
    assert _both(monkeypatch, lambda: _bits_of(u.read_qasm(texts[0]))) == [_bits_of(circ)] * 2


@pytest.mark.parametrize("name", CLI_EXPORTS)
def test_every_cli_export_round_trips_through_both_paths(name, tmp_path, monkeypatch):
    texts = _both(monkeypatch, lambda: _cli_export(tmp_path, CLI_EXPORTS[name]))
    assert _diff(texts[0], texts[1]) is None
    once, per_line = _both(monkeypatch, lambda: u.read_qasm(texts[0]))
    assert _bits_of(once) == _bits_of(per_line)
    assert _diff(export_qasm_oracle(once), texts[0]) is None

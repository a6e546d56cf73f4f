import numpy as np
import pytest

import u1rotor as u
from u1rotor.circuits import Gate

from conftest import diagonal_exponential, random_series


def _unitary(circ):
    return u.circuit_unitary(circ)


def test_exp_walsh_single_qubit():
    circ = u.exp_walsh(1, 0.3, 1)
    assert [g.name for g in circ.gates] == ["rz"]
    assert circ.gates[0] == Gate("rz", (0,), -0.6)


def test_exp_walsh_mask13_gate_sequence():
    # mask 13 = bits {0, 2, 3}: mirrored CNOTs from qubits 0 and 2 onto 3
    circ = u.exp_walsh(13, 0.5, 4)
    assert circ.gates == [
        Gate("cx", (0, 3)),
        Gate("cx", (2, 3)),
        Gate("rz", (3,), -1.0),
        Gate("cx", (2, 3)),
        Gate("cx", (0, 3)),
    ]


def test_exp_walsh_rejects_identity():
    with pytest.raises(ValueError):
        u.exp_walsh(0, 1.0, 3)


def test_exp_walsh_unitary(rng):
    for _ in range(20):
        n = int(rng.integers(1, 7))
        mask = int(rng.integers(1, 1 << n))
        coeff = float(rng.normal())
        series = u.WalshSeries(n, {mask: coeff})
        dev = np.abs(_unitary(u.exp_walsh(mask, coeff, n)) - diagonal_exponential(series)).max()
        assert dev < 1e-12


def test_exact_circuit_three_qubit_order(rng):
    series = u.WalshSeries(3, {j: float(rng.normal()) for j in range(8)})
    circ = u.exact_circuit(series)
    counts = u.gate_count(circ)
    assert counts["rz"] == 7 and counts["cx"] == 6
    angles = [g.angle for g in circ.gates if g.name == "rz"]
    assert angles == [-2 * series.terms[j] for j in (1, 3, 2, 6, 7, 5, 4)]
    assert circ.global_phase == series.terms[0]


def test_exact_gate_count_law(rng):
    for n in range(1, 9):
        series = u.WalshSeries(
            n, {j: float(rng.uniform(0.5, 1.0)) for j in range(1 << n)}
        )
        counts = u.gate_count(u.exact_circuit(series))
        assert counts["rz"] == (1 << n) - 1
        assert counts["cx"] == (1 << n) - 2


def test_exact_single_entry_matches_exp_walsh(rng):
    series = u.WalshSeries(4, {11: 0.37})
    assert u.exact_circuit(series).gates == u.exp_walsh(11, 0.37, 4).gates


def test_exact_circuit_unitary(rng):
    series = u.WalshSeries(5, {j: float(rng.normal()) for j in range(32)})
    dev = np.abs(_unitary(u.exact_circuit(series)) - diagonal_exponential(series)).max()
    assert dev < 1e-11


def test_truncated_circuit_figure_example():
    # three-qubit series with the j = 3, 5, 7 angles below cutoff
    series = u.WalshSeries(3, {1: 1.0, 2: 0.8, 3: 1e-3, 4: 0.9, 5: 1e-3, 6: 0.7, 7: 1e-3})
    circ = u.truncated_circuit(series, 0.1)
    counts = u.gate_count(circ)
    assert counts["rz"] == 4 and counts["cx"] == 2
    kept = u.WalshSeries(3, {1: 1.0, 2: 0.8, 4: 0.9, 6: 0.7})
    assert np.abs(_unitary(circ) - diagonal_exponential(kept)).max() < 1e-12


def test_truncated_zero_cutoff_matches_exact(rng):
    series = u.WalshSeries(4, {j: float(rng.uniform(0.2, 1.0)) for j in range(16)})
    exact = u.gate_count(u.exact_circuit(series))
    trunc = u.gate_count(u.truncated_circuit(series, 0.0))
    assert exact == trunc


def test_truncated_circuit_unitary(rng):
    for _ in range(20):
        n = int(rng.integers(1, 7))
        series = random_series(rng, n, density=0.6)
        theta = float(rng.uniform(0, 1.0))
        kept, _ = u.threshold_truncate(series, theta)
        body = u.WalshSeries(n, {m: c for m, c in kept.terms.items() if m != 0})
        phase = series.coefficient(0)
        circ = u.truncated_circuit(series, theta)
        counts = u.gate_count(circ)
        assert counts["rz"] == len(body)
        target = np.exp(1j * phase) * diagonal_exponential(body)
        assert np.abs(_unitary(circ) - target).max() < 1e-11


def test_truncated_counts_monotone_in_cutoff(rng):
    series = random_series(rng, 6, density=0.8)
    prev_rz, prev_cx = np.inf, np.inf
    for theta in (0.0, 0.05, 0.1, 0.3, 0.8, 2.0, 10.0):
        counts = u.gate_count(u.truncated_circuit(series, theta))
        assert counts["rz"] <= prev_rz and counts["cx"] <= prev_cx
        prev_rz, prev_cx = counts["rz"], counts["cx"]


def test_sequency_gate_counts_matches_circuit_path(rng):
    for _ in range(30):
        n = int(rng.integers(1, 8))
        series = random_series(rng, n, density=float(rng.uniform(0.1, 1.0)))
        theta = float(rng.uniform(0, 1.0))
        shortcut = u.sequency_gate_counts(series, theta)
        built = u.gate_count(u.truncated_circuit(series, theta))
        assert shortcut["rz"] == built["rz"]
        assert shortcut["cx"] == built["cx"]
    for bad in (-0.1, float("nan")):
        with pytest.raises(ValueError):
            u.sequency_gate_counts(series, bad)


def test_truncated_circuit_leaves_nothing_to_simplify(rng):
    # truncation precedes sequency synthesis, so no cleanup pass is needed
    for _ in range(200):
        n = int(rng.integers(1, 10))
        series = random_series(rng, n, density=float(rng.uniform(0.05, 1.0)))
        circ = u.truncated_circuit(series, float(rng.uniform(0, 2.0)))
        assert u.simplify_cnots(circ).gates == circ.gates


def test_simplify_cancels_adjacent_pair():
    circ = u.Circuit(2)
    circ.cx(0, 1)
    circ.cx(0, 1)
    assert u.simplify_cnots(circ).gates == []


def test_simplify_figure_middle_to_bottom():
    # the post-truncation circuit before CNOT cleanup: 6 CNOTs, 4 Rz
    circ = u.Circuit(3)
    circ.rz(-2.0, 0)
    circ.cx(0, 1)
    circ.cx(0, 1)
    circ.rz(-1.6, 1)
    circ.cx(1, 2)
    circ.rz(-1.4, 2)
    circ.cx(0, 2)
    circ.cx(1, 2)
    circ.cx(0, 2)
    circ.rz(-1.8, 2)
    before = _unitary(circ)
    simplified = u.simplify_cnots(circ)
    counts = u.gate_count(simplified)
    assert counts["cx"] == 2 and counts["rz"] == 4
    assert np.abs(_unitary(simplified) - before).max() < 1e-12


def test_simplify_preserves_unitary(rng):
    for _ in range(20):
        n = int(rng.integers(2, 5))
        circ = u.Circuit(n)
        for _ in range(30):
            if rng.random() < 0.5:
                circ.rz(float(rng.normal()), int(rng.integers(n)))
            else:
                a, b = rng.choice(n, size=2, replace=False)
                circ.cx(int(a), int(b))
        simplified = u.simplify_cnots(circ)
        assert np.abs(_unitary(simplified) - _unitary(circ)).max() < 1e-12
        assert u.gate_count(simplified)["cx"] <= u.gate_count(circ)["cx"]


def test_simplify_rejects_other_gates():
    circ = u.Circuit(2)
    circ.h(0)
    with pytest.raises(ValueError):
        u.simplify_cnots(circ)


def test_qft_small_counts():
    assert [g.name for g in u.qft_circuit(1).gates] == ["h"]
    counts = u.gate_count(u.qft_circuit(3))
    assert counts == {"rz": 0, "cx": 0, "h": 3, "cu1": 3, "swap": 1}


def test_qft_matches_dft_matrix():
    for n in range(1, 6):
        big_n = 1 << n
        omega = np.exp(2j * np.pi / big_n)
        dft = omega ** np.outer(np.arange(big_n), np.arange(big_n)) / np.sqrt(big_n)
        assert np.abs(_unitary(u.qft_circuit(n)) - dft).max() < 1e-12


def test_gate_count_empty():
    assert u.gate_count(u.Circuit(3)) == {"rz": 0, "cx": 0, "h": 0, "cu1": 0, "swap": 0}


def test_export_qasm_single_rz():
    circ = u.Circuit(1)
    circ.rz(-0.8, 0)
    text = u.export_qasm(circ)
    assert "rz(-0.80000000000000004) q[0];" in text
    assert text.startswith('OPENQASM 2.0;\ninclude "qelib1.inc";\n')


def test_export_qasm_mask13_order():
    text = u.export_qasm(u.exp_walsh(13, 0.5, 4))
    lines = [line for line in text.splitlines() if line and not line.startswith(("OPENQASM", "include", "//", "qreg"))]
    assert lines == [
        "cx q[0],q[3];",
        "cx q[2],q[3];",
        "rz(-1) q[3];",
        "cx q[2],q[3];",
        "cx q[0],q[3];",
    ]


def test_export_deterministic(rng):
    series = random_series(rng, 4, density=0.5)
    circ = u.truncated_circuit(series, 0.1)
    assert u.export_qasm(circ) == u.export_qasm(circ)


def test_circuit_validation():
    circ = u.Circuit(2)
    with pytest.raises(ValueError):
        circ.rz(0.1, 2)
    with pytest.raises(ValueError):
        circ.cx(1, 1)
    with pytest.raises(ValueError):
        Gate("nope", (0,))
    for bad in (float("inf"), float("nan")):
        with pytest.raises(ValueError):
            Gate("rz", (0,), bad)

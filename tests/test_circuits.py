import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import u1rotor as u
from u1rotor.circuits import Gate

from conftest import diagonal_exponential, random_series


def _unitary(circ):
    return u.circuit_unitary(circ)


def test_exp_walsh_single_qubit():
    circ = u.exp_walsh(1, 0.3, 1)
    assert [g.name for g in circ.gates] == ["rz"]
    assert circ.gates[0] == Gate("rz", (0,), -0.6)


@pytest.mark.parametrize("coeff", [0.5, 0.0])
def test_exp_walsh_mask13_gate_sequence(coeff):
    # mask 13 = bits {0, 2, 3}: mirrored CNOTs from qubits 0 and 2 onto 3; a zero
    # coefficient still places its Rz
    circ = u.exp_walsh(13, coeff, 4)
    assert circ.gates == [
        Gate("cx", (0, 3)),
        Gate("cx", (2, 3)),
        Gate("rz", (3,), -2 * coeff),
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
    assert angles == [-2 * series.coefficient(j) for j in (1, 3, 2, 6, 7, 5, 4)]
    assert circ.global_phase == series.coefficient(0)


def test_exact_gate_count_law(rng):
    for n in range(1, 9):
        series = u.WalshSeries(
            n, {j: float(rng.uniform(0.5, 1.0)) for j in range(1 << n)}
        )
        counts = u.gate_count(u.exact_circuit(series))
        assert counts["rz"] == (1 << n) - 1
        assert counts["cx"] == (1 << n) - 2
        assert _counts_by_loop(series, 0.0) == {"rz": (1 << n) - 1, "cx": (1 << n) - 2}


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
        body = u.WalshSeries(n, {m: c for m, c in kept.items() if m != 0})
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
    cases = []
    for _ in range(30):
        n = int(rng.integers(1, 8))
        series = random_series(rng, n, density=float(rng.uniform(0.1, 1.0)))
        cases.append((series, float(rng.uniform(0, 1.0))))
    # all-ones masks whose msb a float log2 rounds up, and registers wider than 64 qubits
    cases += [(u.WalshSeries(n, {(1 << n) - 1: 0.3}), 0.0) for n in range(49, 54)]
    for _ in range(20):
        n = int(rng.integers(1, 9))
        width = int(rng.integers(n, 201))
        positions = [int(p) for p in rng.choice(width, size=n, replace=False)]
        local = random_series(rng, n, density=float(rng.uniform(0.3, 1.0)))
        cases.append((u.embed(local, positions, width), float(rng.uniform(0, 1.0))))
    assert max(series.n for series, _ in cases) > 128
    for series, theta in cases:
        shortcut = u.sequency_gate_counts(series, theta)
        built = u.gate_count(u.truncated_circuit(series, theta))
        assert shortcut["rz"] == built["rz"]
        assert shortcut["cx"] == built["cx"]
    for bad in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            u.sequency_gate_counts(series, bad)


@st.composite
def _swept_series(draw):
    # masks of any size on registers up to 200 qubits, small masks too so that
    # low msb groups hold several entries
    n = draw(st.sampled_from([1, 5, 12, 63, 64, 65, 127, 128, 129, 200]))
    mask = st.integers(0, (1 << n) - 1) | st.integers(0, min(255, (1 << n) - 1))
    coeff = st.floats(1e-3, 1.0) | st.floats(-1.0, -1e-3)
    series = u.WalshSeries(n, draw(st.dictionaries(mask, coeff, min_size=1, max_size=40)))
    # cutoffs at 0, exactly at a stored 2|a_j|, or anywhere; the reversed copy
    # makes every list unsorted and repeated
    stored = [2.0 * abs(c) for c in series.coeffs.tolist()] or [0.0]
    theta = st.just(0.0) | st.sampled_from(stored) | st.floats(0.0, 2.5)
    thetas = draw(st.lists(theta, min_size=1, max_size=6))
    return series, thetas + thetas[::-1]


def _gray_rank(mask):
    # bit i of the rank is the parity of the mask's bits >= i
    rank = 0
    while mask:
        rank, mask = rank ^ mask, mask >> 1
    return rank


def _counts_by_loop(series, theta):
    """Rz and CNOT counts of the kept nonzero masks, walked one by one in Gray-rank order."""
    masks = sorted((m for m, c in series.items() if m and abs(c) >= theta / 2.0), key=_gray_rank)
    cx = 0
    # the 0 before the first mask and after the last one stands for no group
    for prev, mask in zip([0, *masks], [*masks, 0]):
        if prev.bit_length() == mask.bit_length():  # neighbours inside one msb group
            cx += bin(prev ^ mask).count("1")
        else:  # prev is a group's last mask and mask the next one's first: their bits below the msb
            cx += max(bin(prev).count("1") - 1, 0) + max(bin(mask).count("1") - 1, 0)
    return {"rz": len(masks), "cx": cx}


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_swept_series())
def test_sweep_counts_match_the_truncated_circuits(case):
    series, thetas = case
    swept = u.sequency_sweep_counts(series, thetas)
    assert len(swept) == len(thetas)
    for theta, counts in zip(thetas, swept):
        built = u.gate_count(u.truncated_circuit(series, theta))
        assert counts == {"rz": built["rz"], "cx": built["cx"]}
        assert counts == _counts_by_loop(series, theta)


@pytest.mark.parametrize("bad", [-0.1, float("nan"), float("inf"), -float("inf")])
def test_sweep_counts_reject_a_bad_cutoff_anywhere(bad):
    series = u.WalshSeries(3, {5: 0.3, 6: -0.2})
    assert u.sequency_sweep_counts(series, []) == []
    for thetas in ([bad], [0.1, bad], [bad, 0.0, 0.2]):
        with pytest.raises(ValueError, match="non-negative and finite"):
            u.sequency_sweep_counts(series, thetas)


@st.composite
def _wide_embedding(draw):
    # increasing positions with at least one qubit below 64, one in [64, 128) and one above
    n = draw(st.integers(3, 8))
    width = draw(st.integers(129, 200))
    fixed = [draw(st.integers(0, 63)), draw(st.integers(64, 127)), draw(st.integers(128, width - 1))]
    rest = draw(st.lists(st.integers(0, width - 1).filter(lambda p: p not in fixed),
                         min_size=n - 3, max_size=n - 3, unique=True))
    coeff = st.floats(0.1, 1.0) | st.floats(-1.0, -0.1)
    terms = draw(st.dictionaries(st.integers(0, (1 << n) - 1), coeff, min_size=1, max_size=40))
    return u.WalshSeries(n, terms), sorted(fixed + rest), width


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_wide_embedding())
def test_wide_synthesis_relabels_local_synthesis(case):
    series, positions, width = case
    local = u.exact_circuit(series)
    wide = u.exact_circuit(u.embed(series, positions, width))
    assert wide.width == width and wide.global_phase == local.global_phase
    assert wide.gates == [
        Gate(g.name, tuple(positions[q] for q in g.qubits), g.angle) for g in local.gates
    ]


def test_truncated_circuit_leaves_nothing_to_simplify(rng):
    # truncation precedes sequency synthesis, so no cleanup pass is needed
    for _ in range(200):
        n = int(rng.integers(1, 10))
        series = random_series(rng, n, density=float(rng.uniform(0.05, 1.0)))
        circ = u.truncated_circuit(series, float(rng.uniform(0, 2.0)))
        assert u.simplify_cnots(circ).gates == circ.gates


def test_simplify_cancels_adjacent_pair():
    circ = u.Circuit(2, [Gate("cx", (0, 1)), Gate("cx", (0, 1))])
    assert u.simplify_cnots(circ).gates == []


def test_simplify_figure_middle_to_bottom():
    # the post-truncation circuit before CNOT cleanup: 6 CNOTs, 4 Rz
    circ = u.Circuit(3, [
        Gate("rz", (0,), -2.0),
        Gate("cx", (0, 1)),
        Gate("cx", (0, 1)),
        Gate("rz", (1,), -1.6),
        Gate("cx", (1, 2)),
        Gate("rz", (2,), -1.4),
        Gate("cx", (0, 2)),
        Gate("cx", (1, 2)),
        Gate("cx", (0, 2)),
        Gate("rz", (2,), -1.8),
    ])
    before = _unitary(circ)
    simplified = u.simplify_cnots(circ)
    counts = u.gate_count(simplified)
    assert counts["cx"] == 2 and counts["rz"] == 4
    assert np.abs(_unitary(simplified) - before).max() < 1e-12


def test_simplify_preserves_unitary(rng):
    for _ in range(20):
        n = int(rng.integers(2, 5))
        gates = []
        for _ in range(30):
            if rng.random() < 0.5:
                gates.append(Gate("rz", (int(rng.integers(n)),), float(rng.normal())))
            else:
                a, b = rng.choice(n, size=2, replace=False)
                gates.append(Gate("cx", (int(a), int(b))))
        circ = u.Circuit(n, gates)
        simplified = u.simplify_cnots(circ)
        assert np.abs(_unitary(simplified) - _unitary(circ)).max() < 1e-12
        assert u.gate_count(simplified)["cx"] <= u.gate_count(circ)["cx"]


def test_simplify_rejects_other_gates():
    circ = u.Circuit(2, [Gate("h", (0,))])
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
    text = u.export_qasm(u.Circuit(1, [Gate("rz", (0,), -0.8)]))
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
    for gate in (Gate("rz", (2,), 0.1), Gate("cx", (1, 1)), Gate("nope", (0,)),
                 Gate("rz", (0,), float("inf")), Gate("rz", (0,), float("nan"))):
        with pytest.raises(ValueError):
            u.Circuit(2, [gate])


def test_joined_concatenates_whole_tables():
    a = u.Circuit(2, [Gate("h", (0,)), Gate("cx", (0, 1))], 0.1)
    b = u.Circuit(2, [Gate("rz", (1,), 0.5)], 0.2)
    c = u.Circuit(2, [Gate("swap", (0, 1)), Gate("cu1", (1, 0), 0.25)], 0.3)
    joined = u.Circuit.joined(2, [a, b, c])
    assert joined.gates == [*a.gates, *b.gates, *c.gates]
    assert joined.gates == u.Circuit(2, [*a.gates, *b.gates, *c.gates]).gates
    # left to right from 0.0: (0.1 + 0.2) + 0.3 differs from 0.1 + (0.2 + 0.3) in the last bit
    assert joined.global_phase == (0.0 + 0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3)
    assert [len(part.gates) for part in (a, b, c)] == [2, 1, 2]  # parts are left as they were
    negative_zero = u.Circuit.joined(2, [u.Circuit(2, [Gate("h", (1,))], -0.0)])
    assert math.copysign(1.0, negative_zero.global_phase) == 1.0
    empty = u.Circuit.joined(3, [])
    assert (empty.width, empty.gates, empty.global_phase) == (3, [], 0.0)
    with pytest.raises(ValueError, match="width mismatch"):
        u.Circuit.joined(2, [a, u.Circuit(3)])
    with pytest.raises(ValueError, match="width mismatch"):
        u.Circuit.joined(3, [a])


# SHA-256 of export_qasm(step_circuit(...)) for fixed small models: byte drift in
# the QASM writer, the synthesis order or the global-phase sum changes them.
# (lattice, n_q, g, formulation, basis, order, cutoff policy, cutoff value)
GOLDEN_STEP_QASM = [
    (((2, 2), 2, 0.5, "compact", "original", 1, "abs", 0.0),
     "dd2fb288d66c24c02dd9787a91e44e238a4839383932589193bca12a336e9691"),
    (((2, 2), 3, 0.8, "non-compact", "original", 2, "dt", 0.05),
     "c139b4db1f6e1a965369eb3b16170ce17d655d04148a67b583bcefac5d078b8e"),
    (((2, 2), 2, 0.6, "compact", "weaved", 2, "abs", 0.0),
     "acd9e6dec860db6e42c5f3730c4f4f6a363ca37b40a4abb949f1d6d18eaceb81"),
]


@pytest.mark.parametrize("case, digest", GOLDEN_STEP_QASM)
def test_step_qasm_bytes_are_pinned(case, digest):
    (n_x, n_y), n_q, g, formulation, basis, order, policy, value = case
    lattice = u.LatticeSpec(n_x, n_y)
    weave = u.builtin_weave(lattice.n_p) if basis == "weaved" else None
    model = u.build_model(lattice, u.digitize(lattice.n_p, n_q, g, formulation, basis, weave), weave)
    theta = u.ThetaPolicy(policy, value)
    text = u.export_qasm(u.step_circuit(model, u.TrotterPlan(order, 0.1, 1, theta, theta)))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_gate_table_rejects_unknown_kind():
    nan = float("nan")
    for kind in (len(u.circuits.GATE_NAMES), 256, -1):
        with pytest.raises(ValueError, match="malformed"):
            u.Circuit.from_columns(2, np.array([kind]), [0], [-1], [0.5])
    circ = u.Circuit.from_columns(2, [0, 1], [1, 0], [-1, 1], [0.25, nan], 0.5)
    assert circ.gates == [Gate("rz", (1,), 0.25), Gate("cx", (0, 1))]
    assert circ.gates[-1] == Gate("cx", (0, 1)) and len(circ.gates) == 2


def test_dagger_negates_present_angles_only():
    ft = u.qft_circuit(3)
    reversed_angle = ft.angle[::-1]
    absent = np.isnan(reversed_angle)
    inverse = ft.dagger()
    assert absent.any() and np.array_equal(np.isnan(inverse.angle), absent)
    assert inverse.angle[absent].tobytes() == reversed_angle[absent].tobytes()
    assert inverse.angle[~absent].tobytes() == (-reversed_angle[~absent]).tobytes()
    assert inverse.dagger().angle.tobytes() == ft.angle.tobytes()


def _set_bits_by_bin(words, width):
    """(row, qubit) pairs read off each row's mask with bin(), qubits ascending."""
    rows, qubits = [], []
    for r, row in enumerate(words.tolist()):
        mask = sum(w << (64 * i) for i, w in enumerate(row))
        found = [q for q, bit in enumerate(reversed(bin(mask)[2:])) if bit == "1"]
        assert all(q < width for q in found)
        rows += [r] * len(found)
        qubits += found
    return rows, qubits


@pytest.mark.parametrize("width", [1, 5, 63, 64, 65, 100, 127, 128, 129, 200, 255, 256])
def test_set_bits_matches_bin(rng, width):
    n_words = -(-width // 64)
    # random masks below the width, plus rows with no bit, the top bit only, and bits 63, 64, 127
    masks = [int(m) for m in rng.integers(0, 2, size=(40, width)) @ [1 << q for q in range(width)]]
    masks += [0, 1 << (width - 1), 0, (1 << width) - 1]
    masks += [sum(1 << q for q in {0, 63, 64, 127, width - 1} if q < width)]
    words = np.array([[(m >> (64 * i)) & (2**64 - 1) for i in range(n_words)] for m in masks],
                     dtype=np.uint64)
    rows, qubits = u.circuits._set_bits(words, width)
    assert (rows.tolist(), qubits.tolist()) == _set_bits_by_bin(words, width)

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import u1rotor as u

H1 = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)


def _dense_gate(gate, width):
    """Independent dense matrix of one gate, little-endian register."""
    dim = 1 << width
    if gate.name == "h":
        q = gate.qubits[0]
        mat = np.eye(1, dtype=complex)
        for pos in reversed(range(width)):
            mat = np.kron(mat, H1 if pos == q else np.eye(2))
        return mat
    out = np.zeros((dim, dim), dtype=complex)
    for s in range(dim):
        if gate.name == "rz":
            q = gate.qubits[0]
            sign = 1.0 if (s >> q) & 1 else -1.0
            out[s, s] = np.exp(0.5j * gate.angle * sign)
        elif gate.name == "cx":
            c, t = gate.qubits
            target = s ^ (1 << t) if (s >> c) & 1 else s
            out[target, s] = 1.0
        elif gate.name == "cu1":
            a, b = gate.qubits
            both = ((s >> a) & 1) and ((s >> b) & 1)
            out[s, s] = np.exp(1j * gate.angle) if both else 1.0
        elif gate.name == "swap":
            a, b = gate.qubits
            target = s
            if ((s >> a) ^ (s >> b)) & 1:
                target = s ^ ((1 << a) | (1 << b))
            out[target, s] = 1.0
    return out


def _dense_circuit(circ):
    dim = 1 << circ.width
    out = np.eye(dim, dtype=complex) * np.exp(1j * circ.global_phase)
    for g in circ.gates:
        out = _dense_gate(g, circ.width) @ out
    return out


def _random_circuit(rng, width, gates=25):
    phase, drawn = float(rng.normal()), []
    for _ in range(gates):
        kinds = ["rz", "h"] if width == 1 else ["rz", "cx", "h", "cu1", "swap"]
        kind = str(rng.choice(kinds))
        if kind in ("rz", "h"):
            qubits = (int(rng.integers(width)),)
        else:
            qubits = tuple(int(x) for x in rng.choice(width, size=2, replace=False))
        angle = float(rng.normal()) if kind in ("rz", "cu1") else None
        drawn.append(u.Gate(kind, qubits, angle))
    return u.Circuit(width, drawn, phase)


def _model(n_q=2, g=0.5, lat=None, formulation="compact", basis="original", weave=None):
    lat = lat or u.LatticeSpec(2, 2)
    d = u.digitize(lat.n_p, n_q, g, formulation, basis, weave)
    return u.build_model(lat, d, weave)


def test_empty_circuit_is_identity():
    state = np.zeros(8, dtype=complex)
    state[3] = 1.0
    assert np.array_equal(u.apply(u.Circuit(3), state), state)


def test_h_on_zero():
    out = u.apply(u.Circuit(1, [u.Gate("h", (0,))]), np.array([1.0, 0.0]))
    assert np.allclose(out, [1 / np.sqrt(2), 1 / np.sqrt(2)])


def test_apply_matches_dense_oracle(rng):
    for _ in range(15):
        width = int(rng.integers(1, 5))
        circ = _random_circuit(rng, width)
        dev = np.abs(u.circuit_unitary(circ) - _dense_circuit(circ)).max()
        assert dev < 1e-12


def test_norm_preserved(rng):
    circ = _random_circuit(rng, 4, gates=60)
    state = rng.normal(size=16) + 1j * rng.normal(size=16)
    state /= np.linalg.norm(state)
    out = u.apply(circ, state)
    assert abs(np.linalg.norm(out) - 1.0) < 1e-10


def test_apply_width_mismatch():
    with pytest.raises(ValueError):
        u.apply(u.Circuit(2), np.zeros(8, dtype=complex))


def test_exp_walsh_phases_by_parity():
    coeff = 0.37
    circ = u.exp_walsh(13, coeff, 4)
    for state in range(16):
        vec = np.zeros(16, dtype=complex)
        vec[state] = 1.0
        out = u.apply(circ, vec)
        parity = bin(13 & state).count("1") % 2
        expected = np.exp(1j * coeff * (-1 if parity else 1))
        assert out[state] == pytest.approx(expected, abs=1e-12)


def test_electric_ground_state_is_zero_mode():
    model = _model(n_q=2)
    psi = u.electric_ground_state(model)
    assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)
    h_e = u.dense_electric(model)
    assert np.linalg.norm(h_e @ psi) < 1e-10
    assert abs(np.vdot(psi, h_e @ psi)) < 1e-10


def test_electric_ground_state_single_qubit_register():
    model = _model(n_q=1)
    psi = u.electric_ground_state(model)
    # rotor index 1 per plaquette before the Fourier rotation
    f = u.ft_matrix(1)
    expected = np.ones(1, dtype=complex)
    for _ in range(3):
        expected = np.kron(f[:, 1], expected)
    assert np.abs(psi - expected).max() < 1e-12


def test_loschmidt_zero_time():
    model = _model(n_q=1)
    assert u.loschmidt(model, u.TrotterPlan(1, 0.1, 0)) == 1.0


def test_loschmidt_large_coupling_2x3():
    lat = u.LatticeSpec(2, 3)
    model = _model(n_q=1, g=20.0, lat=lat)
    plan = u.TrotterPlan(1, 0.1, 2)
    assert u.loschmidt(model, plan) > 0.9


def test_loschmidt_small_step_matches_exact():
    model = _model(n_q=1, g=1.0)
    t = 0.2
    plan = u.TrotterPlan(1, 1e-3, 200)
    psi0 = u.electric_ground_state(model)
    exact = u.exact_evolution(model, t)
    reference = abs(np.vdot(psi0, exact @ psi0)) ** 2
    assert u.loschmidt(model, plan) == pytest.approx(reference, abs=1e-3)


def test_exact_evolution_unitary():
    model = _model(n_q=2)
    mat = u.exact_evolution(model, 0.0)
    assert np.abs(mat - np.eye(mat.shape[0])).max() < 1e-12
    mat = u.exact_evolution(model, 0.7)
    assert np.abs(mat @ mat.conj().T - np.eye(mat.shape[0])).max() < 1e-10


def test_exact_evolution_commuting_limit():
    # with the magnetic diagonal removed, evolution is the Fourier-conjugated
    # electric phase exactly
    model = _model(n_q=1)
    e_diag, _ = u.dense_diagonals(model)
    h_e = u.dense_electric(model)
    vals, vecs = np.linalg.eigh(h_e)
    t = 0.453
    direct = (vecs * np.exp(-1j * vals * t)[None, :]) @ vecs.conj().T
    f1 = u.ft_matrix(1)
    f = np.kron(np.kron(f1, f1), f1)
    conjugated = (f * np.exp(-1j * e_diag * t)[None, :]) @ f.conj().T
    assert np.abs(direct - conjugated).max() < 1e-10


def test_qasm_round_trip_random(rng):
    for _ in range(10):
        circ = _random_circuit(rng, 3, gates=20)
        text = u.export_qasm(circ)
        back = u.read_qasm(text)
        assert back.gates == circ.gates
        assert back.global_phase == pytest.approx(circ.global_phase, abs=1e-15)
        dev = np.abs(u.circuit_unitary(back) - u.circuit_unitary(circ)).max()
        assert dev < 1e-12


def test_qasm_round_trip_file(tmp_path):
    series = u.WalshSeries(3, {3: 0.4, 5: -0.2, 6: 0.9})
    circ = u.truncated_circuit(series, 0.1)
    path = tmp_path / "step.qasm"
    u.export_qasm(circ, path)
    back = u.load_qasm(path)
    assert np.abs(u.circuit_unitary(back) - u.circuit_unitary(circ)).max() < 1e-12


def test_qasm_reader_rejects_unknown():
    with pytest.raises(ValueError, match="unsupported"):
        u.read_qasm('OPENQASM 2.0;\nqreg q[2];\nccx q[0],q[1];\n')


def test_loschmidt_invariant_under_global_phase():
    model = _model(n_q=1, g=2.0)
    plan = u.TrotterPlan(1, 0.1, 2)
    base = u.loschmidt(model, plan)
    step = u.step_circuit(model, plan)
    step.global_phase += 1.234
    psi0 = u.electric_ground_state(model)
    psi = psi0
    for _ in range(plan.steps):
        psi = u.apply(step, psi)
    assert abs(np.vdot(psi0, psi)) ** 2 == pytest.approx(base, abs=1e-12)


def _gate_level_survival(model, plan):
    """The reference: the step circuit applied gate by gate."""
    psi0 = u.electric_ground_state(model)
    psi = psi0
    step = u.step_circuit(model, plan)
    for _ in range(plan.steps):
        psi = u.apply(step, psi)
    return abs(np.vdot(psi0, psi)) ** 2


@st.composite
def _small_runs(draw):
    n_x, n_y = draw(st.sampled_from([(2, 2), (2, 3)]))
    lat = u.LatticeSpec(n_x, n_y)
    n_q = draw(st.integers(1, 3 if lat.n_p == 3 else 2))  # at most 10 qubits
    basis = draw(st.sampled_from(["original", "weaved"]))
    weave = None
    if basis == "weaved":
        seed = draw(st.integers(0, 2**32 - 1))
        q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(lat.n_p, lat.n_p)))
        weave = u.weave_from_matrix(q)
    formulation = draw(st.sampled_from(["compact", "non-compact"]))
    g = draw(st.floats(0.2, 3.0))
    model = u.build_model(lat, u.digitize(lat.n_p, n_q, g, formulation, basis, weave), weave)
    policy = st.builds(u.ThetaPolicy, st.sampled_from(["abs", "dt"]),
                       st.one_of(st.just(0.0), st.floats(0.0, 1.0)))
    order, dt, steps = (draw(st.sampled_from([1, 2])), draw(st.floats(0.01, 0.5)),
                        draw(st.integers(0, 3)))
    plans = [u.TrotterPlan(order, dt, steps, draw(policy), draw(policy))
             for _ in range(draw(st.integers(1, 3)))]
    return model, plans


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_small_runs())
def test_loschmidt_matches_gate_level_oracle(run):
    # every lane of a cutoff sweep is the oracle's survival, and bit for bit the
    # one-plan evolution: a batched FFT rounds each lane as an unbatched one does
    model, plans = run
    swept = u.loschmidt_sweep(model, plans)
    assert len(swept) == len(plans)
    for plan, value in zip(plans, swept):
        assert abs(value - _gate_level_survival(model, plan)) <= 1e-12
        assert value == u.loschmidt(model, plan)


def test_loschmidt_sweep_rejects_bad_plan_lists():
    model = _model(n_q=1)
    with pytest.raises(ValueError, match="at least one plan"):
        u.loschmidt_sweep(model, [])
    base = u.TrotterPlan(1, 0.1, 2)
    for other in (u.TrotterPlan(2, 0.1, 2), u.TrotterPlan(1, 0.2, 2), u.TrotterPlan(1, 0.1, 3)):
        with pytest.raises(ValueError, match="share order, dt and steps"):
            u.loschmidt_sweep(model, [base, other])


def test_loschmidt_sweep_batches_lanes_under_the_state_cap(monkeypatch):
    # a budget of the shared part and two lanes: five plans take three batches
    model = _model(n_q=2)  # 6 qubits
    plans = [u.TrotterPlan(2, 0.1, 2, u.ThetaPolicy("abs", k), u.ThetaPolicy("abs", k / 2))
             for k in (0.0, 0.03, 0.1, 0.3, 1.0)]
    whole = u.loschmidt_sweep(model, plans)
    monkeypatch.setattr(u.lattice, "MEMORY_BUDGET", (4 + 2 * 6) * 16 << 6)
    lanes, conjugate = [], u.simulator.fourier_conjugate  # lanes of each electric factor applied
    monkeypatch.setattr(u.simulator, "fourier_conjugate",
                        lambda phase, psi, n_p: lanes.append(len(phase)) or conjugate(phase, psi, n_p))
    assert u.loschmidt_sweep(model, plans) == whole
    assert lanes == [2] * 4 + [2] * 4 + [1] * 4  # two steps of E B E per batch
    assert whole == [u.loschmidt(model, plan) for plan in plans]
    assert len(set(whole)) == len(whole)


def test_loschmidt_state_limit():
    # the shared part and one lane take ten states: 24 qubits exceed the budget
    model = _model(n_q=3, lat=u.LatticeSpec(3, 3))  # 24 qubits
    with pytest.raises(u.ResourceLimitError, match=f"24-qubit Loschmidt sweep needs {160 << 24} B, "
                                                   f"over the {1 << 31} B budget"):
        u.loschmidt(model, u.TrotterPlan(1, 0.1, 1))


_ANGLE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _gate_tables(draw):
    """Random circuits over all five gate kinds."""
    width = draw(st.integers(2, 6))
    phase, gates = draw(_ANGLE), []
    for kind in draw(st.lists(st.sampled_from(u.circuits.GATE_NAMES), max_size=30)):
        a, b = draw(st.lists(st.integers(0, width - 1), min_size=2, max_size=2, unique=True))
        qubits = (a,) if kind in ("rz", "h") else (a, b)
        gates.append(u.Gate(kind, qubits, draw(_ANGLE) if kind in ("rz", "cu1") else None))
    return u.Circuit(width, gates, phase)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_gate_tables(), st.randoms(use_true_random=False))
def test_qasm_round_trip_with_noise(circ, rnd):
    # blank lines, // comments and extra spaces around and inside lines are skipped,
    # and the phase comment may stand anywhere, after the qreg and the gates too
    lines = u.export_qasm(circ).splitlines()
    if rnd.random() < 0.3:
        phase = lines.pop(2)
        lines.insert(rnd.randint(3, len(lines)), phase)
    noisy = []
    for line in lines:
        if rnd.random() < 0.2:
            noisy.append(rnd.choice(["", "// a comment", "  //comment q[0];", "\t"]))
        if line.startswith(tuple(u.circuits.GATE_NAMES)) and rnd.random() < 0.5:
            line = line.replace(" q[", rnd.choice(["  q[", "\t q["]), 1)
        noisy.append(rnd.choice(["", " ", "\t"]) + line + rnd.choice(["", "  ", "\t"]))
    back = u.read_qasm("\n".join(noisy) + rnd.choice(["", "\n"]))
    assert back.width == circ.width
    assert back.gates == circ.gates and back.gates == list(circ.gates)
    assert back.global_phase == circ.global_phase


def _on_two_qubits(line):
    return f'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\n{line}\n'


def _build(*gate):
    return lambda: u.Circuit(2, [u.Gate(*gate)])


@pytest.mark.parametrize("text, build", [
    (_on_two_qubits("ccx q[0],q[1];"), _build("ccx", (0, 1))),  # unknown gate
    (_on_two_qubits("cx q[0];"), _build("cx", (0,))),  # wrong arity
    (_on_two_qubits("h q[0],q[1];"), _build("h", (0, 1))),
    (_on_two_qubits("rz q[0];"), _build("rz", (0,))),  # missing angle
    (_on_two_qubits("h(0.1) q[0];"), _build("h", (0,), 0.1)),  # extra angle
    (_on_two_qubits("cx q[0],q[1],q[2];"), _build("cx", (0, 1, 2))),  # three qubits
    (_on_two_qubits("h;"), _build("h", ())),  # no qubits
    (_on_two_qubits("rz(0.1) q[2];"), _build("rz", (2,), 0.1)),  # qubit out of range
    (_on_two_qubits("swap q[0],q[5];"), _build("swap", (0, 5))),
    (_on_two_qubits("cx q[1],q[1];"), _build("cx", (1, 1))),  # repeated qubit
    (_on_two_qubits("rz(1e999) q[0];"), _build("rz", (0,), float("1e999"))),  # non-finite angle
    (_on_two_qubits("cu1(1e) q[0],q[1];"), _build("cu1", (0, 1), float("nan"))),
    ("qreg q[3];\nrz(0.1) q[3];\n", _build("rz", (-1,), 0.1)),
    # non-integer qubits and widths used to be cast to int64 (1.7 and "1" meant qubit 1)
    (_on_two_qubits("rz(0.1) q[1.7];"), _build("rz", (1.7,), 0.1)),
    (_on_two_qubits("rz(0.1) q[\"1\"];"), _build("rz", ("1",), 0.1)),
    (_on_two_qubits("cx q[0],q[1.0];"), _build("cx", (0, 1.0))),
    (_on_two_qubits("rz(0.1) q[0.7];"), lambda: u.Circuit.from_columns(2, [0.7], [0], [-1], [0.1])),
    ("qreg q[2.5];\n", lambda: u.Circuit(2.5)),
    ("qreg q[-1];\n", lambda: u.Circuit(-1)),
    ('qreg q["2"];\n', lambda: u.Circuit("2")),
    ("// global_phase: 1e999\nqreg q[2];\n", lambda: u.Circuit(2, global_phase=float("1e999"))),
    ("qreg q[2];\n// global_phase: nan\n", lambda: u.Circuit(2, global_phase=float("nan"))),
    ("qreg q[2];\nh q[0];\nqreg q[3];\nh q[2];\n", None),  # a second qreg
    ("rz(0.1) q[0];\nqreg q[2];\n", None),  # a gate before qreg
    ("cx q[0],q[1];\n", None),
    ('OPENQASM 2.0;\ninclude "qelib1.inc";\n// global_phase: 0.5\n', None),  # no qreg
    ("", None),
])
def test_bad_gate_tables_rejected(text, build):
    with pytest.raises(ValueError):
        u.read_qasm(text)
    if build is not None:
        with pytest.raises(ValueError):
            build()


@pytest.mark.parametrize("line", [
    "rz(1.2.3) q[0];",
    "cu1(1e) q[0],q[1];",
    "rz(--1) q[1];",
    "// global_phase: abc",
])
def test_number_errors_name_their_line(line):
    # the message quotes the stripped line, wherever it stands among 500 others
    gates = "h q[0];\n" * 250
    text = f"OPENQASM 2.0;\nqreg q[2];\n{gates} \t{line}  \n{gates}"
    with pytest.raises(ValueError, match=re.escape(repr(line))):
        u.read_qasm(text)


@pytest.mark.parametrize("text, line", [
    (_on_two_qubits("h q[١];"), "h q[١];"),  # Arabic-Indic 1
    (_on_two_qubits("cx q[0],q[١];"), "cx q[0],q[١];"),
    ("qreg q[٣];\n", "qreg q[٣];"),  # Arabic-Indic 3
    ("qreg q[２];\n", "qreg q[２];"),  # fullwidth 2
])
def test_reader_takes_ascii_digits_only(text, line):
    with pytest.raises(ValueError, match=re.escape(f"unsupported QASM line: {line!r}")):
        u.read_qasm(text)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.text(alphabet="-+0123456789.eE", min_size=1, max_size=12))
def test_angle_reads_as_python_float(number):
    # an angle is read exactly when float() takes it; any other number makes the line unsupported
    line = f"rz({number}) q[0];"
    text = f"qreg q[1];\n{line}\n"
    try:
        value = float(number)
    except ValueError:
        with pytest.raises(ValueError, match=re.escape(f"unsupported QASM line: {line!r}")):
            u.read_qasm(text)
        return
    if np.isinf(value):
        with pytest.raises(ValueError, match=re.escape(f"non-finite angle: {line!r}")):
            u.read_qasm(text)
    else:
        assert u.read_qasm(text).angle.view(np.int64)[0] == np.float64(value).view(np.int64)


def test_long_qubit_indices():
    # past 18 digits an index may not fit 64 bits; leading zeros still read
    assert u.read_qasm(_on_two_qubits("cx q[0000000000000000000000001],q[00];")).gates == [
        u.Gate("cx", (1, 0))]
    largest = "h q[9223372036854775807];"
    with pytest.raises(ValueError, match=re.escape(f"qubit outside the register: {largest!r}")):
        u.read_qasm(_on_two_qubits(largest))
    with pytest.raises(ValueError, match="qubit index beyond 64 bits"):
        u.read_qasm(_on_two_qubits("h q[9223372036854775808];"))


def test_reader_keeps_unicode_whitespace_and_line_breaks():
    # only the digits are ASCII: the spacing and the line breaks str.splitlines knows still read
    text = ("OPENQASM 2.0;\r\n\u3000qreg q[2];\u2028rz(0.5)\xa0q[1];\x0c\tcx\u2003q[0],q[1];\r"
            "// global_phase: -0.25\x85h q[0];\x1e")
    circ = u.read_qasm(text)
    assert circ.width == 2 and circ.global_phase == -0.25
    assert circ.gates == [u.Gate("rz", (1,), 0.5), u.Gate("cx", (0, 1)), u.Gate("h", (0,))]


def _bits_of(circ):
    # every angle bit for bit, the NaN that marks an absent angle included
    return (circ.width, circ.kind.tobytes(), circ.q0.tobytes(), circ.q1.tobytes(),
            circ.angle.tobytes(), np.float64(circ.global_phase).view(np.int64))


_EDGE_ANGLES = [-0.0, 0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072009e-308,
                2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308,
                np.pi, -1e-300, 1e300, 123456789.0]


@pytest.mark.parametrize("width", [65, 126, 2046])
def test_qasm_round_trip_is_bit_exact(rng, width):
    # gates ==, which compares angles with array_equal, would let -0.0 come back as 0.0
    n = 600
    finite = rng.integers(-2**63, 2**63 - 1, size=4 * n, dtype=np.int64).view(np.float64)
    finite = finite[np.isfinite(finite)][:n]
    angles = np.concatenate([_EDGE_ANGLES, finite])
    kinds = rng.choice(list(u.circuits.GATE_NAMES), size=len(angles))
    gates = []
    for name, angle in zip(kinds.tolist(), angles.tolist()):
        a, b = rng.choice(width, size=2, replace=False).tolist()
        arity, angled = u.circuits.GATE_FORMS[name]
        gates.append(u.Gate(name, (a, b)[:arity], angle if angled else None))
    gates += [u.Gate("rz", (width - 1,), angle) for angle in _EDGE_ANGLES]
    for phase in (-0.0, 5e-324, -1.7976931348623157e308):
        circ = u.Circuit(width, gates, phase)
        assert _bits_of(u.read_qasm(u.export_qasm(circ))) == _bits_of(circ)


def test_step_qasm_round_trip_is_bit_exact():
    # the second case of test_circuits.GOLDEN_STEP_QASM
    lattice = u.LatticeSpec(2, 2)
    model = u.build_model(lattice, u.digitize(lattice.n_p, 3, 0.8, "non-compact", "original"))
    theta = u.ThetaPolicy("dt", 0.05)
    step = u.step_circuit(model, u.TrotterPlan(2, 0.1, 1, theta, theta))
    assert _bits_of(u.read_qasm(u.export_qasm(step))) == _bits_of(step)

"""Statevector evolution, the gate-level oracle, and exact reference evolution.

Basis states are little-endian: bit q of the state index is qubit q.
`loschmidt` evolves by the Trotter step's fused form: each diagonal factor
is one elementwise phase exp(i * state_values(kept series)), and the
electric factor is conjugated by per-plaquette FFTs over the state reshaped
to one axis per plaquette.  The factors are applied in `trotter.SPLITTING`
order, as the step circuit applies them.  Sequency-ordered synthesis
realizes exactly these phases, so the result is the step circuit's, up to
rounding.  `loschmidt_sweep` evolves a list of plans that differ only in
their cutoffs from one ground state and one untruncated factor series pair,
each plan one lane of a stacked state; `loschmidt` is its one-plan case.

`apply` and `circuit_unitary` run circuits gate by gate, one row of the
gate table at a time (index arithmetic per gate, no gate matrices, the
recorded global phase included); they are the oracle that the fused path is
tested against.  `read_qasm` parses a whole QASM text, as `export_qasm`
writes it, into the table's columns at once: after `str.splitlines` and
`str.strip`, one regex substitution checks every parsed gate line whole,
and numpy reads the fields from the positions of their delimiters in the
parsed lines' bytes, with no tuple or field string per gate line.  When at
most `circuits.QASM_DISTINCT_SHARE` of the first `circuits.QASM_SAMPLE`
lines are distinct, only the distinct lines are parsed, in first-seen
order (so the first bad one is the text's first).  Qubit indices and the
register width are ASCII digits, and an angle is a Python float literal; a
gate line with anything else is an unsupported line.  One qreg comes
before any gate, and the text's last ``// global_phase:`` sets the phase.
"""

from __future__ import annotations

import itertools
import re

import numpy as np

from . import circuits
from .circuits import CU1, CX, GATE_NAMES, H, RZ, SWAP, Circuit, table_error
from .hamiltonian import HamiltonianModel, dense_matrix, fourier_conjugate, ft_matrix
from .lattice import r_grid, reserve
from .trotter import SPLITTING, TrotterPlan, factor_series, truncate_factors
from .walsh import state_values


def _apply_gates(circuit: Circuit, arr: np.ndarray) -> np.ndarray:
    """Apply a circuit to (dim, batch) amplitudes, one table row at a time."""
    width = circuit.width
    dim = 1 << width
    idx = np.arange(dim)
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for kind, a, b, angle in zip(*(col.tolist() for col in circuit.columns())):
        if kind == RZ:
            sign = 2 * ((idx >> a) & 1) - 1  # -1 on |0>, +1 on |1>
            arr = arr * np.exp(0.5j * angle * sign)[:, None]
        elif kind == CX:
            src = np.where((idx >> a) & 1 == 1, idx ^ (1 << b), idx)
            arr = arr[src]
        elif kind == H:
            shaped = arr.reshape(1 << (width - 1 - a), 2, -1)
            lo = shaped[:, 0, :].copy()
            hi = shaped[:, 1, :].copy()
            shaped[:, 0, :] = (lo + hi) * inv_sqrt2
            shaped[:, 1, :] = (lo - hi) * inv_sqrt2
            arr = shaped.reshape(dim, -1)
        elif kind == CU1:
            both = ((idx >> a) & (idx >> b) & 1).astype(bool)
            arr[both] = arr[both] * np.exp(1j * angle)
        elif kind == SWAP:
            differ = (((idx >> a) ^ (idx >> b)) & 1).astype(bool)
            src = np.where(differ, idx ^ ((1 << a) | (1 << b)), idx)
            arr = arr[src]
    return arr * np.exp(1j * circuit.global_phase)


def apply(circuit: Circuit, state: np.ndarray) -> np.ndarray:
    """Return circuit |state>; the input vector is not modified."""
    state = np.asarray(state, dtype=complex)
    if state.shape != (1 << circuit.width,):
        raise ValueError(
            f"state has {state.shape} amplitudes, circuit expects {1 << circuit.width}"
        )
    return _apply_gates(circuit, state.copy()[:, None])[:, 0]


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Dense unitary of a circuit, global phase included (peak: four unitaries, four columns)."""
    dim = 1 << circuit.width
    reserve(f"{circuit.width}-qubit circuit unitary", (64 << 2 * circuit.width) + 64 * dim)
    return _apply_gates(circuit, np.eye(dim, dtype=complex))


def electric_ground_state(model: HamiltonianModel) -> np.ndarray:
    """All-rotors-zero electric ground state, expressed in the magnetic basis.

    Every plaquette register sits at rotor index N/2 (the grid's single
    zero); the per-plaquette Fourier rotation maps the product state to the
    magnetic basis.  Reserves its measured peak, the last two product states.
    """
    d = model.digitization
    reserve(f"{model.n_qubits}-qubit electric ground state", 32 << model.n_qubits)
    big_n = d.n_states
    if big_n % 2 != 0:
        raise ValueError("rotor grid has no zero for odd sample counts")
    for p in range(model.n_p):
        if abs(r_grid(d, p)[big_n // 2]) > 1e-12:
            raise AssertionError("rotor grid zero is not at index N/2")
    f_column = ft_matrix(d.n_q)[:, big_n // 2]
    psi = np.ones(1, dtype=complex)
    for _ in range(model.n_p):
        psi = np.kron(f_column, psi)  # plaquette 0 least significant
    return psi


def loschmidt(model: HamiltonianModel, plan: TrotterPlan) -> float:
    """|<psi_E| U(t) |psi_E>|^2 under plan.steps Trotter steps, by fused phases.

    U is the unitary of `step_circuit(model, plan)`, evaluated without
    gates: the magnetic factor multiplies the state by exp(i * b), the
    electric factor by F exp(i * e) F^dagger (`fourier_conjugate`, the
    operator dense Hamiltonians are built with), with b and e the state
    values of the kept factor series (`trotter.truncate_factors`) and F the
    per-plaquette Fourier transform F[l, m] = w^{lm} / sqrt(N).  Each step
    applies the factors in `SPLITTING` order.  Mask-0 coefficients stay in
    the phases as the circuit's global phase.  Applying `step_circuit` gate
    by gate with `apply` is the reference.  This is the one-plan case of
    `loschmidt_sweep`.
    """
    return loschmidt_sweep(model, [plan])[0]


def loschmidt_sweep(model: HamiltonianModel, plans) -> list[float]:
    """`loschmidt` at each of a list of plans that differ only in their cutoffs.

    The plans share order, dt and steps, so the electric ground state and
    the untruncated `factor_series` are built once, and each plan truncates
    that one pair (`trotter.truncate_factors`).  Every plan is one lane of
    a stacked state, as many per batch as `lattice.MEMORY_BUDGET` holds at four states
    shared and six per lane (phases, state, FFT temporaries): one lane up to 23 qubits.
    """
    plans = list(plans)
    if not plans:
        raise ValueError("a sweep needs at least one plan")
    order, dt, steps = plans[0].order, plans[0].dt, plans[0].steps
    if any((plan.order, plan.dt, plan.steps) != (order, dt, steps) for plan in plans):
        raise ValueError("the plans of a sweep must share order, dt and steps")
    state = 16 << model.n_qubits
    spare = reserve(f"{model.n_qubits}-qubit Loschmidt sweep", (4 + 6) * state)
    psi0 = electric_ground_state(model)
    if steps == 0:
        return [1.0] * len(plans)
    factors = factor_series(model, plans[0])
    shape = (model.digitization.n_states,) * model.n_p
    lanes, survival = 1 + spare // (6 * state), []
    for start in range(0, len(plans), lanes):
        batch = [truncate_factors(factors, plan) for plan in plans[start:start + lanes]]
        phase_e, phase_b = (  # one row per lane
            np.exp(1j * np.stack([state_values(kept) for kept, _ in column])).reshape(-1, *shape)
            for column in zip(*batch))
        psi = psi0.reshape(shape)  # broadcast to every lane by the first factor
        for _ in range(steps):
            for name in SPLITTING[order]:
                psi = fourier_conjugate(phase_e, psi, model.n_p) if name == "E" else phase_b * psi
        survival += [float(abs(np.vdot(psi0, lane.ravel())) ** 2) for lane in psi]
    return survival


def exact_evolution(model: HamiltonianModel, t: float) -> np.ndarray:
    """Dense exp(-i H t) via eigendecomposition; the error-measurement oracle."""
    # beyond the matrix: eigh's copy and workspace, the eigenvectors, two products, the result
    reserve(f"{model.n_qubits}-qubit exact evolution", 112 << 2 * model.n_qubits)
    h = dense_matrix(model)
    vals, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(-1j * vals * t)[None, :]) @ vecs.conj().T


_QASM_PHASE = re.compile(r"^//\s*global_phase:\s*(\S+)\s*$")
_QASM_QREG = re.compile(r"^qreg\s+q\[([0-9]+)\];$")
# a decimal number with the syntax Python's float() accepts, ASCII digits only
_QASM_FLOAT = r"[-+]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][-+]?[0-9]+)?"
# one whole stripped gate line with its newline; [^\S\n] is \s without the newline
_QASM_GATE = re.compile(
    rf"^(?:{'|'.join(GATE_NAMES)})(?:\({_QASM_FLOAT}\))?[^\S\n]+q\[[0-9]+\](?:,q\[[0-9]+\])?;\n",
    re.MULTILINE)
# byte -> 1..5 for the field delimiters ( ) [ ] ; of a gate line, 0 for every other byte
_DELIMITERS = b"()[];"
_DELIMITER_CODE = bytes(_DELIMITERS.find(b) + 1 for b in range(256))
_OPEN_ANGLE, _CLOSE_QUBIT, _END = (_DELIMITERS.index(c) + 1 for c in b"(];")
# gate kind by the first two bytes of a gate line (a one-letter name fills its whole row)
_KIND_OF = np.zeros((256, 256), np.uint8)
for _kind, _name in enumerate(GATE_NAMES):
    _KIND_OF[ord(_name[0]), ord(_name[1]) if len(_name) > 1 else slice(None)] = _kind


def read_qasm(text: str) -> Circuit:
    """Parse the OpenQASM 2.0 subset written by `circuits.export_qasm`.

    The lines are those of `str.splitlines`, stripped.  The gate lines are
    checked and read as whole columns (see the module docstring); the few
    other lines are read one by one.  The text declares one qreg, before any
    gate, and the last ``// global_phase:`` comment, wherever it stands,
    sets the phase.  Every error is a ValueError; one about a line quotes it.
    """
    raw, parsed_gate, row = _marked_lines(text)
    starts, ends = _lines(np.frombuffer(raw, np.uint8))

    def line_text(i: int, parsed: bool = False) -> str:  # line i of the text or the parsed lines
        j = i if parsed or row is None else row[i]
        return raw[starts[j]:ends[j]].decode("utf-8", "surrogatepass")

    try:
        kind, q0, q1, angle = _gate_fields(raw, starts, ends, parsed_gate)
    except OverflowError as exc:
        raise ValueError(f"qubit index beyond 64 bits: {exc}") from exc
    gate = parsed_gate if row is None else parsed_gate[row]
    qreg, phase = None, 0.0  # (line, width) of the qreg declaration
    for i in np.flatnonzero(~gate).tolist():
        line = line_text(i)
        m = _QASM_PHASE.match(line)
        if m:
            try:
                phase = float(m.group(1))
            except ValueError as exc:
                raise ValueError(f"{exc}: {line!r}") from None
        elif line and not line.startswith(("OPENQASM", "include", "//")):
            m = _QASM_QREG.match(line)
            if m is None:
                raise ValueError(f"unsupported QASM line: {line!r}")
            if qreg is not None:
                raise ValueError(f"second qreg declaration: {line!r}")
            qreg = i, int(m.group(1))
    if qreg is None:
        raise ValueError("no qreg declaration found")
    first = np.argmax(gate)
    if gate.any() and first < qreg[0]:
        raise ValueError(f"gate before qreg declaration: {line_text(first)!r}")
    error = table_error(qreg[1], kind, q0, q1, angle)
    if error is not None:
        raise ValueError(f"{error[1]}: {line_text(np.flatnonzero(parsed_gate)[error[0]], True)!r}")
    if row is not None:
        pick = (np.cumsum(parsed_gate) - 1)[row[gate]]
        kind, q0, q1, angle = (col[pick] for col in (kind, q0, q1, angle))
    return Circuit.from_columns(qreg[1], kind, q0, q1, angle, phase)


def _marked_lines(text: str) -> tuple[bytes, np.ndarray, np.ndarray | None]:
    """The parsed lines as UTF-8, each ended by a newline, which are gate lines, and each line's row.

    The parsed lines are the stripped `str.splitlines`, or their distinct ones
    (see the module docstring), where ``row`` holds each line's index, else None.
    One substitution checks every parsed gate line whole against the gate
    regex and marks it as " ", which no stripped line can be.
    """
    lines = [*map(str.strip, text.splitlines())]
    sample, row = lines[:circuits.QASM_SAMPLE], None
    if len(set(sample)) <= circuits.QASM_DISTINCT_SHARE * len(sample):
        index = dict(zip(dict.fromkeys(lines), itertools.count()))  # in first-seen order
        row = np.fromiter(map(index.__getitem__, lines), np.intp, len(lines))
        lines = list(index)
    lines.append("")
    body = "\n".join(lines)
    del lines, sample  # before the substitution and the encodings
    marks = np.frombuffer(_QASM_GATE.sub(" \n", body).encode("utf-8", "surrogatepass"), np.uint8)
    return body.encode("utf-8", "surrogatepass"), marks[_lines(marks)[0]] == ord(" "), row


def _lines(buf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(start, end) byte offsets of the lines of a buffer whose every line ends with a newline."""
    ends = np.flatnonzero(buf == ord("\n"))
    return np.concatenate(([0], ends + 1))[:len(ends)], ends


def _gate_fields(raw: bytes, starts, ends, gate) -> tuple[np.ndarray, ...]:
    """The (kind, q0, q1, angle) columns of the gate lines, which the gate regex has checked.

    Each field lies between two delimiters.  A gate line's delimiters are
    ``( ) [ ] ;``, ``( ) [ ] [ ] ;``, ``[ ] ;`` or ``[ ] [ ] ;``, so they are
    found by their place before the line's ``;`` or after the previous one.
    """
    data = np.frombuffer(raw, np.uint8)
    at, sym = _delimiters(raw, starts[~gate], ends[~gate])
    end = np.flatnonzero(sym == _END)
    line_start = starts[gate]
    kind = _KIND_OF[data[line_start], data[line_start + 1]]
    two = sym[end - 3] == _CLOSE_QUBIT  # "] [ ] ;" ends the line
    q0_open = np.where(two, end - 4, end - 2)
    q0 = _integers(raw, data, at[q0_open], at[q0_open + 1])
    q1 = np.full(len(kind), -1, np.int64)
    q1[two] = _integers(raw, data, at[end[two] - 2], at[end[two] - 1])
    first = np.concatenate(([0], end + 1))[:len(end)]
    angled = sym[first] == _OPEN_ANGLE
    angle = np.full(len(kind), np.nan)
    angle[angled] = _floats(data, at[first[angled]], at[first[angled] + 1])
    return kind, q0, q1, angle


def _delimiters(raw: bytes, skip_starts, skip_ends) -> tuple[np.ndarray, np.ndarray]:
    """Positions and codes of the field delimiters outside the byte spans [skip_start, skip_end)."""
    code = np.frombuffer(raw.translate(_DELIMITER_CODE), np.uint8)
    at = np.flatnonzero(code != 0)
    at = at[~_in_spans(len(at), np.searchsorted(at, skip_starts), np.searchsorted(at, skip_ends))]
    return at, code[at]


def _in_spans(size: int, starts, stops) -> np.ndarray:
    """Mask of ``size`` items, True inside the sorted, disjoint spans [start, stop)."""
    runs = np.empty(2 * len(starts) + 1, np.int64)
    runs[0::2] = np.append(starts, size) - np.insert(stops, 0, 0)
    runs[1::2] = stops - starts
    return np.repeat(np.arange(runs.size) % 2 == 1, runs)


def _integers(raw: bytes, data: np.ndarray, opens, closes) -> np.ndarray:
    """The ASCII decimal integers between each opening and closing delimiter, as int64.

    Up to 18 digits, digit k from the right adds ``d * 10**k``; a longer
    run, which may not fit, goes through Python's int, and overflow raises
    OverflowError.
    """
    digits = closes - opens - 1
    value = data[closes - 1].astype(np.int64) - ord("0")
    for k in range(1, min(int(digits.max(initial=0)), 18)):
        live = np.flatnonzero(digits > k)
        value[live] += (data[closes[live] - 1 - k].astype(np.int64) - ord("0")) * 10**k
    for i in np.flatnonzero(digits > 18).tolist():
        value[i] = int(raw[opens[i] + 1:closes[i]])
    return value


def _floats(data: np.ndarray, opens, closes) -> np.ndarray:
    """The decimal numbers between each '(' and ')', read as Python's float() reads them.

    The numbers are cut out of the text with their ')', which becomes the
    space that separates them for `np.fromstring`.
    """
    if not len(opens):
        return np.empty(0)
    numbers = data[_in_spans(len(data), opens + 1, closes + 1)]
    numbers[numbers == ord(")")] = ord(" ")
    return np.fromstring(numbers.tobytes(), sep=" ")


def load_qasm(path) -> Circuit:
    with open(path) as fh:
        return read_qasm(fh.read())

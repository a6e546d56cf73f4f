"""Statevector evolution, the gate-level oracle, and exact reference evolution.

Basis states are little-endian: bit q of the state index is qubit q.
`loschmidt` evolves by the Trotter step's fused form: each diagonal factor
is one elementwise phase exp(i * state_values(kept series)), and the
electric factor is conjugated by per-plaquette FFTs over the state reshaped
to one axis per plaquette.  The factors are applied in `trotter.SPLITTING`
order, as the step circuit applies them.  Sequency-ordered synthesis
realizes exactly these phases, so the result is the step circuit's, up to
rounding.

`apply` and `circuit_unitary` run circuits gate by gate, one row of the
gate table at a time (index arithmetic per gate, no gate matrices, the
recorded global phase included); they are the oracle that the fused path is
tested against.  `read_qasm` parses a whole QASM text, as `export_qasm`
writes it, into the table's columns at once: one qreg before any gate, and
the last ``// global_phase:`` comment sets the phase.
"""

from __future__ import annotations

import re
from operator import itemgetter

import numpy as np

from .circuits import CU1, CX, GATE_NAMES, H, RZ, SWAP, Circuit, table_error
from .hamiltonian import (
    TERM_LIMIT_QUBITS,
    HamiltonianModel,
    dense_matrix,
    fourier_conjugate,
    ft_matrix,
)
from .lattice import ResourceLimitError, r_grid
from .trotter import SPLITTING, TrotterPlan, truncated_factor_series
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
    """Dense unitary of a circuit, global phase included."""
    dim = 1 << circuit.width
    return _apply_gates(circuit, np.eye(dim, dtype=complex))


def electric_ground_state(model: HamiltonianModel) -> np.ndarray:
    """All-rotors-zero electric ground state, expressed in the magnetic basis.

    Every plaquette register sits at rotor index N/2 (the grid's single
    zero); the per-plaquette Fourier rotation maps the product state to the
    magnetic basis.
    """
    d = model.digitization
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
    values of `truncated_factor_series` and F the per-plaquette Fourier
    transform F[l, m] = w^{lm} / sqrt(N).  Each step applies the factors
    in `SPLITTING` order.  Mask-0 coefficients stay in the phases as the
    circuit's global phase.  Applying `step_circuit` gate by gate with
    `apply` is the reference.
    """
    n = model.n_qubits
    if n > TERM_LIMIT_QUBITS:
        raise ResourceLimitError(
            f"register spans {n} qubits, above the state limit of {TERM_LIMIT_QUBITS}: "
            f"one state takes {16 << n} B"
        )
    psi0 = electric_ground_state(model)
    if plan.steps == 0:
        return 1.0
    (kept_e, _), (kept_b, _) = truncated_factor_series(model, plan)
    shape = (model.digitization.n_states,) * model.n_p
    phase_e = np.exp(1j * state_values(kept_e)).reshape(shape)
    phase_b = np.exp(1j * state_values(kept_b)).reshape(shape)
    factors = {"E": lambda psi: fourier_conjugate(phase_e, psi), "B": lambda psi: phase_b * psi}
    psi = psi0.reshape(shape)
    for _ in range(plan.steps):
        for name in SPLITTING[plan.order]:
            psi = factors[name](psi)
    return float(abs(np.vdot(psi0, psi.ravel())) ** 2)


def exact_evolution(model: HamiltonianModel, t: float) -> np.ndarray:
    """Dense exp(-i H t) via eigendecomposition; the error-measurement oracle."""
    h = dense_matrix(model)
    vals, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(-1j * vals * t)[None, :]) @ vecs.conj().T


_QASM_PHASE = re.compile(r"^//\s*global_phase:\s*(\S+)\s*$")
_QASM_QREG = re.compile(r"^qreg\s+q\[(\d+)\];$")
# one match per stripped line: a gate's (name, angle, q0, q1), or four empty groups;
# [^\S\n] is \s without the newline, so no match runs into the next line
_QASM_LINE = re.compile(
    rf"^(?:({'|'.join(GATE_NAMES)})(?:\(([-+0-9.eE]+)\))?[^\S\n]+q\[(\d+)\](?:,q\[(\d+)\])?;|.*)$",
    re.MULTILINE)


def read_qasm(text: str) -> Circuit:
    """Parse the OpenQASM 2.0 subset written by `circuits.export_qasm`.

    One multiline `findall` over the stripped lines yields every gate line's
    fields, cast as whole columns; the few other lines are read one by one.
    The text declares one qreg, before any gate, and the last
    ``// global_phase:`` comment, wherever it stands, sets the phase.
    """
    lines = list(map(str.strip, text.splitlines()))
    rows = _QASM_LINE.findall("\n".join(lines)) if lines else []
    names, angles, q0s, q1s = (list(map(itemgetter(i), rows)) for i in range(4))
    gate = np.fromiter(map(bool, names), bool, len(names))
    kind = np.fromiter(map(GATE_NAMES.index, filter(None, names)), np.uint8)
    try:
        q0, q1 = (_column(q, gate, -1, int, np.int64) for q in (q0s, q1s))
    except OverflowError as exc:
        raise ValueError(f"qubit index beyond 64 bits: {exc}") from exc
    angle = _column(angles, gate, np.nan, float, np.float64)
    qreg, phase = None, 0.0  # (line, width) of the qreg declaration
    for i in np.flatnonzero(~gate).tolist():
        line = lines[i]
        m = _QASM_PHASE.match(line)
        if m:
            phase = float(m.group(1))
        elif line and not line.startswith(("OPENQASM", "include", "//")):
            m = _QASM_QREG.match(line)
            if m is None:
                raise ValueError(f"unsupported QASM line: {line!r}")
            if qreg is not None:
                raise ValueError(f"second qreg declaration: {line!r}")
            qreg = i, int(m.group(1))
    if qreg is None:
        raise ValueError("no qreg declaration found")
    line_of = np.flatnonzero(gate)
    if len(line_of) and line_of[0] < qreg[0]:
        raise ValueError(f"gate before qreg declaration: {lines[line_of[0]]!r}")
    error = table_error(qreg[1], kind, q0, q1, angle)
    if error is not None:
        raise ValueError(f"{error[1]}: {lines[line_of[error[0]]]!r}")
    return Circuit.from_columns(qreg[1], kind, q0, q1, angle, phase)


def _column(texts, gate, blank, cast, dtype) -> np.ndarray:
    """A field of the gate lines as a column: ``cast`` where present, ``blank`` where empty."""
    present = np.fromiter(map(bool, texts), bool, len(texts))
    out = np.full(present.size, blank, dtype)
    out[present] = np.fromiter(map(cast, filter(None, texts)), dtype)
    return out[gate]


def load_qasm(path) -> Circuit:
    with open(path) as fh:
        return read_qasm(fh.read())

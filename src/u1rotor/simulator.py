"""Statevector evolution, the gate-level oracle, and exact reference evolution.

Basis states are little-endian: bit q of the state index is qubit q.
`loschmidt` evolves by the Trotter step's fused form: each diagonal factor
is one elementwise phase exp(i * state_values(kept series)), and the
electric factor is conjugated by per-plaquette FFTs over the state reshaped
to one axis per plaquette.  Sequency-ordered synthesis realizes exactly
these phases, so the result is the step circuit's, up to rounding.

`apply` and `circuit_unitary` run circuits gate by gate (index arithmetic
per gate, no gate matrices, the recorded global phase included); they are
the oracle that the fused path is tested against.
"""

from __future__ import annotations

import re
import sys

import numpy as np

from .circuits import GATE_FORMS, Circuit, Gate
from .hamiltonian import (
    DENSE_LIMIT_QUBITS,
    TERM_LIMIT_QUBITS,
    HamiltonianModel,
    dense_matrix,
    fourier_conjugate,
    ft_matrix,
)
from .lattice import ResourceLimitError, r_grid
from .trotter import TrotterPlan, truncated_factor_series
from .walsh import state_values


def _apply_gates(circuit: Circuit, arr: np.ndarray) -> np.ndarray:
    """Apply a circuit to (dim, batch) amplitudes, gate by gate."""
    width = circuit.width
    dim = 1 << width
    idx = np.arange(dim)
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for g in circuit.gates:
        if g.name == "rz":
            q = g.qubits[0]
            sign = 2 * ((idx >> q) & 1) - 1  # -1 on |0>, +1 on |1>
            arr = arr * np.exp(0.5j * g.angle * sign)[:, None]
        elif g.name == "cx":
            c, t = g.qubits
            src = np.where((idx >> c) & 1 == 1, idx ^ (1 << t), idx)
            arr = arr[src]
        elif g.name == "h":
            q = g.qubits[0]
            shaped = arr.reshape(1 << (width - 1 - q), 2, -1)
            lo = shaped[:, 0, :].copy()
            hi = shaped[:, 1, :].copy()
            shaped[:, 0, :] = (lo + hi) * inv_sqrt2
            shaped[:, 1, :] = (lo - hi) * inv_sqrt2
            arr = shaped.reshape(dim, -1)
        elif g.name == "cu1":
            a, b = g.qubits
            both = ((idx >> a) & (idx >> b) & 1).astype(bool)
            arr[both] = arr[both] * np.exp(1j * g.angle)
        elif g.name == "swap":
            a, b = g.qubits
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
        if abs(r_grid(d, p).values[big_n // 2]) > 1e-12:
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
    transform F[l, m] = w^{lm} / sqrt(N).
    Mask-0 coefficients stay in the phases as the circuit's global phase.
    Applying `step_circuit` gate by gate with `apply` is the reference.
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
    kept_e, kept_b = truncated_factor_series(model, plan)
    shape = (model.digitization.n_states,) * model.n_p
    phase_e = np.exp(1j * state_values(kept_e)).reshape(shape)
    phase_b = np.exp(1j * state_values(kept_b)).reshape(shape)
    psi = psi0.reshape(shape)
    for _ in range(plan.steps):
        if plan.order == 1:
            psi = fourier_conjugate(phase_e, phase_b * psi)
        else:
            psi = fourier_conjugate(phase_e, phase_b * fourier_conjugate(phase_e, psi))
    return float(abs(np.vdot(psi0, psi.ravel())) ** 2)


def exact_evolution(
    model: HamiltonianModel, t: float, limit: int = DENSE_LIMIT_QUBITS
) -> np.ndarray:
    """Dense exp(-i H t) via eigendecomposition; the error-measurement oracle."""
    h = dense_matrix(model, limit)
    vals, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(-1j * vals * t)[None, :]) @ vecs.conj().T


_QASM_PHASE = re.compile(r"^//\s*global_phase:\s*([-+0-9.eE]+)\s*$")
_QASM_QREG = re.compile(r"^qreg\s+q\[(\d+)\];$")
_QASM_GATE = re.compile(r"^(\w+)(?:\(([-+0-9.eE]+)\))?\s+q\[(\d+)\](?:,q\[(\d+)\])?;$")


def read_qasm(text: str) -> Circuit:
    """Parse the OpenQASM 2.0 subset written by `circuits.export_qasm`."""
    circ = None
    phase = 0.0
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("OPENQASM") or line.startswith("include"):
            continue
        m = _QASM_PHASE.match(line)
        if m:
            phase = float(m.group(1))
            continue
        if line.startswith("//"):
            continue
        m = _QASM_QREG.match(line)
        if m:
            circ = Circuit(int(m.group(1)), global_phase=phase)
            continue
        if circ is None:
            raise ValueError(f"gate before qreg declaration: {line!r}")
        m = _QASM_GATE.match(line)
        if m is None or m.group(1) not in GATE_FORMS:
            raise ValueError(f"unsupported QASM line: {line!r}")
        name, angle, a, b = m.groups()
        qubits = (int(a),) if b is None else (int(a), int(b))
        circ._check(*qubits)
        # interned, so that every gate of a kind shares one name string
        circ.gates.append(Gate(sys.intern(name), qubits, None if angle is None else float(angle)))
    if circ is None:
        raise ValueError("no qreg declaration found")
    return circ


def load_qasm(path) -> Circuit:
    with open(path) as fh:
        return read_qasm(fh.read())

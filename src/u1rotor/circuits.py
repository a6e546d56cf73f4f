"""Compilation of Walsh series into gate circuits.

A series entry with mask ``j`` exponentiates to an Rz(-2 a_j) on the qubit
holding j's most significant bit, conjugated by CNOTs from the other set
bits.  Whole series are placed in sequency order so that consecutive
exponentials share CNOTs: one linking CNOT (control msb-1) opens each
msb group, transitions inside a group cost one CNOT per bit of the XOR of
adjacent kept masks, and the group is unwound back to a clean register at
the end.  A full series over n qubits then costs exactly 2^n - 1 Rz and
2^n - 2 CNOT gates.

The identity coefficient (mask 0) is a global phase; it is recorded on the
circuit and never becomes a gate.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from .walsh import WalshSeries, sequency_order, threshold_truncate

# gate kind -> (qubit count, takes an angle)
GATE_FORMS = {"rz": (1, True), "cx": (2, False), "h": (1, False), "cu1": (2, True), "swap": (2, False)}
GATE_NAMES = tuple(GATE_FORMS)


@dataclass(frozen=True)
class Gate:
    name: str
    qubits: tuple[int, ...]
    angle: float | None = None

    def __post_init__(self):
        if GATE_FORMS.get(self.name) != (len(self.qubits), self.angle is not None):
            raise ValueError(f"malformed gate {self.name!r} on {self.qubits}, angle {self.angle}")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"repeated qubit in {self.name} gate: {self.qubits}")
        if self.angle is not None and not math.isfinite(self.angle):
            raise ValueError(f"non-finite angle {self.angle} in {self.name} gate")


@dataclass
class Circuit:
    """Ordered gate list over a flat register, plus accumulated global phase."""

    width: int
    gates: list[Gate] = field(default_factory=list)
    global_phase: float = 0.0

    def _check(self, *qubits: int) -> None:
        for q in qubits:
            if not 0 <= q < self.width:
                raise ValueError(f"qubit {q} outside register of width {self.width}")

    def rz(self, angle: float, q: int) -> None:
        self._check(q)
        self.gates.append(Gate("rz", (q,), float(angle)))

    def cx(self, control: int, target: int) -> None:
        self._check(control, target)
        self.gates.append(Gate("cx", (control, target)))

    def h(self, q: int) -> None:
        self._check(q)
        self.gates.append(Gate("h", (q,)))

    def cu1(self, angle: float, control: int, target: int) -> None:
        self._check(control, target)
        self.gates.append(Gate("cu1", (control, target), float(angle)))

    def swap(self, a: int, b: int) -> None:
        self._check(a, b)
        self.gates.append(Gate("swap", (a, b)))

    def extend(self, other: "Circuit") -> None:
        if other.width != self.width:
            raise ValueError("register width mismatch")
        self.gates.extend(other.gates)
        self.global_phase += other.global_phase

    def shifted(self, offset: int, width: int) -> "Circuit":
        """Copy of this circuit acting on qubits offset..offset+width-1 of a wider register."""
        out = Circuit(width, global_phase=self.global_phase)
        for g in self.gates:
            out.gates.append(replace(g, qubits=tuple(q + offset for q in g.qubits)))
        out._check(*(q for g in out.gates for q in g.qubits))
        return out

    def dagger(self) -> "Circuit":
        out = Circuit(self.width, global_phase=-self.global_phase)
        for g in reversed(self.gates):
            out.gates.append(g if g.angle is None else replace(g, angle=-g.angle))
        return out


def exp_walsh(mask: int, coeff: float, n: int) -> Circuit:
    """Standalone circuit for exp(i * coeff * w_mask) on an n-qubit register.

    Rz(-2 coeff) sits on the most significant set bit; every other set bit
    contributes a mirrored CNOT pair controlled on it.
    """
    if not 0 < mask < (1 << n):
        raise ValueError(f"mask {mask} must be nonzero and fit in {n} qubits")
    target = mask.bit_length() - 1
    controls = [q for q in range(target) if mask >> q & 1]
    circ = Circuit(n)
    for c in controls:
        circ.cx(c, target)
    circ.rz(-2.0 * coeff, target)
    for c in reversed(controls):
        circ.cx(c, target)
    return circ


def _sequency_walk(series: WalshSeries):
    """``(msb, coeffs, load, unload)`` per nonzero mask in sequency order.

    ``load`` (mask words) holds the controls of the CNOTs onto the msb before
    the mask's Rz: its XOR with the previous mask of its group, or with the
    bare msb when it opens the group.  ``unload`` holds the controls undone
    after a group's last mask, and zero elsewhere.
    """
    order, msb = sequency_order(series.words)
    order, msb = order[msb >= 0], msb[msb >= 0]  # mask 0 is the global phase
    words = series.words[order]
    lead = np.zeros_like(words)
    lead[np.arange(len(msb)), msb // 64] = 1 << (msb % 64).astype(words.dtype)  # bare msb
    opens = np.diff(msb, prepend=-1) != 0  # first mask of its msb group
    closes = np.roll(opens, -1)
    load = words ^ np.where(opens[:, None], lead, np.roll(words, 1, axis=0))
    unload = np.where(closes[:, None], words ^ lead, 0)
    return msb, series.coeffs[order], load, unload


def _set_bits(words: np.ndarray):
    """(row, qubit) of every set bit of mask word rows, row by row with qubits ascending."""
    bits = np.unpackbits(words.astype("<u8").view(np.uint8), axis=1, bitorder="little")
    return np.nonzero(bits)


def exact_circuit(series: WalshSeries) -> Circuit:
    """Sequency-ordered synthesis of a series; mask 0 becomes the global phase.

    Each msb group opens with the CNOTs that load the first mask's parity
    onto the target (one linking CNOT from msb-1 for a full series), places
    one CNOT per XOR bit between adjacent masks, and unwinds the target at
    the end.  A full n-qubit series costs 2^n - 1 Rz and 2^n - 2 CNOTs; a
    single-entry series reduces to its mirrored `exp_walsh` form.
    """
    msb, coeffs, load, unload = _sequency_walk(series)
    load_row, load_bit = _set_bits(load)
    unload_row, unload_bit = _set_bits(unload)
    # per mask: loading CNOTs (qubits ascending), the Rz (control -1), unloading CNOTs (descending)
    row = np.concatenate([load_row, np.arange(len(msb)), unload_row[::-1]])
    control = np.concatenate([load_bit, np.full(len(msb), -1), unload_bit[::-1]])
    order = np.argsort(row, kind="stable")
    row, control = row[order], control[order]
    angles = (-2.0 * coeffs).tolist()
    circ = Circuit(series.n, global_phase=series.coefficient(0))
    circ.gates = [
        Gate("cx", (c, t)) if c >= 0 else Gate("rz", (t,), angles[k])
        for k, c, t in zip(row.tolist(), control.tolist(), msb[row].tolist())
    ]
    return circ


def truncated_circuit(series: WalshSeries, theta_min: float) -> Circuit:
    """Threshold-truncate, then synthesize the kept entries in sequency order.

    Truncation comes first, so adjacent kept masks already cost one CNOT per
    bit of their XOR and no cancelling CNOT pair is left to simplify.  The Rz
    count equals the number of kept nonzero-mask coefficients; the global
    phase keeps the full mask-0 coefficient regardless of the cutoff.
    """
    kept, _ = threshold_truncate(series, theta_min)
    out = exact_circuit(kept)
    out.global_phase = series.coefficient(0)
    return out


def _commutes_with_cx(cnot: Gate, other: Gate) -> bool:
    control, target = cnot.qubits
    if other.name == "rz":
        return other.qubits[0] != target
    if other.name == "cx":
        return other.qubits[0] != target and other.qubits[1] != control
    raise ValueError(f"simplify_cnots cannot handle {other.name!r} gates")


def simplify_cnots(circuit: Circuit) -> Circuit:
    """Fixed-point local rewrite: cancel CNOT pairs reachable through commuting gates.

    Handles Rz/CNOT circuits only; CNOTs sharing a target commute, which is
    what exposes the cancellations in hand-built circuits such as a row of
    mirrored `exp_walsh` blocks.  Sequency-ordered synthesis never leaves one.
    """
    for g in circuit.gates:
        if g.name not in ("rz", "cx"):
            raise ValueError(f"simplify_cnots cannot handle {g.name!r} gates")
    gates = list(circuit.gates)
    changed = True
    while changed:
        changed = False
        i = 0
        while i < len(gates):
            g = gates[i]
            cancelled = False
            if g.name == "cx":
                j = i + 1
                while j < len(gates):
                    h = gates[j]
                    if h == g:
                        del gates[j]
                        del gates[i]
                        changed = True
                        cancelled = True
                        break
                    if not _commutes_with_cx(g, h):
                        break
                    j += 1
            if not cancelled:
                i += 1
    return Circuit(circuit.width, gates, circuit.global_phase)


def sequency_gate_counts(series: WalshSeries, theta_min: float = 0.0) -> dict[str, int]:
    """Gate counts of `truncated_circuit` from its sequency walk, without building gates.

    One Rz per kept nonzero mask, one CNOT per set bit of ``load`` and ``unload``.
    """
    kept, _ = threshold_truncate(series, theta_min)
    msb, _, load, unload = _sequency_walk(kept)
    cx = int(np.bitwise_count(load).sum()) + int(np.bitwise_count(unload).sum())
    return {"rz": len(msb), "cx": cx}


def gate_count(circuit: Circuit) -> dict[str, int]:
    """Multiset gate count by kind (all kinds present, zeros included)."""
    counts = Counter(g.name for g in circuit.gates)
    return {name: counts.get(name, 0) for name in GATE_NAMES}


def qft_circuit(n: int) -> Circuit:
    """Fourier transform circuit matching the dense DFT F[l, m] = w^{lm}/sqrt(N).

    Little-endian register (qubit q carries bit q of the index), standard
    H / controlled-phase ladder with a final qubit reversal.
    """
    if n < 1:
        raise ValueError("register needs at least one qubit")
    circ = Circuit(n)
    for i in reversed(range(n)):
        circ.h(i)
        for j in reversed(range(i)):
            circ.cu1(np.pi / (1 << (i - j)), j, i)
    for i in range(n // 2):
        circ.swap(i, n - 1 - i)
    return circ


def export_qasm(circuit: Circuit, path=None) -> str:
    """OpenQASM 2.0 text for a circuit; byte-deterministic for equal inputs.

    The global phase has no QASM 2.0 representation and is carried in a
    comment line that the bundled reader understands.
    """
    lines = ['OPENQASM 2.0;', 'include "qelib1.inc";']
    lines.append(f"// global_phase: {circuit.global_phase:.17g}")
    lines.append(f"qreg q[{circuit.width}];")
    for g in circuit.gates:
        if g.name == "rz":
            lines.append(f"rz({g.angle:.17g}) q[{g.qubits[0]}];")
        elif g.name == "cx":
            lines.append(f"cx q[{g.qubits[0]}],q[{g.qubits[1]}];")
        elif g.name == "h":
            lines.append(f"h q[{g.qubits[0]}];")
        elif g.name == "cu1":
            lines.append(f"cu1({g.angle:.17g}) q[{g.qubits[0]}],q[{g.qubits[1]}];")
        elif g.name == "swap":
            lines.append(f"swap q[{g.qubits[0]}],q[{g.qubits[1]}];")
    text = "\n".join(lines) + "\n"
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text

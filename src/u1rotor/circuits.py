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

from .walsh import WalshSeries, gray_rank, threshold_truncate

GATE_NAMES = ("rz", "cx", "h", "cu1", "swap")


@dataclass(frozen=True)
class Gate:
    name: str
    qubits: tuple[int, ...]
    angle: float | None = None

    def __post_init__(self):
        if self.name not in GATE_NAMES:
            raise ValueError(f"unknown gate kind {self.name!r}")
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
            if g.name in ("rz", "cu1"):
                out.gates.append(replace(g, angle=-g.angle))
            else:
                out.gates.append(g)
        return out


def _set_bits(mask: int):
    bits = []
    q = 0
    while mask:
        if mask & 1:
            bits.append(q)
        mask >>= 1
        q += 1
    return bits


def exp_walsh(mask: int, coeff: float, n: int) -> Circuit:
    """Standalone circuit for exp(i * coeff * w_mask) on an n-qubit register.

    Rz(-2 coeff) sits on the most significant set bit; every other set bit
    contributes a mirrored CNOT pair controlled on it.
    """
    if not 0 < mask < (1 << n):
        raise ValueError(f"mask {mask} must be nonzero and fit in {n} qubits")
    target = mask.bit_length() - 1
    controls = [b for b in _set_bits(mask) if b != target]
    circ = Circuit(n)
    for c in controls:
        circ.cx(c, target)
    circ.rz(-2.0 * coeff, target)
    for c in reversed(controls):
        circ.cx(c, target)
    return circ


def _grouped_sequency(series: WalshSeries):
    """Kept masks grouped by msb, groups ascending, Gray order within."""
    masks = sorted((m for m in series.terms if m != 0), key=gray_rank)
    groups: list[list[int]] = []
    current_top = -1
    for m in masks:
        top = m.bit_length() - 1
        if top != current_top:
            groups.append([])
            current_top = top
        groups[-1].append(m)
    return groups


def exact_circuit(series: WalshSeries) -> Circuit:
    """Sequency-ordered synthesis of a series; mask 0 becomes the global phase.

    Each msb group opens with the CNOTs that load the first mask's parity
    onto the target (one linking CNOT from msb-1 for a full series), places
    one CNOT per XOR bit between adjacent masks, and unwinds the target at
    the end.  A full n-qubit series costs 2^n - 1 Rz and 2^n - 2 CNOTs; a
    single-entry series reduces to its mirrored `exp_walsh` form.
    """
    circ = Circuit(series.n, global_phase=series.coefficient(0))
    for group in _grouped_sequency(series):
        target = group[0].bit_length() - 1
        state = 1 << target
        for mask in group:
            for b in _set_bits(state ^ mask):
                circ.cx(b, target)
            circ.rz(-2.0 * series.terms[mask], target)
            state = mask
        for b in reversed(_set_bits(state ^ (1 << target))):
            circ.cx(b, target)
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


def _popcount(arr: np.ndarray) -> np.ndarray:
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(arr)
    out = np.zeros_like(arr)
    work = arr.copy()
    while work.any():
        out += work & 1
        work >>= 1
    return out


def sequency_gate_counts(series: WalshSeries, theta_min: float = 0.0) -> dict[str, int]:
    """Gate counts of `truncated_circuit` without building the gate list.

    Per msb group: entry CNOTs for the low bits of the first kept mask, one
    CNOT per XOR bit between adjacent kept masks, and unwind CNOTs for the
    low bits of the last mask.  This is exactly the gate list that
    `truncated_circuit` emits.
    """
    if not theta_min >= 0:
        raise ValueError(f"cutoff must be non-negative, got {theta_min}")
    cut = theta_min / 2.0
    masks = np.array(
        [m for m, c in series.terms.items() if m != 0 and abs(c) >= cut], dtype=np.int64
    )
    if masks.size == 0:
        return {"rz": 0, "cx": 0}
    rank = masks.copy()
    shift = masks >> 1
    while shift.any():
        rank ^= shift
        shift >>= 1
    masks = masks[np.argsort(rank)]
    top = (1 << (np.int64(np.floor(np.log2(masks))))).astype(np.int64)
    boundary = np.nonzero(top[1:] != top[:-1])[0]  # last index of each group but the final
    firsts = np.concatenate(([0], boundary + 1))
    lasts = np.concatenate((boundary, [masks.size - 1]))
    cx = int(_popcount(masks[firsts] ^ top[firsts]).sum())
    cx += int(_popcount(masks[lasts] ^ top[lasts]).sum())
    inner = top[1:] == top[:-1]
    cx += int(_popcount((masks[1:] ^ masks[:-1])[inner]).sum())
    return {"rz": int(masks.size), "cx": cx}


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

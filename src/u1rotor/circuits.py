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

A `Circuit` is one gate table: parallel columns ``kind`` (uint8 index into
`GATE_NAMES`), ``q0``, ``q1`` (-1 for one-qubit gates) and ``angle`` (NaN for
angle-free gates), plus ``width`` and ``global_phase``.  `exact_circuit`
writes the columns straight from the sequency walk; concatenation, shifting,
reversal, `gate_count` and `export_qasm` work on whole columns, and every
constructor validates the table.  The one-gate methods (`Circuit.rz`, ...)
copy the table on each call and suit small hand-built circuits.
``circuit.gates`` is a read-only `GateView`: its length costs O(1), its items
are `Gate` values built on demand, and ``==`` compares columns with another
view or gates with a list.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .walsh import WalshSeries, sequency_order, threshold_truncate

# gate kind -> (qubit count, takes an angle); a kind column holds indices into GATE_NAMES
GATE_FORMS = {"rz": (1, True), "cx": (2, False), "h": (1, False), "cu1": (2, True), "swap": (2, False)}
GATE_NAMES = tuple(GATE_FORMS)
RZ, CX, H, CU1, SWAP = range(len(GATE_NAMES))
_TWO_QUBIT = np.array([arity == 2 for arity, _ in GATE_FORMS.values()])
_ANGLED = np.array([angled for _, angled in GATE_FORMS.values()])


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


def table_error(width: int, kind, q0, q1, angle) -> tuple[int, str] | None:
    """(row, problem) of the first rule a gate table breaks, or None when it is valid.

    ``width`` is the register width, or an array of one width per row.
    """
    known = (0 <= kind) & (kind < len(GATE_NAMES))
    k = np.where(known, kind, 0)
    rules = (
        (known & ((q1 != -1) == _TWO_QUBIT[k]) & (np.isnan(angle) != _ANGLED[k]),
         "malformed gate (unknown kind, wrong arity or angle)"),
        (~np.isinf(angle), "non-finite angle"),
        ((0 <= q0) & (q0 < width) & ((q1 == -1) | (0 <= q1) & (q1 < width)),
         "qubit outside the register"),
        (q0 != q1, "repeated qubit"),
    )
    for ok, problem in rules:
        if not ok.all():
            return int(np.argmin(ok)), problem
    return None


class GateView(Sequence):
    """Read-only sequence of `Gate` values over a circuit's gate table (see the module docstring)."""

    def __init__(self, circuit: "Circuit"):
        self._circuit = circuit

    def __len__(self) -> int:
        return len(self._circuit.kind)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self)[index]
        return _gate(*(col[index].item() for col in self._circuit.columns()))

    def __iter__(self):
        return map(_gate, *(col.tolist() for col in self._circuit.columns()))

    def __eq__(self, other):
        if isinstance(other, GateView):
            pairs = zip(self._circuit.columns(), other._circuit.columns())
            return all(np.array_equal(a, b, equal_nan=True) for a, b in pairs)
        return list(self) == other if isinstance(other, list) else NotImplemented

    def __repr__(self) -> str:
        return repr(list(self))


def _gate(kind: int, q0: int, q1: int, angle: float) -> Gate:
    return Gate(GATE_NAMES[kind], (q0,) if q1 < 0 else (q0, q1), None if math.isnan(angle) else angle)


class Circuit:
    """One validated gate table over a flat register, plus the accumulated global phase."""

    def __init__(self, width: int, gates=(), global_phase: float = 0.0):
        self.width, self.global_phase = width, global_phase
        rows = [(GATE_NAMES.index(g.name), g.qubits[0], (g.qubits + (-1,))[1],
                 math.nan if g.angle is None else g.angle) for g in gates]
        self._set(*(zip(*rows) if rows else [()] * 4))

    @classmethod
    def from_columns(cls, width: int, kind, q0, q1, angle, global_phase: float = 0.0) -> "Circuit":
        out = cls(width, global_phase=global_phase)
        out._set(kind, q0, q1, angle)
        return out

    def _set(self, kind, *columns) -> None:
        kind = np.asarray(kind, np.int64)  # checked before the uint8 cast, which would wrap 256 to 0
        columns = [np.asarray(c, t) for c, t in zip(columns, (np.int64, np.int64, float))]
        error = table_error(self.width, kind, *columns)
        if error is not None:
            raise ValueError(f"{error[1]} in gate {error[0]}")
        self.kind, (self.q0, self.q1, self.angle) = kind.astype(np.uint8), columns

    def columns(self) -> tuple[np.ndarray, ...]:
        return self.kind, self.q0, self.q1, self.angle

    @property
    def gates(self) -> GateView:
        return GateView(self)

    def __repr__(self) -> str:
        return (f"Circuit(width={self.width!r}, gates={self.gates!r}, "
                f"global_phase={self.global_phase!r})")

    def _concat(self, other: "Circuit") -> None:
        pairs = zip(self.columns(), other.columns())
        self.kind, self.q0, self.q1, self.angle = map(np.concatenate, pairs)

    def _add(self, kind: int, q0: int, q1: int = -1, angle: float = math.nan) -> None:
        self._concat(Circuit.from_columns(self.width, [kind], [q0], [q1], [angle]))

    def rz(self, angle: float, q: int) -> None:
        self._add(RZ, q, angle=float(angle))

    def cx(self, control: int, target: int) -> None:
        self._add(CX, control, target)

    def h(self, q: int) -> None:
        self._add(H, q)

    def cu1(self, angle: float, control: int, target: int) -> None:
        self._add(CU1, control, target, float(angle))

    def swap(self, a: int, b: int) -> None:
        self._add(SWAP, a, b)

    def extend(self, other: "Circuit") -> None:
        if other.width != self.width:
            raise ValueError("register width mismatch")
        self._concat(other)
        self.global_phase += other.global_phase

    def shifted(self, offset: int, width: int) -> "Circuit":
        """Copy of this circuit acting on qubits offset..offset+width-1 of a wider register."""
        q1 = np.where(self.q1 < 0, -1, self.q1 + offset)
        return Circuit.from_columns(width, self.kind, self.q0 + offset, q1, self.angle,
                                    self.global_phase)

    def dagger(self) -> "Circuit":
        kind, q0, q1, angle = (col[::-1] for col in self.columns())
        return Circuit.from_columns(self.width, kind, q0, q1, -angle, -self.global_phase)


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
    rz, target = control < 0, msb[row]
    return Circuit.from_columns(
        series.n, np.where(rz, RZ, CX), np.where(rz, target, control), np.where(rz, -1, target),
        np.where(rz, -2.0 * coeffs[row], np.nan), series.coefficient(0))


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
    return dict(zip(GATE_NAMES, np.bincount(circuit.kind, minlength=len(GATE_NAMES)).tolist()))


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


# one QASM line per gate kind, and which of (angle, q0, q1) it formats
_QASM_LINES = np.array([f"{name}{'(%.17g)' * angled} q[%d]{',q[%d]' * (arity - 1)};\n"
                        for name, (arity, angled) in GATE_FORMS.items()], dtype=object)
_QASM_FIELDS = np.column_stack([_ANGLED, np.ones_like(_ANGLED), _TWO_QUBIT])


def export_qasm(circuit: Circuit, path=None) -> str:
    """OpenQASM 2.0 text for a circuit; byte-deterministic for equal inputs.

    The gate lines are one %-format of a template picked per row by kind,
    over the rows' fields in order.  The global phase has no QASM 2.0
    representation and is carried in a comment line that the bundled
    reader understands.
    """
    fields = np.empty((len(circuit.kind), 3), dtype=object)
    for j, col in enumerate((circuit.angle, circuit.q0, circuit.q1)):
        fields[:, j] = col.tolist()
    template = "".join(_QASM_LINES[circuit.kind].tolist())
    body = template % tuple(fields[_QASM_FIELDS[circuit.kind]].tolist())
    text = (f'OPENQASM 2.0;\ninclude "qelib1.inc";\n// global_phase: {circuit.global_phase:.17g}\n'
            f"qreg q[{circuit.width}];\n{body}")
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text

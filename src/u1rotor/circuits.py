"""Compilation of Walsh series into gate circuits.

A series entry with mask ``j`` exponentiates to an Rz(-2 a_j) on its target,
the qubit of j's most significant bit (msb), conjugated by CNOTs from the
other set bits.  Series are placed in sequency order, so that neighbours
share CNOTs.  The cost rule: one Rz per nonzero mask and, per msb group, one
CNOT per bit below the msb of its first and of its last mask, which load and
unwind the target, plus one per bit of each XOR between neighbours; a full
n-qubit series costs 2^n - 1 Rz and 2^n - 2 CNOTs.  `exact_circuit` places,
and `sequency_sweep_counts` popcounts, the CNOTs of one walk (`_sequency_walk`).
Two-bit corollary: masks of at most two bits cost one Rz each and two CNOTs per
two-bit mask.  An msb group h holds its pairs {h, l} in descending l and the single
{h} last; the first load and a pair's unload cost one CNOT each, an XOR between
pairs two, and the XOR onto the single one, which unloads none.

The identity coefficient (mask 0) is a global phase; it is recorded on the
circuit and never becomes a gate.

A `Circuit` is one gate table: parallel columns ``kind`` (uint8 index into
`GATE_NAMES`), ``q0``, ``q1`` (-1 for one-qubit gates) and ``angle`` (NaN for
angle-free gates), plus ``width`` and a finite ``global_phase``.  Circuits are
built whole, from columns (`Circuit.from_columns`) or from a list of `Gate`
records (``Circuit(width, gates)``); `exact_circuit` writes the columns
straight from the sequency walk.  `Gate` is a plain record, checked only when
it enters a circuit: both constructors check that the width, kind and qubit
columns hold integers, then validate the table with `table_error`.
`Circuit.joined` concatenates valid circuits of one width and adds their
phases left to right from 0.0.  Shifting, reversal, `gate_count` and
`export_qasm` work on whole columns (`export_qasm` formats a repeated gate
line once).  ``circuit.gates`` is a read-only `GateView`: its length costs
O(1), its items are `Gate` values built on demand, and ``==`` compares
columns with another view or gates with a list.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from .walsh import WalshSeries, _words, check_cutoff, sequency_order, threshold_truncate

# gate kind -> (qubit count, takes an angle); a kind column holds indices into GATE_NAMES
GATE_FORMS = {"rz": (1, True), "cx": (2, False), "h": (1, False), "cu1": (2, True), "swap": (2, False)}
GATE_NAMES = tuple(GATE_FORMS)
_KIND = {name: kind for kind, name in enumerate(GATE_NAMES)}
RZ, CX, H, CU1, SWAP = range(len(GATE_NAMES))
_TWO_QUBIT = np.array([arity == 2 for arity, _ in GATE_FORMS.values()])
_ANGLED = np.array([angled for _, angled in GATE_FORMS.values()])


class Gate(NamedTuple):
    name: str
    qubits: tuple[int, ...]
    angle: float | None = None


def _row(gate: Gate) -> tuple:
    """A gate's table row; kind -1 marks an unknown name or arity, angle inf a given NaN."""
    name, qubits, angle = gate
    kind = _KIND.get(name, -1) if len(qubits) in (1, 2) else -1
    q0, q1 = (*qubits, -1, -1)[:2]
    if angle is not None and math.isnan(angle):
        angle = math.inf  # non-finite, not absent
    return kind, q0, q1, math.nan if angle is None else angle


def table_error(width: int, kind, q0, q1, angle) -> tuple[int, str] | None:
    """(row, problem) of the first rule a gate table breaks, or None when it is valid."""
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


def _is_index(a: np.ndarray) -> bool:
    """Whether an array's dtype holds integers that int64 keeps exactly: no bool, float or text."""
    return a.dtype.kind in "iu" and np.can_cast(a.dtype, np.int64)


def _gate(kind: int, q0: int, q1: int, angle: float) -> Gate:
    return Gate(GATE_NAMES[kind], (q0,) if q1 < 0 else (q0, q1), None if math.isnan(angle) else angle)


class Circuit:
    """One validated gate table over a flat register, plus the accumulated global phase."""

    def __init__(self, width: int, gates=(), global_phase: float = 0.0):
        if np.ndim(width) or not _is_index(np.asarray(width)) or width < 0:
            raise ValueError(f"register width must be a non-negative integer, got {width!r}")
        if not math.isfinite(global_phase):
            raise ValueError(f"non-finite global phase {global_phase}")
        self.width, self.global_phase = width, global_phase
        rows = list(map(_row, gates))
        self._set(*(zip(*rows) if rows else [()] * 4))

    @classmethod
    def from_columns(cls, width: int, kind, q0, q1, angle, global_phase: float = 0.0) -> "Circuit":
        out = cls(width, global_phase=global_phase)
        out._set(kind, q0, q1, angle)
        return out

    def _set(self, kind, q0, q1, angle) -> None:
        indices = [np.asarray(c) for c in (kind, q0, q1)]
        if not all(c.size == 0 or _is_index(c) for c in indices):
            raise ValueError("non-integer gate kind or qubit index in the gate table")
        # kind is checked as int64, before the uint8 cast, which would wrap 256 to 0
        kind, q0, q1 = (c.astype(np.int64, copy=False) for c in indices)
        angle = np.asarray(angle, float)
        error = table_error(self.width, kind, q0, q1, angle)
        if error is not None:
            raise ValueError(f"{error[1]} in gate {error[0]}")
        self.kind, self.q0, self.q1, self.angle = kind.astype(np.uint8), q0, q1, angle

    def columns(self) -> tuple[np.ndarray, ...]:
        return self.kind, self.q0, self.q1, self.angle

    @property
    def gates(self) -> GateView:
        return GateView(self)

    def __repr__(self) -> str:
        return (f"Circuit(width={self.width!r}, gates={self.gates!r}, "
                f"global_phase={self.global_phase!r})")

    @classmethod
    def joined(cls, width: int, parts: Sequence["Circuit"]) -> "Circuit":
        if any(part.width != width for part in parts):
            raise ValueError("register width mismatch")
        out = cls(width, global_phase=sum((part.global_phase for part in parts), 0.0))
        out.kind, out.q0, out.q1, out.angle = map(np.concatenate, zip(*map(cls.columns, [out, *parts])))
        return out

    def shifted(self, offset: int, width: int) -> "Circuit":
        """Copy of this circuit acting on qubits offset..offset+width-1 of a wider register."""
        q1 = np.where(self.q1 < 0, -1, self.q1 + offset)
        return Circuit.from_columns(width, self.kind, self.q0 + offset, q1, self.angle,
                                    self.global_phase)

    def dagger(self) -> "Circuit":
        kind, q0, q1, angle = (col[::-1] for col in self.columns())
        angle = np.where(np.isnan(angle), angle, -angle)  # a NaN marks an absent angle: keep it
        return Circuit.from_columns(self.width, kind, q0, q1, angle, -self.global_phase)


def exp_walsh(mask: int, coeff: float, n: int) -> Circuit:
    """Standalone circuit for exp(i * coeff * w_mask) on an n-qubit register.

    `exact_circuit` of the unpruned one-row series: Rz(-2 coeff), even for a
    zero coeff, on the most significant set bit, inside a mirrored CNOT pair
    from every other set bit.
    """
    if not 0 < mask < (1 << n):
        raise ValueError(f"mask {mask} must be nonzero and fit in {n} qubits")
    if not math.isfinite(coeff):
        raise ValueError(f"non-finite coefficient {coeff}")
    return exact_circuit(WalshSeries._of(n, _words([mask], n), np.array([float(coeff)])))


def _sequency_rows(series: WalshSeries):
    """``(words, msb, coeffs)`` of the nonzero masks in sequency order (mask 0 is the global phase)."""
    order, msb = sequency_order(series.words)
    order, msb = order[msb >= 0], msb[msb >= 0]
    return series.words[order], msb, series.coeffs[order]


def _sequency_walk(words: np.ndarray, msb: np.ndarray):
    """``(load, unload, closing)``: the CNOT controls of nonzero masks in sequency order.

    Row ``i`` of ``load`` is mask ``i`` XOR the previous mask of its msb
    group, or the mask itself when it opens the group; ``unload`` holds each
    group's last mask, which sits at row ``closing`` of ``words``.  Every set
    bit is one CNOT onto the msb, except the msb itself: the target, set in
    each group's first load and in its unload.
    """
    opens = np.diff(msb, prepend=-1) != 0
    closing = np.flatnonzero(np.diff(msb, append=-1))
    load = words.copy()
    load[1:] ^= words[:-1]
    load[opens] = words[opens]
    return load, words[closing], closing


def _set_bits(words: np.ndarray, width: int):
    """(row, qubit) of every set bit of mask word rows, row by row with qubits ascending.

    Only the low ``width`` bits of a row are unpacked and scanned; the masks
    of a series over ``width`` qubits have no bit above them.
    """
    bits = np.unpackbits(words.astype("<u8").view(np.uint8), axis=1, count=width, bitorder="little")
    return np.divmod(np.flatnonzero(bits.view(bool)), width)  # unpacked bits are 0 or 1


def exact_circuit(series: WalshSeries) -> Circuit:
    """Sequency-ordered synthesis of a series; mask 0 becomes the global phase.

    Places the `_sequency_walk` of the nonzero masks: per mask, one CNOT
    onto its msb from each control in its load (qubits ascending), then its
    Rz, and after a group's last mask one from each control in its unload
    (descending).  The costs follow the module's rule; a single-entry series
    reduces to its mirrored `exp_walsh` form.
    """
    words, msb, coeffs = _sequency_rows(series)
    load, unload, closing = _sequency_walk(words, msb)
    load_row, load_bit = _set_bits(load, series.n)
    unload_row, unload_bit = _set_bits(unload, series.n)
    # per mask: loading CNOTs (qubits ascending), the Rz (control -1), unloading CNOTs (descending)
    row = np.concatenate([load_row, np.arange(len(msb)), closing[unload_row[::-1]]])
    control = np.concatenate([load_bit, np.full(len(msb), -1), unload_bit[::-1]])
    placed = control != msb[row]  # a set msb bit is the target
    order = np.argsort(row[placed], kind="stable")
    row, control = row[placed][order], control[placed][order]
    rz, target = control < 0, msb[row]
    return Circuit.from_columns(
        series.n, np.where(rz, RZ, CX), np.where(rz, target, control), np.where(rz, -1, target),
        np.where(rz, -2.0 * coeffs[row], np.nan), series.coefficient(0))


def truncated_circuit(series: WalshSeries, theta_min: float) -> Circuit:
    """Threshold-truncate, then synthesize the kept entries in sequency order.

    Truncation comes first, so adjacent kept masks already cost one CNOT per
    bit of their XOR and no cancelling CNOT pair is left to simplify.  The Rz
    count equals the number of kept nonzero-mask coefficients; truncation
    keeps mask 0, so the global phase is the full mask-0 coefficient.
    """
    return exact_circuit(threshold_truncate(series, theta_min)[0])


def _commutes_with_cx(cnot: Gate, other: Gate) -> bool:
    """Whether ``other``, an Rz or a CNOT, commutes with ``cnot``."""
    control, target = cnot.qubits
    return other.qubits[0] != target and (other.name == "rz" or other.qubits[1] != control)


def simplify_cnots(circuit: Circuit) -> Circuit:
    """Fixed-point local rewrite: cancel CNOT pairs reachable through commuting gates.

    Handles Rz/CNOT circuits only; CNOTs sharing a target commute, which is
    what exposes the cancellations in hand-built circuits such as a row of
    mirrored `exp_walsh` blocks.  Sequency-ordered synthesis never leaves one.
    """
    other = circuit.kind[(circuit.kind != RZ) & (circuit.kind != CX)]
    if other.size:
        raise ValueError(f"simplify_cnots cannot handle {GATE_NAMES[other[0]]!r} gates")
    gates = list(circuit.gates)
    changed = True
    while changed:
        changed, i = False, 0
        while i < len(gates):
            g, j = gates[i], len(gates)
            if g.name == "cx":  # j: the first gate after g that equals it or blocks it
                j = i + 1
                while j < len(gates) and gates[j] != g and _commutes_with_cx(g, gates[j]):
                    j += 1
            if j < len(gates) and gates[j] == g:
                del gates[j], gates[i]
                changed = True
            else:
                i += 1
    return Circuit(circuit.width, gates, circuit.global_phase)


def _bits(words: np.ndarray) -> int:
    """Number of set bits in an array of mask words."""
    return int(np.bitwise_count(words).sum())


def sequency_sweep_counts(series: WalshSeries, thetas) -> list[dict[str, int]]:
    """Gate counts of `truncated_circuit` at every cutoff in ``thetas``, without building gates.

    The series is truncated at the smallest cutoff and sorted once in
    sequency order; each cutoff then keeps the sorted rows with
    ``|a_j| >= theta / 2`` and popcounts their `_sequency_walk`, the one
    `exact_circuit` places: one Rz per kept row, one CNOT per set control
    bit, less the two target bits of each msb group.
    """
    thetas = [check_cutoff(theta) for theta in thetas]
    if not thetas:
        return []
    words, msb, coeffs = _sequency_rows(threshold_truncate(series, min(thetas))[0])
    size = np.abs(coeffs)
    counts = []
    for theta in thetas:
        keep = size >= theta / 2.0
        load, unload, _ = _sequency_walk(words[keep], msb[keep])
        counts.append({"rz": len(load), "cx": _bits(load) + _bits(unload) - 2 * len(unload)})
    return counts


def sequency_gate_counts(series: WalshSeries, theta_min: float = 0.0) -> dict[str, int]:
    """Gate counts of `truncated_circuit` at one cutoff: `sequency_sweep_counts` of ``[theta_min]``."""
    return sequency_sweep_counts(series, [theta_min])[0]


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
    gates = []
    for i in reversed(range(n)):
        gates.append(Gate("h", (i,)))
        gates += [Gate("cu1", (j, i), np.pi / (1 << (i - j))) for j in reversed(range(i))]
    gates += [Gate("swap", (i, n - 1 - i)) for i in range(n // 2)]
    return Circuit(n, gates)


# one QASM line per gate kind, and which of (angle, q0, q1) it formats
_QASM_LINES = np.array([f"{name}{'(%.17g)' * angled} q[%d]{',q[%d]' * (arity - 1)};\n"
                        for name, (arity, angled) in GATE_FORMS.items()], dtype=object)
_QASM_FIELDS = np.column_stack([_ANGLED, np.ones_like(_ANGLED), _TWO_QUBIT])
# Lines are written (and read) once per distinct line when at most this share of
# the first QASM_SAMPLE lines is distinct: the measured crossover of the two paths.
QASM_DISTINCT_SHARE = 0.75
QASM_SAMPLE = 4096


def _qasm_lines(kind, q0, q1, angle) -> str:
    """The gate lines of a table's rows: one %-format of a template picked per row by kind."""
    fields = np.empty((len(kind), 3), dtype=object)
    for j, col in enumerate((angle, q0, q1)):
        fields[:, j] = col.tolist()
    return "".join(_QASM_LINES[kind].tolist()) % tuple(fields[_QASM_FIELDS[kind]].tolist())


def _line_keys(circuit: Circuit, rows: slice) -> np.ndarray | None:
    """Per row an int64 of its kind, qubits and angle bits' rank (-0.0 is not 0.0); None past 64 bits."""
    span = circuit.width + 1  # q0 and q1 + 1 lie in [0, width]
    if max(len(circuit.kind), 1) * len(GATE_NAMES) * span * span >= 1 << 63:
        return None
    kind, q0, q1, angle = (col[rows] for col in circuit.columns())
    angled = _ANGLED[kind]  # the NaN of a kind without an angle is no part of the key
    bits = np.zeros(len(kind), np.int64)
    bits[angled] = np.unique(angle[angled].view(np.int64), return_inverse=True)[1]
    return ((bits * len(GATE_NAMES) + kind) * span + q0) * span + q1 + 1


def export_qasm(circuit: Circuit, path=None) -> str:
    """OpenQASM 2.0 text for a circuit; byte-deterministic for equal inputs.

    The gate lines are those of `_qasm_lines` over the rows in order.  When
    the first `QASM_SAMPLE` rows write few distinct lines, each distinct line
    is formatted once and copied to every row that writes it.  The global
    phase has no QASM 2.0 representation and is carried in a comment line
    that the bundled reader understands.
    """
    keys = _line_keys(circuit, slice(QASM_SAMPLE))
    if keys is None or len(np.unique(keys)) > QASM_DISTINCT_SHARE * len(keys):
        body = _qasm_lines(*circuit.columns())
    else:
        row = np.unique(_line_keys(circuit, slice(None)), return_inverse=True)[1]
        which = np.zeros(row.max(initial=-1) + 1, np.intp)
        which[row] = np.arange(len(row))  # a row that writes each distinct line
        lines = _qasm_lines(*(col[which] for col in circuit.columns())).splitlines(True)
        body = "".join(np.array(lines, dtype=object)[row].tolist())
    text = (f'OPENQASM 2.0;\ninclude "qelib1.inc";\n// global_phase: {circuit.global_phase:.17g}\n'
            f"qreg q[{circuit.width}];\n{body}")
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text

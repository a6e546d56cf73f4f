"""Shared brute-force oracles, kept independent of the library internals."""

import numpy as np
import pytest


def bf_walsh(j: int, k: int, n: int) -> int:
    """Walsh function value from the defining bit sum.

    Bit i of j pairs with bit n-1-i of k (dyadic sampling).
    """
    total = 0
    for i in range(1, n + 1):
        j_i = (j >> (i - 1)) & 1
        k_i = (k >> (n - i)) & 1
        total += j_i * k_i
    return -1 if total % 2 else 1


def bf_coefficients(values: np.ndarray, n: int) -> np.ndarray:
    """O(4^n) transform straight from the definition."""
    big_n = 1 << n
    return np.array(
        [sum(values[k] * bf_walsh(j, k, n) for k in range(big_n)) / big_n for j in range(big_n)]
    )


def series_state_diagonal(series) -> np.ndarray:
    """Diagonal of a series over register states, via mask parities."""
    dim = 1 << series.n
    out = np.zeros(dim)
    for state in range(dim):
        out[state] = sum(
            c * (-1) ** bin(m & state).count("1") for m, c in series.items()
        )
    return out


def diagonal_exponential(series) -> np.ndarray:
    """Dense unitary exp(i * diag) represented by a series, phase included."""
    return np.diag(np.exp(1j * series_state_diagonal(series)))


def random_series(rng, n, density=1.0, scale=1.0, walsh_series_cls=None):
    from u1rotor import WalshSeries

    dim = 1 << n
    count = max(1, int(density * dim))
    masks = rng.choice(dim, size=min(count, dim), replace=False)
    return WalshSeries(n, {int(m): float(scale * rng.normal()) for m in masks})


# The single-template QASM writer that formats every gate line on its own: the
# oracle that `export_qasm` must match byte for byte.
_GATE_FORMS = {"rz": (1, True), "cx": (2, False), "h": (1, False), "cu1": (2, True), "swap": (2, False)}
_ANGLED = np.array([angled for _, angled in _GATE_FORMS.values()])
_TWO_QUBIT = np.array([arity == 2 for arity, _ in _GATE_FORMS.values()])
_QASM_LINES = np.array([f"{name}{'(%.17g)' * angled} q[%d]{',q[%d]' * (arity - 1)};\n"
                        for name, (arity, angled) in _GATE_FORMS.items()], dtype=object)
_QASM_FIELDS = np.column_stack([_ANGLED, np.ones_like(_ANGLED), _TWO_QUBIT])


def export_qasm_oracle(circuit, path=None) -> str:
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


@pytest.fixture
def rng():
    return np.random.default_rng(20230211)

"""Suzuki-Trotter step assembly and the truncation error budget.

One step evolves by exp(-i H dt), split into an electric and a magnetic
factor.  Both factors are diagonal after the per-plaquette Fourier rotation,
so each is synthesized as a Walsh series scaled by -dt (the Rz angles carry
the -dt factor).  Series of individual terms are merged over the full
register before any truncation, so coefficients that only clear the cutoff
in the sum are never lost.

Cutoff policies: "abs" uses the value as theta_min directly, "dt" scales it
by the step size and "dt2" by its square, matching first and second order
splittings where the coefficients themselves shrink with dt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .circuits import Circuit, qft_circuit, sequency_gate_counts, truncated_circuit
from .hamiltonian import (
    CosineTerm,
    DENSE_LIMIT_QUBITS,
    HamiltonianModel,
    TERM_LIMIT_QUBITS,
    dense_diagonals,
    dense_electric,
    diagonal_of_term,
)
from .lattice import b_grid, digitize, embed_positions
from .walsh import DiagonalValues, WalshSeries, embed, fwt, merge, threshold_truncate


@dataclass(frozen=True)
class ThetaPolicy:
    """Minimum-angle cutoff, absolute or scaled with a power of dt."""

    mode: str = "abs"  # "abs" | "dt" | "dt2"
    value: float = 0.0

    def __post_init__(self):
        if self.mode not in ("abs", "dt", "dt2"):
            raise ValueError(f"unknown cutoff policy {self.mode!r}")
        if not self.value >= 0:
            raise ValueError(f"cutoff must be non-negative, got {self.value}")

    def resolve(self, dt: float) -> float:
        if self.mode == "abs":
            return self.value
        if self.mode == "dt":
            return self.value * dt
        return self.value * dt * dt


@dataclass(frozen=True)
class TrotterPlan:
    order: int
    dt: float
    steps: int
    theta_e: ThetaPolicy = ThetaPolicy()
    theta_b: ThetaPolicy = ThetaPolicy()

    def __post_init__(self):
        if self.order not in (1, 2):
            raise ValueError("only first and second order splittings are supported")
        if not 0 < self.dt < math.inf:
            raise ValueError(f"step size must be positive and finite, got {self.dt}")
        if self.steps < 0:
            raise ValueError("step count must be non-negative")

    @property
    def t(self) -> float:
        return self.steps * self.dt


def hamiltonian_series(
    terms,
    d,
    scale: float,
    limit: int = TERM_LIMIT_QUBITS,
) -> WalshSeries:
    """Merged full-register Walsh series of scale * sum(terms).

    ``d`` is the digitization; the register spans all of its plaquettes.
    """
    width = d.n_p * d.n_q
    parts = []
    for term in terms:
        diag = diagonal_of_term(term, d, limit)
        local = fwt(DiagonalValues(diag.n, scale * diag.values))
        support = term.plaquettes if isinstance(term, CosineTerm) else term.support
        parts.append(embed(local, embed_positions(support, d.n_q), width))
    if not parts:
        return WalshSeries(width, {})
    return merge(parts)


def factor_series(model: HamiltonianModel, plan: TrotterPlan):
    """(electric, magnetic) step-factor series before truncation.

    The electric factor carries -dt/2 for the symmetric splitting, -dt
    otherwise; the magnetic factor always carries -dt.
    """
    scale_e = -plan.dt / 2.0 if plan.order == 2 else -plan.dt
    series_e = hamiltonian_series(model.electric, model.digitization, scale_e)
    series_b = hamiltonian_series(model.magnetic, model.digitization, -plan.dt)
    return series_e, series_b


def _fourier_blocks(model: HamiltonianModel) -> Circuit:
    """Per-plaquette Fourier circuit over the full register."""
    n_q = model.digitization.n_q
    block = qft_circuit(n_q)
    out = Circuit(model.n_qubits)
    for p in range(model.n_p):
        out.extend(block.shifted(p * n_q, model.n_qubits))
    return out


def step_circuit(model: HamiltonianModel, plan: TrotterPlan) -> Circuit:
    """One Trotter step: diagonal factors synthesized, merged, truncated.

    Order 1 realizes U_E(dt) U_B(dt); order 2 the symmetric
    U_E(dt/2) U_B(dt) U_E(dt/2).  The electric factor is a Fourier-conjugated
    diagonal: the register is rotated to the rotor basis, phased, and rotated
    back.
    """
    series_e, series_b = factor_series(model, plan)
    theta_e = plan.theta_e.resolve(plan.dt)
    theta_b = plan.theta_b.resolve(plan.dt)
    ft = _fourier_blocks(model)
    ft_inv = ft.dagger()

    def electric_factor() -> Circuit:
        out = Circuit(model.n_qubits)
        out.extend(ft_inv)
        out.extend(truncated_circuit(series_e, theta_e))
        out.extend(ft)
        return out

    magnetic = truncated_circuit(series_b, theta_b)
    circ = Circuit(model.n_qubits)
    if plan.order == 1:
        circ.extend(magnetic)
        circ.extend(electric_factor())
    else:
        circ.extend(electric_factor())
        circ.extend(magnetic)
        circ.extend(electric_factor())
    return circ


@dataclass(frozen=True)
class ErrorBudget:
    """First-order bound alpha*t*dt + c_e*theta_e*t + c_b*theta_b*t."""

    alpha: float
    c_e: float
    c_b: float
    theta_e: float
    theta_b: float
    bound: float


def _drop_count(series: WalshSeries, theta: float) -> int:
    body = WalshSeries(series.n, {m: c for m, c in series.terms.items() if m != 0})
    _, dropped = threshold_truncate(body, theta)
    return dropped


def error_bound(
    model: HamiltonianModel,
    plan: TrotterPlan,
    c_e: float | None = None,
    c_b: float | None = None,
    limit: int = DENSE_LIMIT_QUBITS,
) -> ErrorBudget:
    """Evaluate the first-order error bound for a plan.

    alpha is the spectral norm of the dense commutator [H_E, H_B].  The
    truncation constants default to the coherent worst case, the per-step
    drop counts spread over t/dt steps; pass explicit values to override.
    """
    h_e = dense_electric(model, limit)
    _, b_diag = dense_diagonals(model)
    comm = h_e * b_diag[None, :] - b_diag[:, None] * h_e
    alpha = float(np.linalg.norm(comm, ord=2))
    series_e, series_b = factor_series(model, plan)
    theta_e = plan.theta_e.resolve(plan.dt)
    theta_b = plan.theta_b.resolve(plan.dt)
    if c_e is None:
        c_e = _drop_count(series_e, theta_e) / plan.dt
    if c_b is None:
        c_b = _drop_count(series_b, theta_b) / plan.dt
    t = plan.t
    bound = alpha * t * plan.dt + c_e * theta_e * t + c_b * theta_b * t
    return ErrorBudget(alpha, float(c_e), float(c_b), theta_e, theta_b, float(bound))


@dataclass(frozen=True)
class NDropReport:
    dts: tuple[float, ...]
    n_drops: tuple[int, ...]
    non_decreasing: bool


def n_drop_monotonicity_check(
    model: HamiltonianModel, plan: TrotterPlan, dts
) -> NDropReport:
    """Total drop count per step size, checked to be non-decreasing in dt."""
    dts = tuple(sorted(float(x) for x in dts))
    drops = []
    for dt in dts:
        p = replace(plan, dt=dt)
        series_e, series_b = factor_series(model, p)
        drops.append(
            _drop_count(series_e, p.theta_e.resolve(dt))
            + _drop_count(series_b, p.theta_b.resolve(dt))
        )
    monotone = all(a <= b for a, b in zip(drops, drops[1:]))
    return NDropReport(dts, tuple(drops), monotone)


def product_scaling_study(n_q=2, np_max=8, g=0.1, theta_exponents=range(0, 37)):
    """CNOT counts and polynomial fits for exp(i * cos x ... cos x) products.

    Fits CNOT(n_p) for n_p = 1..np_max to an exact interpolating polynomial
    sum b_k n_p^k per cutoff, and estimates the cutoff where each power turns
    on as the geometric midpoint between the last grid point without it and
    the first with it.  Predictions are 2 * A2^r with A2 the second largest
    single-cosine coefficient magnitude.
    """
    d = digitize(1, n_q, g, "compact")
    f = np.cos(b_grid(d, 0).values)
    single = np.sort(np.abs(np.array(list(fwt(DiagonalValues(n_q, f)).terms.values()))))[::-1]
    a2 = float(single[1])

    thetas = [2.0**-k for k in theta_exponents]
    counts = np.zeros((len(thetas), np_max), dtype=int)
    joint = np.ones(1)
    for n_p in range(1, np_max + 1):
        joint = np.kron(joint, f)  # earlier factors most significant
        width = n_p * n_q
        local = fwt(DiagonalValues(width, joint))
        series = embed(local, embed_positions(range(n_p), n_q), width)
        for ti, theta in enumerate(thetas):
            counts[ti, n_p - 1] = sequency_gate_counts(series, theta)["cx"]

    powers = np.arange(1, np_max + 1, dtype=float)[:, None] ** np.arange(np_max)[None, :]
    fit = np.linalg.solve(powers, counts.T.astype(float)).T  # rows: theta, cols: b_0..b_{np_max-1}

    transitions = {}
    for r in range(1, min(5, np_max - 1) + 1):
        on = [t for t, row in zip(thetas, fit) if abs(row[r]) > 0.5]
        fitted = max(on) * math.sqrt(2.0) if on else None
        transitions[r] = {"fitted": fitted, "predicted": 2.0 * a2**r}
    return {"thetas": thetas, "counts": counts, "fit": fit, "a2": a2, "transitions": transitions}

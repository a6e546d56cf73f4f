"""Suzuki-Trotter step assembly and the truncation error budget.

One step evolves by exp(-i H dt) as the product of electric and magnetic
factors that `SPLITTING` lists, each scaled by its share of -dt.  Both are
diagonal after the per-plaquette Fourier rotation, so each is synthesized
as a Walsh series (the Rz angles carry the -dt share).  Terms of one local
form share one transform; their series are merged over the full register,
each mask's contributions summed in term order, before any truncation, so
coefficients that only clear the cutoff in the sum are never lost.

Cutoff policies: "abs" uses the value as theta_min directly, "dt" scales it
by the step size and "dt2" by its square, matching first and second order
splittings where the coefficients themselves shrink with dt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuits import Circuit, exact_circuit, qft_circuit, sequency_sweep_counts
from .hamiltonian import (
    _COUPLING_TOL,
    HamiltonianModel,
    diagonal_of_term,
    electric_quadratic_form,
    extreme_eigenpairs,
    fourier_conjugate,
    local_form,
    magnetic_quadratic_form,
    magnetic_terms,
    operator_diagonals,
)
from .lattice import _is_integer, b_grid, digitize, embed_positions, reserve
from .walsh import (PRUNE_TOL, WalshSeries, check_cutoff, embed, embed_copies, fwt, merge,
                    threshold_truncate)

# Each order's diagonal factors as applied to the state: "E" electric, "B" magnetic
SPLITTING = {1: "BE", 2: "EBE"}


@dataclass(frozen=True)
class ThetaPolicy:
    """Minimum-angle cutoff, absolute or scaled with a power of dt."""

    mode: str = "abs"  # "abs" | "dt" | "dt2"
    value: float = 0.0

    def __post_init__(self):
        if self.mode not in ("abs", "dt", "dt2"):
            raise ValueError(f"unknown cutoff policy {self.mode!r}")
        check_cutoff(self.value)

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
        if self.order not in SPLITTING:
            raise ValueError("only first and second order splittings are supported")
        if not 0 < self.dt < math.inf:
            raise ValueError(f"step size must be positive and finite, got {self.dt}")
        if not _is_integer(self.steps) or self.steps < 0:
            raise ValueError(f"step count must be a non-negative integer, got {self.steps!r}")

    @property
    def t(self) -> float:
        return self.steps * self.dt


def term_series(term, d, scale: float) -> WalshSeries:
    """Walsh series of scale * term on the register of the term's own plaquettes."""
    return fwt(scale * diagonal_of_term(term, d).ravel())


def hamiltonian_series(terms, d, scale: float) -> WalshSeries:
    """Merged full-register Walsh series of scale * sum(terms).

    ``d`` is the digitization; the register spans all of its plaquettes.  Each
    `local_form` is transformed once and embedded at all its terms' supports.
    """
    width, terms = d.n_p * d.n_q, list(terms)
    forms, parts = {}, {}  # local form -> indices of its terms; index -> embedded series
    for t, term in enumerate(terms):
        forms.setdefault(local_form(term, d), []).append(t)
    for group in forms.values():
        local = term_series(terms[group[0]], d, scale)
        supports = [embed_positions(terms[t].plaquettes, d.n_q) for t in group]
        parts.update(zip(group, embed_copies(local, supports, width)))
    return merge([parts[t] for t in range(len(terms))]) if parts else WalshSeries(width, {})


def quadratic_sweep_counts(q, d, kind: str, scale: float, thetas) -> list[dict[str, int]]:
    """`sequency_sweep_counts` of the series of scale * `_bilinears(kind, q)`, in closed form.

    On its evenly spaced grid (spacing s_p of `r_grid` for "RR", `b_grid` for "BB")
    plaquette p's operator is ``-s_p/2 - (s_p/2) sum_k 2^k z_k``, bit k on qubit
    ``p*n_q + k``.  With Q_pr = q_pr s_p s_r over the entries `_bilinears` keeps and
    w the coupling weight (g^2/2 or 1/(2 g^2)) times ``scale``, bits k of p and l of
    r (p < r, or p = r and k < l) have |a| = |w Q_pr 2^(k+l) / 2| and bit k of p
    alone |a| = |w 2^k sum_r Q_pr / 2|, counted by the two-bit corollary of `circuits`.
    Tie rule: a mask is kept when |a| >= theta / 2 and |a| > `PRUNE_TOL`; the counts
    differ from the series path's only where theta / 2 is within rounding of an |a|,
    or below about 1e-14, where the series can hold round-off of exact zeros.
    """
    if kind not in ("RR", "BB"):
        raise ValueError(f"unknown bilinear kind {kind!r}")
    if np.shape(q) != (d.n_p, d.n_p):
        raise ValueError(f"quadratic form of shape {np.shape(q)} on {d.n_p} plaquettes")
    thetas = [check_cutoff(theta) for theta in thetas]
    s = math.pi / d.b_max if kind == "RR" else np.ldexp(d.b_max, 1 - d.n_q)
    t = s / s.max()  # exactly 1 on a uniform grid, where integer rows of q sum exactly
    w = abs(scale * (0.5 * d.g**2 if kind == "RR" else 0.5 / d.g**2)) * s.max() ** 2 / 2
    upper = np.triu(q, 1)
    upper[np.abs(upper) <= _COUPLING_TOL] = 0.0
    upper *= t[:, None]
    upper *= t
    diag = np.where(np.abs(np.diag(q)) > _COUPLING_TOL, np.diag(q), 0.0) * t * t
    rows = upper.sum(axis=1) + upper.sum(axis=0) + diag
    k, l = np.indices((d.n_q, d.n_q)).reshape(2, -1)
    power = np.ldexp(1.0, np.arange(2 * d.n_q - 1))  # 2^(k+l) of a bit pair, 2^k of one bit
    per = [np.bincount(k + l), np.bincount((k + l)[k < l], minlength=power.size),
           (np.arange(power.size) < d.n_q).astype(int)]
    counts = [{"rz": 0, "cx": 0} for _ in thetas]
    for v, per_power, cx in zip((upper[upper != 0], diag, rows), per, (2, 2, 0)):
        values, n = np.unique(np.abs(v), return_counts=True)  # cross pairs, own pairs, bits
        size, masks = w * np.outer(values, power), np.outer(n, per_power)
        if not np.isfinite(size[masks > 0]).all():
            raise ValueError("non-finite Walsh coefficient")
        for c, theta in zip(counts, thetas):
            kept = int(masks[(size >= theta / 2.0) & (size > PRUNE_TOL)].sum())
            c["rz"], c["cx"] = c["rz"] + kept, c["cx"] + cx * kept
    return counts


def _share(plan: TrotterPlan, name: str) -> float:
    """-dt over the times `SPLITTING` applies factor ``name``: -dt/2 for "E" at order 2."""
    return -plan.dt / SPLITTING[plan.order].count(name)


def factor_series(model: HamiltonianModel, plan: TrotterPlan):
    """(electric, magnetic) step-factor series before truncation, each with its `_share` of -dt."""
    return tuple(hamiltonian_series(terms, model.digitization, _share(plan, name))
                 for name, terms in (("E", model.electric), ("B", model.magnetic)))


def factor_sweep_counts(lattice, d, weave, plan: TrotterPlan, names: str, thetas):
    """Rz and CNOT counts at each cutoff of the factors ("E", "B") ``names`` applies.

    Each carries its `_share` of -dt.  The electric and non-compact magnetic factors
    are counted by `quadratic_sweep_counts` at any width, the compact magnetic cosines
    by `sequency_sweep_counts` of their series; ``lattice`` is read for "E" only.
    """
    def counts(name):
        if name == "B" and d.formulation == "compact":
            series = hamiltonian_series(magnetic_terms(d, weave), d, _share(plan, name))
            return sequency_sweep_counts(series, thetas)
        q, kind = ((electric_quadratic_form(lattice, weave), "RR") if name == "E"
                   else (magnetic_quadratic_form(d.n_p, weave), "BB"))
        return quadratic_sweep_counts(q, d, kind, _share(plan, name), thetas)

    swept = {name: counts(name) for name in set(names)}
    return [{kind: sum(swept[name][i][kind] for name in names) for kind in ("rz", "cx")}
            for i in range(len(thetas))]


def truncate_factors(factors, plan: TrotterPlan):
    """((kept_e, dropped_e), (kept_b, dropped_b)) of an (electric, magnetic) series pair.

    This is the one truncation decision behind `step_circuit`, the
    fused-phase evolution of `simulator.loschmidt_sweep` and the drop counts
    of `error_bound` (`factor_sweep_counts` counts by the same cutoff rule):
    each factor is cut at the plan's resolved cutoff and is exactly
    exp(i * state_values(kept)), its mask-0 coefficient included.
    """
    series_e, series_b = factors
    return (threshold_truncate(series_e, plan.theta_e.resolve(plan.dt)),
            threshold_truncate(series_b, plan.theta_b.resolve(plan.dt)))


def truncated_factor_series(model: HamiltonianModel, plan: TrotterPlan):
    """`truncate_factors` of the plan's `factor_series`."""
    return truncate_factors(factor_series(model, plan), plan)


def step_circuit(model: HamiltonianModel, plan: TrotterPlan) -> Circuit:
    """One Trotter step: diagonal factors synthesized, merged, truncated.

    Each factor is synthesized once and the step applies them in
    `SPLITTING` order.  The electric factor is a Fourier-conjugated
    diagonal: the register is rotated to the rotor basis, phased, and
    rotated back.
    """
    (kept_e, _), (kept_b, _) = truncated_factor_series(model, plan)
    n, block = model.n_qubits, qft_circuit(model.digitization.n_q)
    ft = Circuit.joined(n, [block.shifted(p * block.width, n) for p in range(model.n_p)])
    factors = {"E": Circuit.joined(n, [ft.dagger(), exact_circuit(kept_e), ft]),
               "B": exact_circuit(kept_b)}
    return Circuit.joined(n, [factors[name] for name in SPLITTING[plan.order]])


@dataclass(frozen=True)
class ErrorBudget:
    """First-order bound alpha*t*dt + c_e*theta_e*t + c_b*theta_b*t at the resolved cutoffs."""

    alpha: float
    c_e: float
    c_b: float
    bound: float


def error_bound(model: HamiltonianModel, plan: TrotterPlan) -> ErrorBudget:
    """Evaluate the first-order error bound for a plan.

    alpha is the spectral norm of the commutator [H_E, H_B]: the larger end, in
    magnitude, of the spectrum of the Hermitian i[H_E, H_B], whose ends differ
    in size.  `extreme_eigenpairs` finds both ends on the matrix-free product
    i(H_E (b psi) - b H_E psi).  The truncation constants are the coherent worst
    case: the per-step drop counts of `threshold_truncate`, spread over t/dt steps.
    """
    e, b = operator_diagonals(model)

    def commutator(psi):
        psi = psi.reshape(e.shape)
        return 1j * (fourier_conjugate(e, b * psi) - b * fourier_conjugate(e, psi)).ravel()

    (low, _), (high, _) = extreme_eigenpairs(commutator, e.size)
    alpha = max(abs(low), abs(high))
    (_, dropped_e), (_, dropped_b) = truncated_factor_series(model, plan)
    theta_e = plan.theta_e.resolve(plan.dt)
    theta_b = plan.theta_b.resolve(plan.dt)
    c_e = dropped_e / plan.dt
    c_b = dropped_b / plan.dt
    t = plan.t
    bound = alpha * t * plan.dt + c_e * theta_e * t + c_b * theta_b * t
    return ErrorBudget(alpha, c_e, c_b, bound)


def product_scaling_study(n_q=2, np_max=8, g=0.1):
    """Polynomial fits of CNOT counts for exp(i * cos x ... cos x) products.

    Fits CNOT(n_p) for n_p = 1..np_max to an exact interpolating polynomial
    sum b_k n_p^k per cutoff, and estimates the cutoff where each power turns
    on as the geometric midpoint between the last grid point without it and
    the first with it.  Predictions are 2 * A2^r with A2 the second largest
    single-cosine coefficient magnitude.  The cutoffs are 2^-k for k = 0..36;
    each product's series is sorted in sequency order once and counted at
    all of them (`sequency_sweep_counts`).  The widest reserves eight arrays of its width.
    """
    reserve(f"{n_q * np_max}-qubit product", 64 << n_q * np_max)
    d = digitize(1, n_q, g, "compact")
    f = np.cos(b_grid(d, 0))
    single = np.sort(np.abs(fwt(f).coeffs))[::-1]
    a2 = float(single[1])

    thetas = [2.0**-k for k in range(37)]
    counts = np.zeros((len(thetas), np_max), dtype=int)
    joint = np.ones(1)
    for n_p in range(1, np_max + 1):
        joint = np.kron(joint, f)  # earlier factors most significant
        width = n_p * n_q
        local = fwt(joint)
        series = embed(local, embed_positions(range(n_p), n_q), width)
        counts[:, n_p - 1] = [c["cx"] for c in sequency_sweep_counts(series, thetas)]

    powers = np.arange(1, np_max + 1, dtype=float)[:, None] ** np.arange(np_max)[None, :]
    fit = np.linalg.solve(powers, counts.T.astype(float)).T  # rows: theta, cols: b_0..b_{np_max-1}

    transitions = {}
    for r in range(1, min(5, np_max - 1) + 1):
        on = [t for t, row in zip(thetas, fit) if abs(row[r]) > 0.5]
        fitted = max(on) * math.sqrt(2.0) if on else None
        transitions[r] = {"fitted": fitted, "predicted": 2.0 * a2**r}
    return {"thetas": thetas, "fit": fit, "a2": a2, "transitions": transitions}

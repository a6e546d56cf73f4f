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
    CosineTerm,
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
from .walsh import (PRUNE_TOL, WalshSeries, _fwht_inplace, _word_count, _words, check_cutoff,
                    embed, embed_copies, fwt, merge, threshold_truncate)

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


def _placed(local, p, n_q, words, what):
    """Mask words holding each value of ``local`` in plaquette p's register bits."""
    reserve(f"{what}: {local.size} plaquette fields", local.size * (32 + 8 * words) + 4096)
    masks = np.zeros((local.size, words), dtype=np.uint64)
    word, shift = divmod(p * n_q, 64)
    masks[:, word] = local.astype(np.uint64) << np.uint64(shift)
    if shift + n_q > 64:  # the plaquette's bits straddle two words
        masks[:, word + 1] = local.astype(np.uint64) >> np.uint64(64 - shift)
    return masks


def _fields(masks, p, n_q):
    """Plaquette p's register bits of each mask row, as integers below 2^n_q."""
    word, shift = divmod(p * n_q, 64)
    field = masks[:, word] >> np.uint64(shift)
    if shift + n_q > 64:
        field |= masks[:, word + 1] << np.uint64(64 - shift)
    return (field & np.uint64((1 << n_q) - 1)).astype(np.intp)


def _expand(plaquettes, transforms, outside, floor, n_q, words, what):
    """(products, mask words) of the Z over ``plaquettes`` whose |product| can reach ``floor``.

    A product is kept while its magnitude times ``outside`` (|P| and the largest |Z|
    of every other plaquette) reaches ``floor``.  The two halves of the plaquettes are
    expanded on their own, each bounded by the other's largest product, and then
    paired: the pairs are counted, and reserved, before they are built.
    """
    if len(plaquettes) == 1:
        local = np.flatnonzero(np.abs(transforms[0]) * outside >= floor)
        return transforms[0][local], _placed(local, plaquettes[0], n_q, words, what)
    half, tops = len(plaquettes) // 2, [np.abs(z).max() for z in transforms]
    left_z, left = _expand(plaquettes[:half], transforms[:half], outside * math.prod(tops[half:]),
                           floor, n_q, words, what)
    right_z, right = _expand(plaquettes[half:], transforms[half:], outside * math.prod(tops[:half]),
                             floor, n_q, words, what)
    right_size = np.abs(right_z)
    ranked = np.argsort(-right_size, kind="stable")
    with np.errstate(divide="ignore", over="ignore"):
        fan = np.searchsorted(-right_size[ranked], -(floor / (np.abs(left_z) * outside)),
                              side="right")
    total = int(fan.sum())
    # both halves' row indices and their repeats, the products and their mask words
    reserve(f"{what}: {total} partial products", total * (64 + 16 * words) + 4096)
    pick = np.repeat(np.arange(len(fan)), fan)
    paired = ranked[np.arange(total) - np.repeat(np.cumsum(fan) - fan, fan)]
    return left_z[pick] * right_z[paired], left[pick] | right[paired]


def _pruned_cosine_series(terms, d, scale: float, theta_min: float) -> WalshSeries:
    """The entries of the series of scale * sum(terms), cosine rows, with |a| >= theta_min / 2.

    Row r, scale * prefactor / g^2 * cos(sum_p c_p B_p), is Re P_r prod_p exp(i c_p B_p),
    and the transform of a product over disjoint registers is the product of the
    per-register transforms: its coefficient at a mask with plaquette fields m_p is
    Re P_r prod_p Z_rp[m_p], Z_rp the 2^n_q-point transform of exp(i c_p B_p).  A row
    on one plaquette keeps all its masks.  A mask that no such row reaches is reached
    only by rows of two or more plaquettes holding all of its plaquettes, so by at most
    K rows, K the most such rows that any one plaquette is in; |a| >= theta_min / 2
    then needs one of them with |P_r| prod_p |Z_rp[m_p]| >= theta_min / (2K), since
    |Re prod z| <= prod |z|.  Those rows' products that can reach that floor are found
    by `_expand`.  At the union of the rows' masks each row is summed in, from its own
    products or, where it found none, from its Z.  Where K is 1, no other row of two
    or more plaquettes reaches a row's masks, so a product whose own term is below
    theta_min / 2 is left out: its mask is either this row's alone, and not kept, or a
    one-plaquette row's, where this row is summed in from its Z.  Mask 0, the global
    phase, may be missing or partly summed.
    """
    n_q, width = d.n_q, d.n_p * d.n_q
    wide = [term.plaquettes for term in terms if len(term.plaquettes) > 1]
    reach = np.bincount([p for plaquettes in wide for p in plaquettes], minlength=d.n_p)
    words, floor = _word_count(width), theta_min / (2.0 * max(reach.max(), 1))
    what, tables = f"{width}-qubit cosine count", {}

    def transform(c, p):
        """Z of exp(i c B_p), shared by equal (c, b_max)."""
        key = (c, float(d.b_max[p]))
        if key not in tables:
            reserve(f"{n_q}-qubit plaquette transform", 48 << n_q)  # Z, samples, halves
            z = np.exp(1j * c * b_grid(d, p))
            _fwht_inplace(z)
            tables[key] = z / (1 << n_q)
        return tables[key]

    rows, found = [], []  # (P_r, plaquettes, Z_rp per plaquette) and (products, masks) per row
    for term in terms:
        if not isinstance(term, CosineTerm):
            raise ValueError(f"cosine counts take cosine terms only, got {type(term).__name__}")
        p_row, plaquettes = scale * term.prefactor / d.g**2, term.plaquettes
        z_row = [transform(c, p) for p, c in term.support]
        rows.append((p_row, plaquettes, z_row))
        if len(plaquettes) == 1:
            fields = np.arange(1, 1 << n_q)
            found.append((z_row[0][fields], _placed(fields, plaquettes[0], n_q, words, what)))
        else:
            z, masks = _expand(plaquettes, z_row, abs(p_row), floor, n_q, words, what)
            if reach.max() == 1:
                keep = np.abs((p_row * z).real) >= theta_min / 2.0
                z, masks = z[keep], masks[keep]
            found.append((z, masks))
    count = sum(len(masks) for _, masks in found)
    # the joined and sorted words and values, their order, union and row flags
    reserve(f"{what}: {count} candidates", count * (32 * words + 80) + 4096)
    joined = np.concatenate([masks for _, masks in found])
    order = np.lexsort(joined.T)
    joined = joined[order]
    first = np.ones(count, dtype=bool)
    first[1:] = (joined[1:] != joined[:-1]).any(axis=1)
    union = np.empty(count, dtype=np.intp)
    union[order] = np.cumsum(first) - 1  # each joined row's place in the union
    masks = joined[first]
    values = np.concatenate([(p_row * z).real for (p_row, _, _), (z, _) in zip(rows, found)])
    coeffs = np.bincount(union, weights=values, minlength=len(masks)).astype(float)
    used = {p for _, plaquettes, _ in rows for p in plaquettes}
    ends = np.cumsum([len(own) for _, own in found])
    for (p_row, plaquettes, z_row), end, (_, own) in zip(rows, ends, found):
        if len(plaquettes) == 1:
            continue
        missing = np.ones(len(masks), dtype=bool)  # the masks this row reaches ...
        if set(plaquettes) != used:
            support = _words([sum(((1 << n_q) - 1) << p * n_q for p in plaquettes)], width)[0]
            for column, bits in zip(masks.T, ~support):
                missing &= (column & bits) == 0
        missing[union[end - len(own):end]] = False  # ... but did not find
        missing = np.flatnonzero(missing)
        value = np.full(missing.size, complex(p_row))
        for p, z in zip(plaquettes, z_row):
            value *= z[_fields(masks[missing], p, n_q)]
        coeffs[missing] += value.real
    keep = (np.abs(coeffs) >= theta_min / 2.0) & (np.abs(coeffs) > PRUNE_TOL)
    return WalshSeries._of(width, masks[keep], coeffs[keep])


def cosine_sweep_counts(terms, d, scale: float, thetas) -> list[dict[str, int]]:
    """`sequency_sweep_counts` of the series of scale * sum(terms), cosine rows, without it.

    Once every cutoff is positive the rows are counted from `_pruned_cosine_series`
    at the smallest, with no register diagonal or full transform, at any width the
    memory budget holds.  Tie rule: a mask is kept when |a| >= theta / 2 and
    |a| > `PRUNE_TOL`; the counts differ from the series path's only where theta / 2
    is within rounding of an |a|.  A zero cutoff keeps every mask, so nothing can be
    pruned: there the series is built.
    """
    thetas, terms = [check_cutoff(theta) for theta in thetas], list(terms)
    if not thetas:
        return []
    if min(thetas) == 0 or not terms:
        return sequency_sweep_counts(hamiltonian_series(terms, d, scale), thetas)
    return sequency_sweep_counts(_pruned_cosine_series(terms, d, scale, min(thetas)), thetas)


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
    by `cosine_sweep_counts`, at any width once every cutoff is positive; ``lattice``
    is read for "E" only.
    """
    def counts(name):
        if name == "B" and d.formulation == "compact":
            return cosine_sweep_counts(magnetic_terms(d, weave), d, _share(plan, name), thetas)
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

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import u1rotor as u
from u1rotor.hamiltonian import local_form
from u1rotor.trotter import (
    _pruned_cosine_series,
    cosine_sweep_counts,
    factor_series,
    product_scaling_study,
    quadratic_sweep_counts,
    term_series,
    truncated_factor_series,
)


def _model(n_q=2, g=0.5, formulation="compact"):
    lat = u.LatticeSpec(2, 2)
    d = u.digitize(lat.n_p, n_q, g, formulation)
    return u.build_model(lat, d)


def _full_ft(n_q, n_p):
    f1 = u.ft_matrix(n_q)
    f = f1
    for _ in range(n_p - 1):
        f = np.kron(f, f1)
    return f


def test_theta_policy():
    assert u.ThetaPolicy("abs", 0.3).resolve(0.1) == 0.3
    assert u.ThetaPolicy("dt", 0.5).resolve(0.1) == pytest.approx(0.05)
    assert u.ThetaPolicy("dt2", 2.0).resolve(0.1) == pytest.approx(0.02)
    with pytest.raises(ValueError):
        u.ThetaPolicy("weekly", 1.0)
    for bad in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="non-negative and finite"):
            u.ThetaPolicy("abs", bad)


def test_plan_validation():
    with pytest.raises(ValueError):
        u.TrotterPlan(3, 0.1, 1)
    for bad in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            u.TrotterPlan(1, bad, 1)
    with pytest.raises(ValueError):
        u.TrotterPlan(1, 0.1, -1)
    for bad in (1.5, 2.0, True, np.float64(1.0)):
        with pytest.raises(ValueError, match="integer"):
            u.TrotterPlan(1, 0.1, bad)
    assert u.TrotterPlan(1, 0.1, 0).t == 0.0
    assert u.TrotterPlan(1, 0.5, np.int64(3)).t == 1.5


def test_splitting_identity_order1():
    model = _model()
    plan = u.TrotterPlan(1, 0.15, 1)
    e_diag, b_diag = u.dense_diagonals(model)
    f = _full_ft(2, 3)
    u_e = (f * np.exp(-1j * e_diag * plan.dt)[None, :]) @ f.conj().T
    u_b = np.diag(np.exp(-1j * b_diag * plan.dt))
    step = u.circuit_unitary(u.step_circuit(model, plan))
    assert np.abs(step - u_e @ u_b).max() < 1e-10


def test_splitting_identity_order2():
    model = _model()
    plan = u.TrotterPlan(2, 0.15, 1)
    e_diag, b_diag = u.dense_diagonals(model)
    f = _full_ft(2, 3)
    u_e_half = (f * np.exp(-1j * e_diag * plan.dt / 2)[None, :]) @ f.conj().T
    u_b = np.diag(np.exp(-1j * b_diag * plan.dt))
    step = u.circuit_unitary(u.step_circuit(model, plan))
    assert np.abs(step - u_e_half @ u_b @ u_e_half).max() < 1e-10


def test_trotter_convergence_orders():
    model = _model(g=0.5)
    t = 0.2
    exact = u.exact_evolution(model, t)
    for order, nominal in ((1, 1.0), (2, 2.0)):
        errs = []
        dts = (0.2, 0.1, 0.05, 0.025)
        for dt in dts:
            plan = u.TrotterPlan(order, dt, round(t / dt))
            step = u.circuit_unitary(u.step_circuit(model, plan))
            total = np.linalg.matrix_power(step, plan.steps)
            errs.append(np.linalg.norm(total - exact, 2))
        slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
        assert abs(slope - nominal) < 0.3


def test_kept_masks_invariant_under_dt_with_linear_policy():
    model = _model()
    kept_sets = []
    for dt in (0.4, 0.2, 0.1, 0.05):
        plan = u.TrotterPlan(1, dt, 1, u.ThetaPolicy("dt", 1.0), u.ThetaPolicy("dt", 1.0))
        series_e, series_b = factor_series(model, plan)
        ke, _ = u.threshold_truncate(series_e, plan.theta_e.resolve(dt))
        kb, _ = u.threshold_truncate(series_b, plan.theta_b.resolve(dt))
        kept_sets.append((frozenset(dict(ke.items())), frozenset(dict(kb.items()))))
    assert all(s == kept_sets[0] for s in kept_sets)


def test_step_gate_count_constant_under_linear_policy():
    model = _model()
    counts = []
    for dt in (0.4, 0.2, 0.1):
        plan = u.TrotterPlan(1, dt, 1, u.ThetaPolicy("dt", 1.0), u.ThetaPolicy("dt", 1.0))
        counts.append(u.gate_count(u.step_circuit(model, plan)))
    assert counts[0] == counts[1] == counts[2]


def test_error_bound_zero_time():
    model = _model()
    plan = u.TrotterPlan(1, 0.2, 0)
    assert u.error_bound(model, plan).bound == 0.0


def test_error_bound_zero_cutoff_is_commutator_term():
    model = _model()
    plan = u.TrotterPlan(1, 0.2, 1)
    budget = u.error_bound(model, plan)
    assert budget.bound == pytest.approx(budget.alpha * plan.t * plan.dt)
    h_e = u.dense_electric(model)
    _, b_diag = u.dense_diagonals(model)
    comm = h_e @ np.diag(b_diag) - np.diag(b_diag) @ h_e
    assert budget.alpha == pytest.approx(np.linalg.norm(comm, 2), rel=1e-10)


def test_error_bound_holds_on_sample_points():
    model = _model(g=0.3)
    exact = u.exact_evolution(model, 0.2)
    for theta in (0.0, 0.1, 0.5):
        plan = u.TrotterPlan(1, 0.2, 1, u.ThetaPolicy("abs", theta), u.ThetaPolicy("abs", theta))
        budget = u.error_bound(model, plan)
        step = u.circuit_unitary(u.step_circuit(model, plan))
        measured = np.linalg.norm(step - exact, 2)
        assert measured <= budget.bound


def test_error_bound_override_constants():
    # the truncation constants are the per-step drop counts over dt, and the bound
    # combines them with alpha by the documented formula
    model = _model()
    plan = u.TrotterPlan(1, 0.2, 1, u.ThetaPolicy("abs", 0.3), u.ThetaPolicy("abs", 0.3))
    budget = u.error_bound(model, plan)
    series_e, series_b = factor_series(model, plan)
    drops = [u.threshold_truncate(s, 0.3)[1] for s in (series_e, series_b)]
    assert (budget.c_e * 0.2, budget.c_b * 0.2) == pytest.approx(drops)
    assert drops[0] + drops[1] > 0
    expected = budget.alpha * 0.2 * 0.2 + budget.c_e * 0.3 * 0.2 + budget.c_b * 0.3 * 0.2
    assert budget.bound == pytest.approx(expected)


def test_n_drop_monotone_in_dt():
    # cutoff scaling with a power of dt >= 1: dropping can only grow with dt
    model = _model()

    def drops(plan, dts):
        return [sum(dropped for _, dropped in truncated_factor_series(model, replace(plan, dt=dt)))
                for dt in dts]

    plan = u.TrotterPlan(2, 0.1, 1, u.ThetaPolicy("dt2", 1.0), u.ThetaPolicy("dt2", 1.0))
    n_drops = drops(plan, [0.05, 0.1, 0.2, 0.4, 0.8])
    assert n_drops == sorted(n_drops)
    assert n_drops[-1] > n_drops[0]
    # under the linear policy at order 1 the count is flat across dt
    plan_lin = u.TrotterPlan(1, 0.1, 1, u.ThetaPolicy("dt", 1.0), u.ThetaPolicy("dt", 1.0))
    assert len(set(drops(plan_lin, [0.05, 0.1, 0.2, 0.4]))) == 1


def test_product_scaling_study_checks_the_term_cap():
    # 13 x 2 = 26 qubits, above the budget's 25 q products: raised before the first product is built
    with pytest.raises(u.ResourceLimitError, match=f"26-qubit product needs {64 << 26} B"):
        product_scaling_study(13, 2, 0.1)


def test_merged_series_before_truncation_in_step():
    # coefficients shared between terms must be summed before the cutoff:
    # the step's magnetic series at theta=0 reproduces the dense diagonal
    from u1rotor.walsh import state_values

    model = _model(formulation="compact")
    plan = u.TrotterPlan(1, 0.2, 1)
    _, series_b = factor_series(model, plan)
    _, b_diag = u.dense_diagonals(model)
    assert np.abs(state_values(series_b) - (-plan.dt) * b_diag).max() < 1e-9


@pytest.mark.parametrize("kappa", [0.0, 0.05, 10.0])
def test_truncated_factors_keep_the_global_phase(kappa):
    # mask 0 survives any cutoff; every other kept mask clears it, and the
    # step circuit is the per-factor `truncated_circuit` assembly
    model = _model()
    policy = u.ThetaPolicy("abs", kappa)
    plan = u.TrotterPlan(2, 0.3, 1, policy, policy)
    full = factor_series(model, plan)
    kept = [trunc for trunc, _ in u.truncated_factor_series(model, plan)]
    for series, trunc in zip(full, kept):
        assert trunc.coefficient(0) == series.coefficient(0) != 0.0
        assert {m for m, _ in trunc.items() if m} == {
            m for m, c in series.items() if m and abs(c) >= kappa / 2}
    n = model.n_qubits
    ft = u.Circuit(n, [g for p in range(model.n_p) for g in u.qft_circuit(2).shifted(2 * p, n).gates])
    trunc_e, trunc_b = (u.truncated_circuit(series, kappa) for series in full)
    electric = u.Circuit(n, [*ft.dagger().gates, *trunc_e.gates, *ft.gates], trunc_e.global_phase)
    expected = u.Circuit(n, [*electric.gates, *trunc_b.gates, *electric.gates],
                         electric.global_phase + trunc_b.global_phase + electric.global_phase)
    step = u.step_circuit(model, plan)
    assert step.gates == expected.gates
    assert step.global_phase == expected.global_phase


@pytest.mark.parametrize("order, counts", [(1, (1, 1)), (2, (2, 1))])
def test_factor_series_scales_by_the_splitting(order, counts):
    # each factor carries -dt over its number of uses in the splitting, bit for bit
    model = _model()
    plan = u.TrotterPlan(order, 0.3, 1)
    for series, terms, k in zip(factor_series(model, plan), (model.electric, model.magnetic),
                                counts):
        expected = u.hamiltonian_series(terms, model.digitization, -0.3 / k)
        assert np.array_equal(series.words, expected.words)
        assert np.array_equal(series.coeffs, expected.coeffs)


def test_step_circuit_synthesizes_each_factor_once(monkeypatch):
    # the symmetric step applies the electric factor twice but builds it once
    import u1rotor.trotter as trotter

    calls = []
    synthesize = trotter.exact_circuit

    def spy(series):
        calls.append(series)
        return synthesize(series)

    monkeypatch.setattr(trotter, "exact_circuit", spy)
    u.step_circuit(_model(), u.TrotterPlan(2, 0.3, 1))
    assert len(calls) == 2


def _per_term_series(terms, d, scale):
    """Oracle: every term transformed, embedded and merged on its own, in term order."""
    width = d.n_p * d.n_q
    parts = [u.embed(term_series(term, d, scale), u.embed_positions(term.plaquettes, d.n_q), width)
             for term in terms]
    return u.merge(parts) if parts else u.WalshSeries(width, {})


def _assert_same_bytes(got, want):
    assert (got.n, got.words.shape, got.coeffs.shape) == (want.n, want.words.shape, want.coeffs.shape)
    assert got.words.tobytes() == want.words.tobytes()
    assert got.coeffs.tobytes() == want.coeffs.tobytes()


def _pair_weave(n_p, a, b):
    # a 3-4-5 rotation of plaquettes a and b: their cosine caps become pi/0.6 and pi/0.2
    w = np.eye(n_p)
    w[np.ix_([a, b], [a, b])] = [[0.6, 0.8], [0.8, -0.6]]
    return u.weave_from_matrix(w)


@st.composite
def _series_case(draw):
    n_x, n_y = draw(st.sampled_from([(2, 2), (2, 3)]))
    n_p = n_x * n_y - 1
    kind = draw(st.sampled_from(["original", "pair", "random"] + (["builtin"] if n_p == 3 else [])))
    if kind == "pair":
        weave = _pair_weave(n_p, *draw(st.lists(st.integers(0, n_p - 1), min_size=2,
                                                max_size=2, unique=True)))
    elif kind == "random":
        rng = np.random.default_rng(draw(st.integers(0, 2**16)))
        weave = u.weave_from_matrix(np.linalg.qr(rng.standard_normal((n_p, n_p)))[0])
    else:
        weave = u.builtin_weave(n_p) if kind == "builtin" else None
    n_q, g = draw(st.integers(1, 3)), draw(st.floats(0.2, 2.0))
    formulation = draw(st.sampled_from(["compact", "non-compact"]))
    d = u.digitize(n_p, n_q, g, formulation, "original" if weave is None else "weaved", weave)
    model = u.build_model(u.LatticeSpec(n_x, n_y), d, weave)
    terms = getattr(model, draw(st.sampled_from(["electric", "magnetic"])))
    k = draw(st.integers(0, len(terms) - 1))
    terms = draw(st.sampled_from([terms, terms[:0], terms[k : k + 1]]))  # all, none or one
    scale = draw(st.floats(0.01, 2.0)) * draw(st.sampled_from([-1.0, 1.0]))
    return terms, d, scale


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_series_case())
def test_hamiltonian_series_matches_the_per_term_oracle(case):
    # one transform per local form gives the per-term series byte for byte
    terms, d, scale = case
    _assert_same_bytes(u.hamiltonian_series(terms, d, scale), _per_term_series(terms, d, scale))


@pytest.mark.parametrize("n_x, n_q", [(8, 2), (5, 3)])
def test_hamiltonian_series_matches_the_oracle_on_wide_registers(n_x, n_q):
    # 8x8 at n_q = 2 has two mask words; at 5x5, n_q = 3, plaquette 21 holds qubits 63-65
    lattice = u.LatticeSpec(n_x, n_x)
    d = u.digitize(lattice.n_p, n_q, 0.9, "non-compact")
    model = u.build_model(lattice, d)
    for terms in (model.electric, model.magnetic):
        assert len({local_form(term, d) for term in terms}) < len(terms)
        _assert_same_bytes(u.hamiltonian_series(terms, d, -0.25),
                           _per_term_series(terms, d, -0.25))


def test_local_forms_tell_grids_apart():
    # the three electric self-terms all have coefficient 4, each on its own grid
    weave = _pair_weave(3, 1, 2)
    d = u.digitize(3, 2, 2.0, "compact", "weaved", weave)
    terms = u.build_model(u.LatticeSpec(2, 2), d, weave).electric
    assert [t.coefficient for t in terms if t.i == t.j] == [4.0] * 3
    assert len(set(d.b_max.tolist())) == 3
    _assert_same_bytes(u.hamiltonian_series(terms, d, -0.5), _per_term_series(terms, d, -0.5))


def test_local_forms_tell_cosines_apart():
    # single-plaquette cosines on equal grids, told apart by prefactor or coefficient
    d = u.digitize(3, 2, 0.5, "compact")
    terms = [u.CosineTerm(((0, 1.0),)), u.CosineTerm(((1, 1.0),), prefactor=2.0),
             u.CosineTerm(((2, 0.5),)), u.CosineTerm(((1, 1.0),))]
    _assert_same_bytes(u.hamiltonian_series(terms, d, 0.3), _per_term_series(terms, d, 0.3))


# Transform round-off of exact zeros reaches a few 1e-18 of the largest |a| and, at
# n_q = 4, can sit above PRUNE_TOL: no mask is held to either path below this share.
_ROUNDOFF = 16 * np.finfo(float).eps


@st.composite
def _quadratic_case(draw):
    """An electric or non-compact magnetic factor from 2x2 to 8x8, both bases."""
    lattice = u.LatticeSpec(draw(st.integers(2, 8)), draw(st.integers(2, 8)))
    n_p = lattice.n_p
    weaves = ["original", "pair", "random"] + (["builtin"] if n_p == 3 else [])
    weave = draw(st.sampled_from(weaves))
    if weave == "pair":
        weave = _pair_weave(n_p, *draw(st.lists(st.integers(0, n_p - 1), min_size=2,
                                                max_size=2, unique=True)))
    elif weave == "random":
        rng = np.random.default_rng(draw(st.integers(0, 2**16)))
        weave = u.weave_from_matrix(np.linalg.qr(rng.standard_normal((n_p, n_p)))[0])
    else:
        weave = u.builtin_weave(n_p) if weave == "builtin" else None
    n_q = draw(st.integers(1, min(4, max(1, 96 // n_p))))
    formulation = draw(st.sampled_from(["compact", "non-compact"]))
    kind = draw(st.sampled_from(["RR", "BB"] if formulation == "non-compact" else ["RR"]))
    g = draw(st.floats(0.1, 3.0))
    d = u.digitize(n_p, n_q, g, formulation, "original" if weave is None else "weaved", weave)
    scale = draw(st.floats(0.01, 2.0)) * draw(st.sampled_from([-1.0, 1.0]))
    return lattice, d, weave, kind, scale, draw(st.integers(0, 2**16))


def _quadratic_series(lattice, d, weave, kind, scale):
    """(q, the factor's `hamiltonian_series`) of the electric ("RR") or magnetic ("BB") form."""
    model = u.build_model(lattice, d, weave)
    if kind == "RR":
        q, terms = u.electric_quadratic_form(lattice, weave), model.electric
    else:
        q, terms = u.magnetic_quadratic_form(d.n_p, weave), model.magnetic
    return q, u.hamiltonian_series(terms, d, scale)


def _bit_counts(series):
    return sum(np.bitwise_count(word).astype(int) for word in series.words.T)


def _cutoffs_near(series, seed):
    """0, log-uniform cutoffs, and cutoffs 1e-9 either side of 2|a| for coefficients a."""
    rng = np.random.default_rng(seed)
    size = np.abs(series.coeffs[series.words.any(axis=1)])
    near = 2 * rng.choice(size, 4) * (1 + rng.choice([-1e-9, 1e-9], 4))
    return [0.0, *np.exp(rng.uniform(np.log(1e-6), np.log(4 * size.max()), 6)), *near]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(_quadratic_case())
@example((u.LatticeSpec(4, 4), u.digitize(15, 4, 1.645, "compact"), None, "RR", -0.5, 0))
def test_quadratic_series_keep_two_bit_masks(case):
    # every mask above round-off has one or two bits, so its sequency walk costs
    # one Rz per kept mask and two CNOTs per kept two-bit mask
    lattice, d, weave, kind, scale, seed = case
    _, series = _quadratic_series(lattice, d, weave, kind, scale)
    size, bits = np.abs(series.coeffs), _bit_counts(series)
    floor = 2 * _ROUNDOFF * size.max()
    assert bits[size >= floor / 2].max() <= 2
    thetas = [max(theta, floor) for theta in _cutoffs_near(series, seed)]
    for theta, counts in zip(thetas, u.sequency_sweep_counts(series, thetas)):
        kept = (size >= theta / 2) & (bits > 0)
        assert counts == {"rz": int(kept.sum()), "cx": 2 * int((kept & (bits == 2)).sum())}


@settings(max_examples=30, deadline=None, derandomize=True)
@given(_quadratic_case())
@example((u.LatticeSpec(16, 16), u.digitize(255, 2, 0.8, "non-compact"), None, "RR", -0.3, 1))
@example((u.LatticeSpec(16, 16), u.digitize(255, 2, 1.3, "non-compact"), None, "BB", -0.6, 2))
@example((u.LatticeSpec(4, 4), u.digitize(15, 4, 1.645, "compact"), None, "RR", -0.5, 3))
def test_quadratic_counts_hold_to_the_series_path(case):
    lattice, d, weave, kind, scale, seed = case
    q, series = _quadratic_series(lattice, d, weave, kind, scale)
    floor = 2 * _ROUNDOFF * np.abs(series.coeffs).max()
    thetas = [max(theta, floor) for theta in _cutoffs_near(series, seed)]
    got = quadratic_sweep_counts(q, d, kind, scale, thetas)
    assert got == u.sequency_sweep_counts(series, thetas)
    if weave is None:  # integer q on one spacing: the exact zeros stay exact
        assert quadratic_sweep_counts(q, d, kind, scale, [0.0]) == got[:1]


def test_quadratic_counts_keep_a_mask_at_exactly_its_cutoff():
    # spacing 1, weight 1/2, scale 1 and q = I + J on 3 plaquettes, so every |a| is
    # dyadic: q_pr 2^(k+l) / 4 for bits k of p and l of r, 2^k for bit k alone
    d = u.Digitization(2, 1.0, np.full(3, 2.0), "non-compact", "original")
    q = u.magnetic_quadratic_form(3)
    series = u.hamiltonian_series(u.magnetic_terms(d), d, 1.0)
    pairs = {0.25: 3, 0.5: 6, 1.0: 6}  # k + l = 0, 1, 1, 2 across plaquettes; q_pp = 2 within
    singles = {1.0: 3, 2.0: 3}
    for a in (0.25, 0.5, 1.0, 2.0):
        two = sum(c for size, c in pairs.items() if size >= a)
        one = sum(c for size, c in singles.items() if size >= a)
        thetas = [2 * a, np.nextafter(2 * a, 3 * a)]
        at, above = quadratic_sweep_counts(q, d, "BB", 1.0, thetas)
        assert at == {"rz": two + one, "cx": 2 * two} and above["rz"] < at["rz"]
        assert [at, above] == u.sequency_sweep_counts(series, thetas)


def test_quadratic_counts_check_their_input():
    d = u.digitize(3, 2, 0.5, "non-compact")
    q = u.magnetic_quadratic_form(3)
    assert quadratic_sweep_counts(q, d, "BB", -0.1, []) == []
    with pytest.raises(ValueError, match="unknown bilinear kind"):
        quadratic_sweep_counts(q, d, "RB", -0.1, [0.0])
    with pytest.raises(ValueError, match="shape"):
        quadratic_sweep_counts(q[:2, :2], d, "BB", -0.1, [0.0])
    with pytest.raises(ValueError, match="non-negative and finite"):
        quadratic_sweep_counts(q, d, "BB", -0.1, [0.1, float("nan")])
    with pytest.raises(ValueError, match="non-finite"):
        quadratic_sweep_counts(q, d, "BB", -1e308, [0.0])


def test_quadratic_counts_leave_out_the_series_roundoff_at_cutoff_zero():
    # a known, accepted difference: the transform leaves round-off of exact zeros
    # above PRUNE_TOL here, which the series path (and so `export`) keeps at cutoff 0
    # and the closed form, hence `gatecount`, does not; from 1e-14 up they agree
    lattice, d = u.LatticeSpec(4, 4), u.digitize(15, 4, 1.645, "compact")
    series = u.hamiltonian_series(u.electric_terms(lattice), d, -0.5)
    size = np.abs(series.coeffs)
    roundoff = int(((size < 2 * _ROUNDOFF * size.max()) & series.words.any(axis=1)).sum())
    closed = quadratic_sweep_counts(u.electric_quadratic_form(lattice), d, "RR", -0.5, [0.0, 1e-14])
    walsh = u.sequency_sweep_counts(series, [0.0, 1e-14])
    assert closed[0] == closed[1] == walsh[1] == {"rz": 554, "cx": 1076}
    assert roundoff > 0 and walsh[0]["rz"] == 554 + roundoff and walsh[0]["cx"] > 1076


@st.composite
def _cosine_case(draw):
    """Compact cosine rows up to 18 qubits, both bases: the maximal row, one plaquette's
    cosine or every magnetic row, at a random coupling and scale of either sign."""
    n_p = draw(st.integers(1, 6))
    n_q = draw(st.integers(1, min(5, 18 // n_p)))
    kinds = ["original", "random"] + (["pair"] if n_p > 1 else []) + (["builtin"] if n_p == 3 else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "pair":
        weave = _pair_weave(n_p, *draw(st.lists(st.integers(0, n_p - 1), min_size=2,
                                                max_size=2, unique=True)))
    elif kind == "random":
        rng = np.random.default_rng(draw(st.integers(0, 2**16)))
        weave = u.weave_from_matrix(np.linalg.qr(rng.standard_normal((n_p, n_p)))[0])
    else:
        weave = u.builtin_weave(n_p) if kind == "builtin" else None
    g = draw(st.floats(0.1, 2.0))
    d = u.digitize(n_p, n_q, g, "compact", "original" if weave is None else "weaved", weave)
    rows = u.magnetic_terms(d, weave)
    term = draw(st.sampled_from(["maximal", "cosine", "magnetic"]))
    if term == "cosine":
        terms = [u.CosineTerm(((draw(st.integers(0, n_p - 1)), 1.0),), prefactor=g**2)]
    else:
        terms = rows[-1:] if term == "maximal" else rows
    scale = draw(st.floats(0.01, 2.0)) * draw(st.sampled_from([-1.0, 1.0]))
    return terms, d, scale, draw(st.integers(0, 2**16))


def _nonzero(series):
    return {mask: a for mask, a in series.items() if mask}


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_cosine_case())
@example(([u.CosineTerm(tuple((p, 1.0) for p in range(6)), prefactor=0.01)],
          u.digitize(6, 3, 0.1, "compact"), -1.0, 0))
def test_cosine_counts_hold_to_the_series_path(case):
    # log-uniform cutoffs and cutoffs within 1e-12 of 2|a|: the kept masks differ only
    # where 2|a| is that close to the cutoff (or within round-off of it), and agree in value
    terms, d, scale, seed = case
    series = u.hamiltonian_series(terms, d, scale)
    top = np.abs(series.coeffs).max()
    size = np.abs(series.coeffs[series.words.any(axis=1)])
    rng = np.random.default_rng(seed)
    near = 2 * rng.choice(size, 4) * (1 + rng.uniform(-1e-12, 1e-12, 4)) if size.size else []
    thetas = [max(theta, 2 * _ROUNDOFF * top)
              for theta in [*np.exp(rng.uniform(np.log(1e-9 * top), np.log(4 * top), 6)), *near]]
    same = []
    for theta in thetas:
        kept = _nonzero(u.threshold_truncate(series, theta)[0])
        pruned = _nonzero(_pruned_cosine_series(terms, d, scale, theta))
        for mask in kept.keys() ^ pruned.keys():
            a = series.coefficient(mask)
            assert abs(2 * abs(a) - theta) <= 1e-12 * theta + 2 * _ROUNDOFF * top
        for mask in kept.keys() & pruned.keys():
            assert abs(pruned[mask] - kept[mask]) <= _ROUNDOFF * top
        same.append(kept.keys() == pruned.keys())
    swept = cosine_sweep_counts(terms, d, scale, thetas)
    for theta, alike, got, want in zip(thetas, same, swept, u.sequency_sweep_counts(series, thetas)):
        assert got == want or not alike


def test_cosine_masks_straddling_two_words():
    # n_q = 3: plaquette 21 holds qubits 63-65, across the first two mask words; the kept
    # masks are those of the same cosine on plaquettes 0-2 shifted up by 60 qubits
    term = u.CosineTerm(((20, 1.0), (21, -0.7), (22, 0.4)), prefactor=-1.0)
    d = u.digitize(23, 3, 0.5, "compact")
    local = u.hamiltonian_series([u.CosineTerm(((0, 1.0), (1, -0.7), (2, 0.4)), prefactor=-1.0)],
                                 u.digitize(3, 3, 0.5, "compact"), -0.3)
    thetas = [1e-4, 1e-3, 1e-2]
    for theta in thetas:
        want = {mask << 60: a for mask, a in _nonzero(u.threshold_truncate(local, theta)[0]).items()}
        got = _nonzero(_pruned_cosine_series([term], d, -0.3, theta))
        assert got.keys() == want.keys() and any(mask >> 64 and mask & (1 << 63) for mask in got)
        assert max(abs(got[mask] - want[mask]) for mask in got) <= 1e-15
    wide = u.hamiltonian_series([term], d, -0.3)
    assert cosine_sweep_counts([term], d, -0.3, thetas) == u.sequency_sweep_counts(wide, thetas)


def test_cosine_counts_keep_masks_that_clear_the_cutoff_only_in_the_sum():
    # two equal rows of two plaquettes: each holds half of every coefficient, so at
    # theta / 2 = 1.5 |a| of one row every mask is kept from the sum and from neither row
    d = u.digitize(2, 2, 0.7, "compact")
    row = u.CosineTerm(((0, 1.0), (1, 1.0)), prefactor=-1.0)
    thetas = [3 * abs(a) for mask, a in u.hamiltonian_series([row], d, 0.4).items() if mask]
    got = cosine_sweep_counts([row, row], d, 0.4, thetas)
    assert got == u.sequency_sweep_counts(u.hamiltonian_series([row, row], d, 0.4), thetas)
    assert all(c["rz"] > 0 for c in got)


def test_cosine_counts_build_a_series_at_cutoff_zero_only(monkeypatch):
    import u1rotor.trotter as trotter

    d = u.digitize(3, 2, 0.5, "compact")
    terms = u.magnetic_terms(d)
    series = u.hamiltonian_series(terms, d, -0.2)
    want = u.sequency_sweep_counts(series, [0.0, 1e-3])
    assert cosine_sweep_counts(terms, d, -0.2, [0.0, 1e-3]) == want
    assert cosine_sweep_counts(terms, d, -0.2, []) == []

    def refuse(*args):
        raise AssertionError("a positive-cutoff cosine count built a series")

    monkeypatch.setattr(trotter, "hamiltonian_series", refuse)
    assert cosine_sweep_counts(terms, d, -0.2, [1e-3]) == want[1:]
    with pytest.raises(ValueError, match="non-negative and finite"):
        cosine_sweep_counts(terms, d, -0.2, [1e-3, float("nan")])
    with pytest.raises(ValueError, match="cosine terms only"):
        cosine_sweep_counts([u.BilinearTerm("BB", 0, 1, 1.0)], d, -0.2, [1e-3])

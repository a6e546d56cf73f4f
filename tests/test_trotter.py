import numpy as np
import pytest

import u1rotor as u
from u1rotor.trotter import factor_series


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
    for bad in (-1.0, float("nan")):
        with pytest.raises(ValueError):
            u.ThetaPolicy("abs", bad)


def test_plan_validation():
    with pytest.raises(ValueError):
        u.TrotterPlan(3, 0.1, 1)
    for bad in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            u.TrotterPlan(1, bad, 1)
    with pytest.raises(ValueError):
        u.TrotterPlan(1, 0.1, -1)
    assert u.TrotterPlan(1, 0.1, 0).t == 0.0


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
        kept_sets.append((frozenset(ke.terms), frozenset(kb.terms)))
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
    model = _model()
    plan = u.TrotterPlan(1, 0.2, 1, u.ThetaPolicy("abs", 0.3), u.ThetaPolicy("abs", 0.3))
    budget = u.error_bound(model, plan, c_e=2.0, c_b=1.0)
    expected = budget.alpha * 0.2 * 0.2 + 2.0 * 0.3 * 0.2 + 1.0 * 0.3 * 0.2
    assert budget.bound == pytest.approx(expected)


def test_n_drop_monotone_in_dt():
    # cutoff scaling with a power of dt >= 1: dropping can only grow with dt
    model = _model()
    plan = u.TrotterPlan(2, 0.1, 1, u.ThetaPolicy("dt2", 1.0), u.ThetaPolicy("dt2", 1.0))
    report = u.n_drop_monotonicity_check(model, plan, [0.8, 0.05, 0.2, 0.4, 0.1])
    assert report.non_decreasing
    assert report.dts == tuple(sorted(report.dts))
    assert report.n_drops[-1] > report.n_drops[0]
    # under the linear policy at order 1 the count is flat across dt
    plan_lin = u.TrotterPlan(1, 0.1, 1, u.ThetaPolicy("dt", 1.0), u.ThetaPolicy("dt", 1.0))
    flat = u.n_drop_monotonicity_check(model, plan_lin, [0.05, 0.1, 0.2, 0.4])
    assert len(set(flat.n_drops)) == 1


def test_merged_series_before_truncation_in_step():
    # coefficients shared between terms must be summed before the cutoff:
    # the step's magnetic series at theta=0 reproduces the dense diagonal
    from u1rotor.walsh import state_values

    model = _model(formulation="compact")
    plan = u.TrotterPlan(1, 0.2, 1)
    _, series_b = factor_series(model, plan)
    _, b_diag = u.dense_diagonals(model)
    assert np.abs(state_values(series_b) - (-plan.dt) * b_diag).max() < 1e-9

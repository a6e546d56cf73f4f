"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the report lines.
One criterion, 10 (the truncated-count slope of the maximally coupled
cosine), fails as stated, pending the source's definition of its "cutoff
ratio", which the repository does not give.  It is asserted as stated, not
weakened, and prints its measured slopes in the report line.  README.md
discusses it.
"""

import math

import numpy as np

import u1rotor as u
from u1rotor.cli import plaquette_point
from u1rotor.trotter import product_scaling_study
from conftest import diagonal_exponential, random_series


def _cos_sum(n_p, g):
    """cos(B_0 + ... + B_{n_p-1}) with no coupling factor: prefactor g^2 cancels 1/g^2."""
    return u.CosineTerm(tuple((p, 1.0) for p in range(n_p)), prefactor=g**2)


def _report(num, name, passed):
    print(f"ACCEPTANCE {num:02d} {'PASS' if passed else 'FAIL'} - {name}")
    assert passed, f"criterion {num} ({name}) failed"


def test_criterion_01_walsh_coefficient_table():
    d = u.digitize(1, 2, 0.1, "compact")
    series = u.fwt(np.cos(u.b_grid(d, 0)))
    mags = sorted(np.abs(series.coeffs), reverse=True)
    reference = [9.83e-1, 1.10e-2, 1.10e-2, 5.49e-3]
    ok = len(mags) == 4 and all(
        abs(m - r) / r < 0.01 for m, r in zip(mags, reference)
    )
    _report(1, "single-cosine Walsh coefficient magnitudes within 1%", ok)


def test_criterion_02_gate_count_law():
    rng = np.random.default_rng(7)
    ok = True
    for n in range(1, 9):
        series = u.WalshSeries(n, {j: float(rng.uniform(0.5, 1.5)) for j in range(1 << n)})
        counts = u.gate_count(u.exact_circuit(series))
        ok &= counts["rz"] == (1 << n) - 1 and counts["cx"] == (1 << n) - 2
    _report(2, "full series cost exactly (2^n - 1, 2^n - 2)", ok)


def test_criterion_03_figure_exact_circuits():
    from u1rotor.circuits import Gate

    walsh13 = u.exp_walsh(13, 0.5, 4)
    ok = walsh13.gates == [
        Gate("cx", (0, 3)),
        Gate("cx", (2, 3)),
        Gate("rz", (3,), -1.0),
        Gate("cx", (2, 3)),
        Gate("cx", (0, 3)),
    ]
    series = u.WalshSeries(3, {1: 1.0, 2: 0.8, 3: 1e-4, 4: 0.9, 5: 1e-4, 6: 0.7, 7: 1e-4})
    counts = u.gate_count(u.truncated_circuit(series, 0.1))
    ok &= counts["rz"] == 4 and counts["cx"] == 2
    _report(3, "mask-13 exponential and truncated three-qubit example", ok)


def test_criterion_04_unitary_equivalence_property():
    rng = np.random.default_rng(12345)
    worst = 0.0
    for case in range(100):
        n = int(rng.integers(1, 9))
        density = float(rng.uniform(0.1, 1.0))
        series = random_series(rng, n, density=density)
        exact_dev = np.abs(
            u.circuit_unitary(u.exact_circuit(series)) - diagonal_exponential(series)
        ).max()
        theta = float(rng.uniform(0.0, 1.0))
        kept, _ = u.threshold_truncate(series, theta)
        body = u.WalshSeries(n, {m: c for m, c in kept.items() if m != 0})
        target = np.exp(1j * series.coefficient(0)) * diagonal_exponential(body)
        trunc_dev = np.abs(
            u.circuit_unitary(u.truncated_circuit(series, theta)) - target
        ).max()
        worst = max(worst, exact_dev, trunc_dev)
    _report(4, f"synthesis matches diagonal exponentials (worst {worst:.2e})", worst < 1e-10)


def _trotter_model(g=0.5, n_q=2):
    lat = u.LatticeSpec(2, 2)
    return u.build_model(lat, u.digitize(lat.n_p, n_q, g, "compact"))


def test_criterion_05_trotter_orders():
    model = _trotter_model(g=0.5)
    t = 0.2
    exact = u.exact_evolution(model, t)
    ok = True
    detail = []
    for order, nominal in ((1, 1.0), (2, 2.0)):
        errs = []
        dts = (0.2, 0.1, 0.05, 0.025)
        for dt in dts:
            plan = u.TrotterPlan(order, dt, round(t / dt))
            step = u.circuit_unitary(u.step_circuit(model, plan))
            errs.append(np.linalg.norm(np.linalg.matrix_power(step, plan.steps) - exact, 2))
        slope = float(np.polyfit(np.log(dts), np.log(errs), 1)[0])
        detail.append(f"order {order}: {slope:.3f}")
        ok &= abs(slope - nominal) <= 0.3
    _report(5, "fitted Trotter error exponents (" + ", ".join(detail) + ")", ok)


def test_criterion_06_error_bound_grid():
    ok = True
    worst_margin = np.inf
    for g in np.geomspace(0.1, 5.0, 5):
        model = _trotter_model(g=float(g))
        exact = u.exact_evolution(model, 0.2)
        for theta in (0.0, 0.05, 0.2, 0.8, 3.2):
            plan = u.TrotterPlan(
                1, 0.2, 1, u.ThetaPolicy("abs", theta), u.ThetaPolicy("abs", theta)
            )
            budget = u.error_bound(model, plan)
            step = u.circuit_unitary(u.step_circuit(model, plan))
            measured = float(np.linalg.norm(step - exact, 2))
            ok &= measured <= budget.bound
            if budget.bound > 0:
                worst_margin = min(worst_margin, budget.bound / max(measured, 1e-300))
    _report(6, f"error bound holds on 5x5 grid (min bound/measured {worst_margin:.2f})", ok)


def test_criterion_07_spectrum_convergence():
    lat = u.LatticeSpec(2, 2)
    oracle = u.noncompact_spectrum_oracle(lat, 10)
    errors = {}
    for n_q in (2, 3, 4):
        d = u.digitize(lat.n_p, n_q, 0.8, "non-compact")
        vals = np.linalg.eigvalsh(u.dense_matrix(u.build_model(lat, d)))[:10]
        errors[n_q] = np.abs(vals - oracle) / oracle
    ok = bool(np.all(errors[3] < errors[2]) and np.all(errors[4] < errors[3]))
    _report(7, "relative eigenvalue errors strictly decrease in n_q", ok)


def test_criterion_08_plaquette_band():
    lat = u.LatticeSpec(2, 2)
    weave = u.builtin_weave(3)
    gs = np.geomspace(0.01, 10.0, 20)
    points = [plaquette_point(lat, 3, float(g), weave) for g in gs]
    ratios = np.array([p["ratio"] for p in points])
    weak = points[0]["original"]
    strong = points[-1]["original"]
    ok = weak < 0.1 and strong > 0.95 and bool(
        np.all(ratios >= 0.925) and np.all(ratios <= 1.075)
    )
    _report(
        8,
        f"plaquette endpoints ({weak:.3f}, {strong:.3f}) and ratio band "
        f"[{ratios.min():.3f}, {ratios.max():.3f}]",
        ok,
    )


def test_criterion_09_l1_growth():
    ok = True
    for n_q in (2, 3):
        for n_p in range(1, 16 // n_q + 1):
            n = n_p * n_q
            if not 6 <= n <= 16:
                continue
            d = u.Digitization(n_q, 1.0, np.full(n_p, 0.5 * np.pi), "compact", "original")
            value = u.l1_norm(u.hamiltonian_series([_cos_sum(n_p, 1.0)], d, 1.0))
            ok &= value >= 2.0 ** ((n - 5) / 4.0)
    _report(9, "L1 norm exceeds 2^((n-5)/4) on all tested sizes", ok)


def test_criterion_10_original_basis_truncated_scaling():
    """Log-log slope over n_p = 2..6 of the truncated maximal-term CNOT count.

    The series holds the Walsh coefficients of +(1/g^2) cos(sum B) in the
    original basis (n_q = 3, g = 0.1), and each cutoff ratio is taken as the
    absolute Rz-angle cutoff at dt = 1: the convention of
    `u1rotor gatecount --term maximal --theta-min-policy dt --dt 1`.
    """
    nps = np.arange(2, 7)
    slopes = []
    for ratio in (0.125, 0.25, 0.5):
        counts = []
        for n_p in nps:
            d = u.digitize(int(n_p), 3, 0.1, "compact")
            series = u.hamiltonian_series(u.magnetic_terms(d)[-1:], d, -1.0)
            counts.append(u.sequency_gate_counts(series, ratio)["cx"])
        slopes.append(float(np.polyfit(np.log(nps), np.log(counts), 1)[0]))
    ok = all(2.5 <= s <= 4.5 for s in slopes)
    _report(
        10,
        "maximal-term CNOT slopes " + ", ".join(f"{s:.3f}" for s in slopes)
        + " in [2.5, 4.5] (ratio taken as the Rz cutoff at dt=1)",
        ok,
    )


def test_criterion_11_product_scaling_prediction():
    study = product_scaling_study(n_q=2, np_max=8, g=0.1)
    ok = True
    detail = []
    for r in (1, 2):
        fitted = study["transitions"][r]["fitted"]
        predicted = study["transitions"][r]["predicted"]
        ratio = fitted / predicted if fitted else np.inf
        detail.append(f"r={r}: {ratio:.2f}x")
        ok &= fitted is not None and 0.5 <= ratio <= 2.0
    _report(11, "repeated-product transition cutoffs (" + ", ".join(detail) + ")", ok)


def test_criterion_12_coupling_sweep_drops_to_zero():
    weave = u.builtin_weave(3)
    gs = np.geomspace(0.1, 20.0, 12)
    counts = []
    for g in gs:
        d = u.digitize(3, 2, float(g), "compact", "weaved", weave)
        series = u.hamiltonian_series(u.magnetic_terms(d, weave), d, -0.25)
        counts.append(u.sequency_gate_counts(series, 0.25)["cx"])
    counts = np.array(counts)
    zeros = np.nonzero(counts == 0)[0]
    ok = zeros.size > 0 and bool(np.all(counts[zeros[0]:] == 0)) and counts[0] > 0
    _report(12, f"weaved CNOT count zero beyond g*={gs[zeros[0]] if zeros.size else np.nan:.2f}", ok)


def test_criterion_13_single_cosine_saturation():
    """The CNOT count of exp(i cos B) levels off in n_q at the derived depth.

    At g = 0.5 the grid half-width caps at pi from n_q = 5 on.  Then the
    coefficient on {top bit, bit at depth d} (depth d = n_q - k for register
    bit k) tends to -2^(1-d), single finer bits vanish, and every other mask
    whose finest bit sits at depth d stays below half of that.  With the cut
    |a| >= theta/2 the deepest kept bit is d* = floor(2 + log2(1/theta)), so
    the count is constant from n_q = d* on and differs at n_q = d* - 1.
    """
    n_max = 14
    def cosine_series(n_q):
        d = u.digitize(1, n_q, 0.5, "compact")
        return u.hamiltonian_series([_cos_sum(1, 0.5)], d, 1.0)

    deep = cosine_series(n_max)
    top = 1 << (n_max - 1)
    premise = True
    for depth in range(5, n_max + 1):
        low = 1 << (n_max - depth)
        scale = 2.0 ** (1 - depth)
        premise &= abs(deep.coefficient(top | low) / -scale - 1.0) <= 0.01
        premise &= all(
            abs(c) < scale / 2
            for m, c in deep.items()
            if (m & -m) == low and m != (top | low)
        )
    ok = premise
    detail = []
    for theta in (1e-2, 1e-3):
        d_star = math.floor(2 + math.log2(1 / theta))
        counts = [
            u.sequency_gate_counts(cosine_series(n_q), theta)["cx"]
            for n_q in range(1, n_max + 1)
        ]
        threshold = len(counts)
        while threshold > 1 and counts[threshold - 2] == counts[-1]:
            threshold -= 1
        detail.append(f"theta={theta:g}: n_q>={threshold}, d*={d_star}, plateau {counts[-1]} CNOT")
        ok &= threshold == d_star
    _report(
        13,
        "single-cosine CNOT count saturates at d* ("
        + "; ".join(detail)
        + f"; coefficient premise {'holds' if premise else 'fails'})",
        ok,
    )

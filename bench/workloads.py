"""The four workloads: their seeded parameters, set-up, operations and checks.

An operation is one `u1rotor.cli.main` invocation or one public library
call.  Each workload's set-up imports `u1rotor` and builds every
digitization, weave and model its operations cover; the same builds are
what `setup_probe.py` times in fresh processes.

A seed picks couplings and nonzero cutoffs inside fixed ranges.  Register
widths, sweep lengths and step counts never depend on it, and the coupling
ranges keep every compact grid below its cap, so the amount of work stays
the same from seed to seed.  This module imports neither numpy nor
`u1rotor` at load time, so that the set-up timing includes both.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Op:
    """One operation; ``check(output, outputs)`` also sees the pass's other outputs."""

    name: str
    call: Callable[[], object]
    check: Callable[[object, dict], None] | None = None
    # The exception type a known program fault raises on every attempt.
    fails_with: type[BaseException] | None = None
    quick: bool = False


@dataclass
class Workload:
    params: dict
    ops: list[Op]
    # Checks that compare the outputs of several operations.
    joint_checks: list[Callable[[dict], None]] = field(default_factory=list)


def _loguniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _f(x: float) -> str:
    """A float as an argv token that parses back to the same double."""
    return repr(float(x))


def _cli(cli_module, argv: list[str]) -> Callable[[], str]:
    """Run ``u1rotor <argv>`` in-process and return what it printed."""

    def call() -> str:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli_module.main(argv + ["--workers", "1"])
        if code != 0:
            raise RuntimeError(f"u1rotor {' '.join(argv)} exited with {code}")
        return buf.getvalue()

    return call


def build(name: str, seed: int, workdir: str) -> Workload:
    """Import `u1rotor` and build workload ``name`` for ``seed``."""
    import u1rotor
    import u1rotor.cli

    rng = random.Random(f"{name}/{seed}")
    return _BUILDERS[name](u1rotor, rng, workdir)


def _model(u, n_x, n_y, n_q, g, formulation="compact", basis="original"):
    lattice = u.LatticeSpec(n_x, n_y)
    weave = u.builtin_weave(lattice.n_p) if basis == "weaved" else None
    d = u.digitize(lattice.n_p, n_q, g, formulation, basis, weave)
    return u.build_model(lattice, d, weave)


# ---------------------------------------------------------------------------


def _gatecount_volume(u, rng, workdir) -> Workload:
    import checks

    p = dict(
        g_max=rng.uniform(0.2, 0.6), k_max=_loguniform(rng, 0.05, 0.2),
        g_weave=rng.uniform(0.15, 0.3), k_weave=_loguniform(rng, 0.05, 0.2),
        g_elec=rng.uniform(0.3, 1.5), theta_elec=_loguniform(rng, 1e-3, 1e-2),
        g_l1=rng.uniform(0.2, 0.6), g_prod=rng.uniform(0.4, 0.8),
        g_wide=rng.uniform(0.5, 1.5), theta_wide=_loguniform(rng, 1e-3, 1e-2),
    )
    dt = 0.5
    weave = u.builtin_weave(3)
    for n_p in range(2, 7):
        u.digitize(n_p, 3, p["g_max"], "compact")
    for n_q in range(1, 7):
        u.digitize(3, n_q, p["g_weave"], "compact", "weaved", weave)
    _model(u, 4, 4, 2, p["g_elec"])
    _model(u, 8, 8, 2, p["g_wide"], "non-compact")
    cli = u.cli
    elec_grid = [p["theta_elec"] * 4**k for k in range(4)]
    ops = [
        Op("maximal-np", _cli(cli, [
            "gatecount", "--axis", "np", "--term", "maximal", "--basis", "original",
            "--nq", "3", "--np", "2:6", "--g", _f(p["g_max"]), "--theta-min", _f(p["k_max"]),
            "--theta-min-policy", "dt", "--dt", _f(dt), "--format", "json"]),
            lambda out, _: checks.check_maximal(
                out, n_q=3, g=p["g_max"], dt=dt, theta=p["k_max"] * dt)),
        Op("weaved-magnetic-nq", _cli(cli, [
            "gatecount", "--axis", "nq", "--term", "magnetic", "--basis", "weaved",
            "--np", "3", "--nq", "1:5", "--g", _f(p["g_weave"]), "--theta-min", _f(p["k_weave"]),
            "--theta-min-policy", "dt", "--dt", _f(dt), "--format", "json"]),
            lambda out, _: checks.check_weaved_magnetic(
                out, g=p["g_weave"], dt=dt, theta=p["k_weave"] * dt)),
        Op("electric-4x4", _cli(cli, [
            "gatecount", "--axis", "theta", "--term", "electric", "--lattice", "4x4",
            "--nq", "2", "--g", _f(p["g_elec"]), "--dt", _f(dt),
            "--theta-grid", ",".join(map(_f, elec_grid)), "--format", "json"]),
            lambda out, _: checks.check_quadratic_counts(
                out, kind="electric", n_x=4, n_y=4, n_q=2, g=p["g_elec"], dt=dt,
                formulation="compact"),
            quick=True),
        Op("l1", _cli(cli, [
            "l1", "--nq", "2,3", "--qubit-limit", "16", "--g", _f(p["g_l1"]), "--format", "json"]),
            lambda out, _: checks.check_l1(out, g=p["g_l1"], n_qs=(2, 3), limit=16)),
        Op("product-scaling", _cli(cli, [
            "product-scaling", "--nq", "2", "--np", "7", "--g", _f(p["g_prod"]),
            "--format", "json"]),
            lambda out, _: checks.check_product_scaling(out, n_q=2, np_max=7, g=p["g_prod"])),
    ]
    # 8x8 non-compact, n_q = 2: a 126-qubit register.  sequency_gate_counts
    # packs masks into np.int64 and raises OverflowError above 63 qubits.
    for term in ("electric", "magnetic"):
        ops.append(Op(f"{term}-8x8", _cli(cli, [
            "gatecount", "--axis", "theta", "--term", term, "--lattice", "8x8",
            "--formulation", "non-compact", "--nq", "2", "--g", _f(p["g_wide"]), "--dt", _f(dt),
            "--theta-grid", _f(p["theta_wide"]), "--format", "json"]),
            lambda out, _, term=term: checks.check_quadratic_counts(
                out, kind=term, n_x=8, n_y=8, n_q=2, g=p["g_wide"], dt=dt,
                formulation="non-compact"),
            fails_with=OverflowError))
    return Workload(p, ops)


# ---------------------------------------------------------------------------

EVOLVE_T = 0.05
EVOLVE_DTS = (0.05, 0.025, 0.0125)
EVOLVE_CASES = (  # (n_x, n_y, n_q, basis)
    (2, 3, 2, "original"),
    (2, 2, 3, "weaved"),
)


def _evolve_loschmidt(u, rng, workdir) -> Workload:
    import checks
    import numpy as np
    import reference as ref

    p = dict(g_lo=rng.uniform(0.3, 0.45), g_hi=rng.uniform(0.7, 1.0), kappa=_loguniform(rng, 0.5, 1.0))
    couplings = np.geomspace(p["g_lo"], p["g_hi"], 2)
    for n_x, n_y, n_q, basis in EVOLVE_CASES:
        for g in couplings:
            _model(u, n_x, n_y, n_q, float(g), "compact", basis)
    exact: dict = {}

    def exact_survival(case, g):
        if (case, g) not in exact:
            n_x, n_y, n_q, basis = case
            exact[case, g] = ref.Lattice(n_x, n_y, n_q, g, "compact", basis).exact_survival([EVOLVE_T])[0]
        return exact[case, g]

    ops, pairs = [], []
    for case in EVOLVE_CASES:
        n_x, n_y, n_q, basis = case
        names = []
        for order in (1, 2):
            name = f"evolve-{n_x}x{n_y}-nq{n_q}-order{order}"
            names.append(name)
            ops.append(Op(name, _cli(u.cli, [
                "evolve", "--lattice", f"{n_x}x{n_y}", "--nq", str(n_q), "--basis", basis,
                "--g-grid", f"{_f(p['g_lo'])}:{_f(p['g_hi'])}:2:log", "--t", _f(EVOLVE_T),
                "--dt-list", ",".join(map(_f, EVOLVE_DTS)), "--theta-list", f"0,{_f(p['kappa'])}",
                "--theta-min-policy", "dt", "--order", str(order), "--format", "json"]),
                lambda out, _, case=case: checks.check_survival(
                    out, t=EVOLVE_T, exact=lambda g: exact_survival(case, g)),
                quick=(basis == "weaved" and order == 1)))
        pairs.append(names)

    def orders_agree(outs):
        for order_1, order_2 in pairs:
            checks.check_orders_agree(outs[order_1], outs[order_2])

    return Workload(p, ops, [orders_agree])


# ---------------------------------------------------------------------------

STEP_DT = 0.1


def _step_export(u, rng, workdir) -> Workload:
    import checks
    import reference as ref

    p = dict(
        g_exact=rng.uniform(0.3, 0.9), g_trunc=rng.uniform(0.3, 0.7),
        k_trunc=_loguniform(rng, 0.2, 0.5), g_weave=rng.uniform(0.3, 0.7),
        g_wide=rng.uniform(0.5, 1.5), theta_wide=_loguniform(rng, 2e-3, 5e-3),
    )
    # (tag, n_x, n_y, n_q, g, formulation, basis, order, policy, cutoff value)
    cases = [
        ("3x3-nq2-exact", 3, 3, 2, p["g_exact"], "compact", "original", 2, "abs", 0.0),
        ("2x3-nq3-truncated", 2, 3, 3, p["g_trunc"], "compact", "original", 2, "dt", p["k_trunc"]),
        ("2x2-nq4-weaved", 2, 2, 4, p["g_weave"], "compact", "weaved", 1, "abs", 0.0),
        ("8x8-nq2-noncompact", 8, 8, 2, p["g_wide"], "non-compact", "original", 2, "abs",
         p["theta_wide"]),
    ]
    ops = []
    for tag, n_x, n_y, n_q, g, form, basis, order, policy, value in cases:
        model = _model(u, n_x, n_y, n_q, g, form, basis)
        path = os.path.join(workdir, f"step-{tag}.qasm")
        theta = value * STEP_DT if policy == "dt" else value
        plan = u.TrotterPlan(order, STEP_DT, 1, u.ThetaPolicy(policy, value), u.ThetaPolicy(policy, value))
        lattice = (n_x, n_y, n_q, g, form, basis)

        def check(circuit, _, model=model, plan=plan, lattice=lattice, order=order, theta=theta):
            checks.check_step_circuit(
                circuit, u.step_circuit(model, plan), lat=ref.Lattice(*lattice), order=order,
                dt=STEP_DT, theta=theta)

        ops.append(Op(f"export-{tag}", _cli(u.cli, [
            "export", "--lattice", f"{n_x}x{n_y}", "--nq", str(n_q), "--g", _f(g),
            "--formulation", form, "--basis", basis, "--dt", _f(STEP_DT), "--order", str(order),
            "--theta-min", _f(value), "--theta-min-policy", policy, "--out", path]),
            quick=(basis == "weaved")))
        ops.append(Op(f"read-{tag}", lambda path=path: u.load_qasm(path), check,
                      quick=(basis == "weaved")))
    ops.append(Op("gatecount-step-8x8", _cli(u.cli, [
        "gatecount", "--axis", "theta", "--term", "step", "--lattice", "8x8",
        "--formulation", "non-compact", "--nq", "2", "--g", _f(p["g_wide"]), "--dt", _f(STEP_DT),
        "--order", "2", "--theta-grid", _f(4 * p["theta_wide"]),
        "--format", "json"]),
        lambda out, _: checks.check_step_sweep(
            out, lat=ref.Lattice(8, 8, 2, p["g_wide"], "non-compact"), order=2, dt=STEP_DT)))

    def fewer_at_higher_cutoff(outs):
        _, rows = checks.table(outs["gatecount-step-8x8"])
        circuit = outs["read-8x8-nq2-noncompact"]
        rz = sum(1 for g in circuit.gates if g.name == "rz")
        cx = sum(1 for g in circuit.gates if g.name == "cx")
        checks.require(rows[0]["rz"] <= rz and rows[0]["cnot"] <= cx,
                       "the 8x8 step at 4x the cutoff has more gates than the exported one")

    return Workload(p, ops, [fewer_at_higher_cutoff])


# ---------------------------------------------------------------------------

SPECTRA = ((2, 2, (2, 3)), (2, 3, (1, 2)))  # (n_x, n_y, n_q values)


def _dense_spectrum(u, rng, workdir) -> Workload:
    import checks
    import reference as ref

    p = dict(
        g_spec=rng.uniform(0.5, 1.5), g_lo=rng.uniform(0.3, 0.5), g_hi=rng.uniform(1.5, 3.0),
        g_budget=rng.uniform(0.3, 1.0), k_budget=_loguniform(rng, 0.5, 1.0),
    )
    ops = []
    for n_x, n_y, n_qs in SPECTRA:
        for n_q in n_qs:
            _model(u, n_x, n_y, n_q, p["g_spec"], "non-compact")
        ops.append(Op(f"spectrum-{n_x}x{n_y}", _cli(u.cli, [
            "spectrum", "--lattice", f"{n_x}x{n_y}", "--formulation", "non-compact",
            "--nq", ",".join(map(str, n_qs)), "--g", _f(p["g_spec"]), "--format", "json"]),
            lambda out, _, n_x=n_x, n_y=n_y, n_qs=n_qs: checks.check_spectrum(
                out, n_x=n_x, n_y=n_y, n_qs=n_qs, g=p["g_spec"]),
            quick=(n_x * n_y == 4)))
    for g in (p["g_lo"], p["g_hi"]):
        for basis in ("original", "weaved"):
            _model(u, 2, 2, 3, g, "compact", basis)
    ops.append(Op("plaquette-2x2", _cli(u.cli, [
        "plaquette", "--lattice", "2x2", "--nq", "3",
        "--g-grid", f"{_f(p['g_lo'])}:{_f(p['g_hi'])}:3:log", "--format", "json"]),
        lambda out, _: checks.check_plaquette(out, n_q=3)))
    dt, steps = 0.05, 4
    model = _model(u, 2, 3, 2, p["g_budget"])
    policy = u.ThetaPolicy("dt", p["k_budget"])
    plan = u.TrotterPlan(1, dt, steps, policy, policy)
    ops.append(Op("error-bound-2x3", lambda: u.error_bound(model, plan),
                  lambda out, _: checks.check_error_budget(
                      out, lat=ref.Lattice(2, 3, 2, p["g_budget"]), dt=dt, steps=steps,
                      theta=p["k_budget"] * dt)))
    return Workload(p, ops)


_BUILDERS = {
    "gatecount-volume": _gatecount_volume,
    "evolve-loschmidt": _evolve_loschmidt,
    "step-export": _step_export,
    "dense-spectrum": _dense_spectrum,
}
NAMES = tuple(_BUILDERS)

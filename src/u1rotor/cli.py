"""Reproduction driver: parameter scans and table output.

Subcommands
    spectrum         digitized eigenvalues vs the exact oracle (or a finer run)
    plaquette        ground-state plaquette across a coupling grid, both bases
    gatecount        Rz/CNOT counts along one sweep axis
    l1               L1 norm of the maximally coupled cosine's coefficients
    product-scaling  polynomial fit of CNOT(n_p) for repeated cosine products
    evolve           |<U(t)>|^2 across a coupling grid per (dt, theta) choice
    export           one Trotter step as OpenQASM 2.0

Every run is deterministic; tables carry the resolved configuration in their
header so outputs are reproducible byte for byte.  Values may come from a
JSON config file (--config) keyed by flag name; its values are read as flag
text (lists joined by commas) and explicit command-line flags win.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import __version__
from .circuits import export_qasm, gate_count, sequency_gate_counts
from .hamiltonian import (
    DENSE_LIMIT_QUBITS,
    CosineTerm,
    build_model,
    dense_matrix,
    electric_terms,
    magnetic_terms,
    noncompact_spectrum_oracle,
    plaquette_expectation,
)
from .lattice import (
    Digitization,
    LatticeSpec,
    ResourceLimitError,
    WeaveUnavailableError,
    builtin_weave,
    digitize,
    load_weave,
)
from .simulator import loschmidt
from .trotter import (
    ThetaPolicy,
    TrotterPlan,
    hamiltonian_series,
    product_scaling_study,
    step_circuit,
)
from .walsh import l1_norm


# ---------------------------------------------------------------------------
# argument parsing helpers


def _parse_lattice(text: str) -> LatticeSpec:
    try:
        nx, ny = (int(v) for v in text.lower().split("x"))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected NxM, got {text!r}") from exc
    return LatticeSpec(nx, ny)


def _parse_grid(text: str) -> np.ndarray:
    """start:stop:count[:log|lin] -> grid array (log-spaced by default)."""
    parts = text.split(":")
    if len(parts) not in (3, 4):
        raise argparse.ArgumentTypeError(f"expected start:stop:count[:log|lin], got {text!r}")
    start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    mode = parts[3] if len(parts) == 4 else "log"
    if mode == "log":
        return np.geomspace(start, stop, count)
    if mode == "lin":
        return np.linspace(start, stop, count)
    raise argparse.ArgumentTypeError(f"unknown grid mode {mode!r}")


def _parse_ints(text: str) -> list[int]:
    """Comma list ("2,3,4") or inclusive range ("2:6")."""
    if ":" in text:
        lo, hi = (int(v) for v in text.split(":"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def _parse_floats(text: str) -> list[float]:
    return [float(v) for v in text.split(",")]


def _pmap(fn, items, workers):
    items = list(items)
    if workers and workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))
    return [fn(x) for x in items]


# ---------------------------------------------------------------------------
# table output


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def write_table(meta: dict, columns: list[str], rows, fmt: str, out) -> str:
    if fmt == "json":
        payload = {
            "meta": meta,
            "columns": columns,
            "rows": [
                [v.item() if isinstance(v, np.generic) else v for v in row] for row in rows
            ],
        }
        text = json.dumps(payload, sort_keys=True, indent=1) + "\n"
    elif fmt == "csv":
        lines = [
            f"# tool: u1rotor {meta['version']}",
            f"# command: {meta['command']}",
            f"# config: {json.dumps(meta['config'], sort_keys=True)}",
            ",".join(columns),
        ]
        lines.extend(",".join(_fmt(v) for v in row) for row in rows)
        text = "\n".join(lines) + "\n"
    else:
        raise ValueError(f"unknown format {fmt!r}")
    if out in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)
    return text


def _meta(command: str, config: dict) -> dict:
    clean = {}
    for key, val in sorted(config.items()):
        if isinstance(val, np.ndarray):
            val = val.tolist()
        clean[key] = val
    return {"version": __version__, "command": command, "config": clean}


# ---------------------------------------------------------------------------
# shared model construction


def _resolve_weave(args, n_p):
    if getattr(args, "weave", None):
        return load_weave(args.weave)
    try:
        return builtin_weave(n_p)
    except WeaveUnavailableError:
        return None


def _theta_policy(args) -> ThetaPolicy:
    mode = args.theta_min_policy or "abs"
    value = args.theta_min if args.theta_min is not None else 0.0
    return ThetaPolicy(mode, value)


def _model(lattice, n_q, g, formulation, basis, weave):
    d = digitize(lattice.n_p, n_q, g, formulation, basis, weave)
    return build_model(lattice, d, weave)


# ---------------------------------------------------------------------------
# spectrum


def cmd_spectrum(args) -> int:
    lattice = args.lattice
    nq_list = args.nq
    formulation = args.formulation or "non-compact"
    basis = args.basis or "original"
    weave = _resolve_weave(args, lattice.n_p) if basis == "weaved" else None
    levels = args.levels or 10
    limit = args.dense_limit or DENSE_LIMIT_QUBITS
    g = args.g if args.g is not None else 0.5

    def lowest(n_q):
        model = _model(lattice, n_q, g, formulation, basis, weave)
        vals = np.linalg.eigvalsh(dense_matrix(model, limit))
        return vals[:levels]

    if formulation == "compact" and len(set(nq_list)) < 2:
        raise SystemExit(
            "compact spectra need at least two --nq values; the largest serves as the reference"
        )
    if formulation == "non-compact":
        reference = noncompact_spectrum_oracle(lattice, levels)
        run_nqs = nq_list
    else:
        # no closed form: the largest requested width serves as the reference
        reference = lowest(max(nq_list))
        run_nqs = [n for n in nq_list if n != max(nq_list)]

    rows = []
    for n_q, vals in zip(run_nqs, _pmap(lowest, run_nqs, args.workers)):
        for level in range(levels):
            ref = reference[level]
            rows.append(
                (n_q, level, float(vals[level]), float(ref), abs(vals[level] - ref) / abs(ref))
            )
    config = dict(
        lattice=f"{lattice.n_x}x{lattice.n_y}", nq=nq_list, g=g, formulation=formulation,
        basis=basis, levels=levels, weave=args.weave,
    )
    write_table(
        _meta("spectrum", config),
        ["n_q", "level", "energy", "reference", "rel_error"],
        rows, args.format or "csv", args.out,
    )
    return 0


# ---------------------------------------------------------------------------
# plaquette


def plaquette_point(lattice, n_q, g, weave, limit, scan=False):
    """Plaquette expectation in both bases; optionally scan the weaved widths."""
    orig = plaquette_expectation(_model(lattice, n_q, g, "compact", "original", None), limit)
    d_weav = digitize(lattice.n_p, n_q, g, "compact", "weaved", weave)
    weav = plaquette_expectation(build_model(lattice, d_weav, weave), limit)
    row = {"g": g, "original": orig, "weaved": weav,
           "ratio": weav / orig if abs(orig) > 1e-300 else None}
    if scan:
        best = (None, np.inf)
        for scale in np.linspace(0.6, 1.4, 33):
            d_s = Digitization(n_q, g, scale * d_weav.b_max, "compact", "weaved")
            val = plaquette_expectation(build_model(lattice, d_s, weave), limit)
            diff = abs(val - orig)
            if diff < best[1]:
                best = (scale, diff)
        row["scan_scale"] = best[0]
        row["scan_diff"] = best[1]
    return row


def cmd_plaquette(args) -> int:
    lattice = args.lattice
    n_q = args.nq[0] if args.nq else 3
    gs = args.g_grid if args.g_grid is not None else np.geomspace(0.01, 10.0, 20)
    weave = _resolve_weave(args, lattice.n_p)
    if weave is None:
        raise SystemExit("plaquette comparison needs a weave; pass --weave for this n_p")
    limit = args.dense_limit or DENSE_LIMIT_QUBITS
    scan = bool(args.scan_bmax)

    points = _pmap(
        lambda g: plaquette_point(lattice, n_q, float(g), weave, limit, scan),
        gs, args.workers,
    )
    columns = ["g", "plaquette_original", "plaquette_weaved", "ratio"]
    if scan:
        columns += ["scan_scale", "scan_diff"]
    rows = [
        tuple(p[k] for k in ("g", "original", "weaved", "ratio"))
        + ((p["scan_scale"], p["scan_diff"]) if scan else ())
        for p in points
    ]
    config = dict(lattice=f"{lattice.n_x}x{lattice.n_y}", nq=n_q, g_grid=list(map(float, gs)),
                  scan_bmax=scan, weave=args.weave)
    write_table(_meta("plaquette", config), columns, rows, args.format or "csv", args.out)
    return 0


# ---------------------------------------------------------------------------
# gate counts


def _bare_cosine(n_p: int, g: float) -> CosineTerm:
    """cos(B_0 + ... + B_{n_p-1}): the prefactor g^2 cancels the term's 1/g^2."""
    return CosineTerm(tuple((p, 1.0) for p in range(n_p)), prefactor=g**2)


def gatecount_point(term, lattice, n_p, n_q, g, basis, weave, theta: ThetaPolicy, dt, order, formulation):
    """(rz, cnot) for one sweep point; `term` picks what gets synthesized."""
    theta_res = theta.resolve(dt)
    use = weave if basis == "weaved" else None
    if term == "step":
        if lattice is None:
            raise SystemExit("step gate counts need --lattice")
        plan = TrotterPlan(order, dt, 1, theta, theta)
        model = _model(lattice, n_q, g, formulation, basis, weave)
        counts = gate_count(step_circuit(model, plan))
        return counts["rz"], counts["cx"]
    if term == "cosine":
        series = hamiltonian_series([_bare_cosine(1, g)], digitize(1, n_q, g, "compact"), dt)
    elif term == "maximal":
        d = digitize(n_p, n_q, g, "compact", basis, use)
        series = hamiltonian_series(magnetic_terms(d, use)[-1:], d, -dt)
    elif term == "electric":
        if lattice is None or lattice.n_p != n_p:
            raise SystemExit("electric gate counts need --lattice matching n_p")
        series = hamiltonian_series(electric_terms(lattice, use),
                                    digitize(n_p, n_q, g, formulation, basis, use), -dt)
    elif term == "magnetic":
        # magnetic terms only need the plaquette count, not the geometry
        d = digitize(n_p, n_q, g, formulation, basis, use)
        series = hamiltonian_series(magnetic_terms(d, use), d, -dt)
    else:
        raise SystemExit(f"unknown term {term!r}")
    counts = sequency_gate_counts(series, theta_res)
    return counts["rz"], counts["cx"]


def cmd_gatecount(args) -> int:
    axis = args.axis or "theta"
    term = args.term or "magnetic"
    basis = args.basis or "original"
    formulation = args.formulation or "compact"
    n_q = args.nq[0] if args.nq else 2
    g = args.g if args.g is not None else 0.1
    dt = args.dt if args.dt is not None else 1.0
    order = args.order or 1
    lattice = args.lattice
    n_p = args.np[0] if args.np else (lattice.n_p if lattice else 3)
    theta = _theta_policy(args)

    if axis == "np":
        values = args.np or _parse_ints("2:6")
    elif axis == "nq":
        values = args.nq or _parse_ints("1:8")
    elif axis == "g":
        values = list(map(float, args.g_grid if args.g_grid is not None else np.geomspace(0.1, 10, 15)))
    elif axis == "theta":
        values = args.theta_grid or [2.0**-k for k in range(0, 13)]
    else:
        raise SystemExit(f"unknown axis {axis!r}")

    def point(v):
        kw = dict(term=term, lattice=lattice, n_p=n_p, n_q=n_q, g=g, basis=basis,
                  weave=_resolve_weave(args, n_p), theta=theta, dt=dt, order=order,
                  formulation=formulation)
        if axis == "np":
            kw["n_p"] = int(v)
            kw["weave"] = _resolve_weave(args, int(v))
        elif axis == "nq":
            kw["n_q"] = int(v)
        elif axis == "g":
            kw["g"] = float(v)
        elif axis == "theta":
            kw["theta"] = ThetaPolicy(theta.mode, float(v))
        return gatecount_point(**kw)

    counts = _pmap(point, values, args.workers)
    rows = []
    for v, (rz, cx) in zip(values, counts):
        theta_res = (ThetaPolicy(theta.mode, float(v)) if axis == "theta" else theta).resolve(dt)
        t_per_rz = 1.15 * math.log2(1.0 / theta_res) if theta_res > 0 else None
        rows.append((v, rz, cx, t_per_rz))
    config = dict(axis=axis, term=term, basis=basis, formulation=formulation, nq=n_q, np=n_p,
                  g=g, dt=dt, order=order, theta_min=theta.value, theta_min_policy=theta.mode,
                  lattice=f"{lattice.n_x}x{lattice.n_y}" if lattice else None, weave=args.weave)
    write_table(_meta("gatecount", config), [axis, "rz", "cnot", "t_per_rz_estimate"],
                rows, args.format or "csv", args.out)
    return 0


# ---------------------------------------------------------------------------
# L1 norm of the maximally coupled cosine


def cmd_l1(args) -> int:
    nq_list = args.nq or [2, 3]
    np_list = args.np
    limit = args.qubit_limit or 16
    b_max = args.bmax_over_pi * math.pi if args.bmax_over_pi is not None else None
    g = args.g if args.g is not None else 0.1
    rows = []
    for n_q in nq_list:
        candidates = np_list or list(range(1, limit // n_q + 1))
        for n_p in candidates:
            n = n_p * n_q
            if n > limit:
                continue
            if b_max is None:
                d = digitize(n_p, n_q, g, "compact")
            else:
                d = Digitization(n_q, g, np.full(n_p, b_max), "compact", "original")
            val = l1_norm(hamiltonian_series([_bare_cosine(n_p, g)], d, 1.0))
            rows.append((n_q, n_p, n, val, 2.0 ** ((n - 5) / 4.0)))
    config = dict(nq=nq_list, np=np_list, qubit_limit=limit,
                  bmax_over_pi=args.bmax_over_pi, g=g)
    write_table(_meta("l1", config), ["n_q", "n_p", "n_qubits", "l1_norm", "growth_reference"],
                rows, args.format or "csv", args.out)
    return 0


# ---------------------------------------------------------------------------
# repeated-product scaling study


def cmd_product_scaling(args) -> int:
    n_q = args.nq[0] if args.nq else 2
    np_max = args.np[-1] if args.np else 8
    g = args.g if args.g is not None else 0.1
    study = product_scaling_study(n_q, np_max, g)
    rows = [
        (theta,) + tuple(float(b) for b in fit_row)
        for theta, fit_row in zip(study["thetas"], study["fit"])
    ]
    config = dict(nq=n_q, np_max=np_max, g=g, a2=study["a2"],
                  transitions={str(r): v for r, v in study["transitions"].items()})
    columns = ["theta_min"] + [f"b_{k}" for k in range(np_max)]
    write_table(_meta("product-scaling", config), columns, rows, args.format or "csv", args.out)
    return 0


# ---------------------------------------------------------------------------
# evolution observable


def cmd_evolve(args) -> int:
    lattice = args.lattice
    n_q = args.nq[0] if args.nq else 1
    basis = args.basis or "original"
    formulation = args.formulation or "compact"
    weave = _resolve_weave(args, lattice.n_p) if basis == "weaved" else None
    if basis == "weaved" and weave is None:
        raise SystemExit("weaved evolution needs --weave for this n_p")
    gs = args.g_grid if args.g_grid is not None else np.geomspace(0.1, 10.0, 15)
    t = args.t if args.t is not None else 0.2
    order = args.order or 1
    dts = args.dt_list or ([args.dt] if args.dt is not None else [0.2])
    kappas = args.theta_list or ([args.theta_min] if args.theta_min is not None else [0.0])
    mode = args.theta_min_policy or "dt"

    points = [(float(g), float(dt), float(kappa)) for g in gs for dt in dts for kappa in kappas]
    steps = {dt: round(t / dt) for dt in dts}
    for dt, n in steps.items():
        if abs(n * dt - t) > 1e-9 * abs(t):
            raise SystemExit(f"--t {t:g} is not a whole number of steps of size {dt:g}")

    def run(point):
        g, dt, kappa = point
        model = _model(lattice, n_q, g, formulation, basis, weave)
        policy = ThetaPolicy(mode, kappa)
        plan = TrotterPlan(order, dt, steps[dt], policy, policy)
        return loschmidt(model, plan)

    values = _pmap(run, points, args.workers)
    rows = [(g, dt, kappa, mode, v) for (g, dt, kappa), v in zip(points, values)]
    config = dict(lattice=f"{lattice.n_x}x{lattice.n_y}", nq=n_q, basis=basis,
                  formulation=formulation, t=t, order=order, dt=dts, theta_min=kappas,
                  theta_min_policy=mode, g_grid=list(map(float, gs)), weave=args.weave)
    write_table(_meta("evolve", config),
                ["g", "dt", "theta_min", "theta_policy", "survival"],
                rows, args.format or "csv", args.out)
    return 0


# ---------------------------------------------------------------------------
# QASM export


def cmd_export(args) -> int:
    lattice = args.lattice
    n_q = args.nq[0] if args.nq else 2
    g = args.g if args.g is not None else 0.5
    basis = args.basis or "original"
    formulation = args.formulation or "compact"
    weave = _resolve_weave(args, lattice.n_p) if basis == "weaved" else None
    dt = args.dt if args.dt is not None else 0.1
    order = args.order or 1
    theta = _theta_policy(args)
    model = _model(lattice, n_q, g, formulation, basis, weave)
    plan = TrotterPlan(order, dt, 1, theta, theta)
    circ = step_circuit(model, plan)
    text = export_qasm(circ, None if args.out in (None, "-") else args.out)
    if args.out in (None, "-"):
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="u1rotor",
        description="Trotter circuit synthesis and precision studies for a 2+1D U(1) rotor lattice.",
    )
    parser.add_argument("--version", action="version", version=f"u1rotor {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON file with defaults for any flag")
        p.add_argument("--lattice", type=_parse_lattice, help="site counts, e.g. 2x2")
        p.add_argument("--nq", type=_parse_ints, help="qubits per plaquette (list or range)")
        p.add_argument("--np", type=_parse_ints, help="plaquette counts (list or range)")
        p.add_argument("--g", type=float, help="coupling")
        p.add_argument("--g-grid", type=_parse_grid, help="coupling grid start:stop:count[:log|lin]")
        p.add_argument("--formulation", choices=["compact", "non-compact"])
        p.add_argument("--basis", choices=["original", "weaved"])
        p.add_argument("--weave", help="JSON weave matrix file")
        p.add_argument("--theta-min", type=float, help="cutoff value (kappa under dt policies)")
        p.add_argument("--theta-min-policy", choices=["abs", "dt", "dt2"])
        p.add_argument("--dt", type=float, help="Trotter step size")
        p.add_argument("--t", type=float, help="total evolution time")
        p.add_argument("--order", type=int, choices=[1, 2])
        p.add_argument("--format", choices=["csv", "json"])
        p.add_argument("--out", help="output path (default stdout)")
        p.add_argument("--workers", type=int, default=1, help="sweep worker threads")
        p.add_argument("--dense-limit", type=int, help="dense diagonalization qubit cap")

    p = sub.add_parser("spectrum", help="digitized spectra vs reference")
    common(p)
    p.add_argument("--levels", type=int, help="number of eigenvalues (default 10)")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("plaquette", help="plaquette expectation across couplings")
    common(p)
    p.add_argument("--scan-bmax", action="store_true", help="scan a width scale per coupling")
    p.set_defaults(func=cmd_plaquette)

    p = sub.add_parser("gatecount", help="gate counts along a sweep axis")
    common(p)
    p.add_argument("--axis", choices=["np", "nq", "g", "theta"])
    p.add_argument("--term", choices=["magnetic", "maximal", "cosine", "electric", "step"])
    p.add_argument("--theta-grid", type=_parse_floats, help="cutoffs for --axis theta")
    p.set_defaults(func=cmd_gatecount)

    p = sub.add_parser("l1", help="L1 norm of the maximally coupled cosine")
    common(p)
    p.add_argument("--bmax-over-pi", type=float, help="fixed half-width as a fraction of pi")
    p.add_argument("--qubit-limit", type=int, help="largest register to transform (default 16)")
    p.set_defaults(func=cmd_l1)

    p = sub.add_parser("product-scaling", help="CNOT scaling fits for repeated cosine products")
    common(p)
    p.set_defaults(func=cmd_product_scaling)

    p = sub.add_parser("evolve", help="survival amplitude across couplings")
    common(p)
    p.add_argument("--dt-list", type=_parse_floats, help="step sizes (comma list)")
    p.add_argument("--theta-list", type=_parse_floats, help="cutoff values (comma list)")
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("export", help="write one Trotter step as OpenQASM 2.0")
    common(p)
    p.set_defaults(func=cmd_export)

    return parser


def _config_argv(path, args: argparse.Namespace) -> list[str]:
    """A JSON config as flag tokens: true sets a switch, null and false are skipped."""
    with open(path) as fh:
        config = json.load(fh)
    tokens = []
    for key, value in config.items():
        if not hasattr(args, key.replace("-", "_")):
            raise SystemExit(f"config key {key!r} is not a known option")
        flag = "--" + key.replace("_", "-")
        if value is True:
            tokens.append(flag)
        elif value is not None and value is not False:
            if isinstance(value, list):
                value = ",".join(map(str, value))
            tokens.append(f"{flag}={value}")
    return tokens


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        # config flags go right after the subcommand, so explicit flags, parsed later, win
        at = argv.index(args.command) + 1
        args = parser.parse_args(argv[:at] + _config_argv(args.config, args) + argv[at:])
    try:
        return args.func(args)
    except (ValueError, ResourceLimitError) as exc:
        raise SystemExit(f"u1rotor {args.command}: {exc}") from exc


if __name__ == "__main__":
    raise SystemExit(main())

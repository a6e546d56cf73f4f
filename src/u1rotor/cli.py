"""Reproduction driver: parameter scans and table output.

Subcommands
    spectrum         digitized eigenvalues vs the exact oracle (or a finer run)
    plaquette        ground-state plaquette across a coupling grid, both bases
    gatecount        Rz/CNOT counts along one sweep axis
    l1               L1 norm of the maximally coupled cosine's coefficients
    product-scaling  polynomial fit of CNOT(n_p) for repeated cosine products
    evolve           |<U(t)>|^2 across a coupling grid per (dt, theta) choice
    export           one Trotter step as OpenQASM 2.0

Each subcommand takes the flags it reads (`_COMMANDS`), plus --workers,
which every subcommand accepts and only the sweeps read; the parser holds
their defaults and rejects any other flag.  Every run is deterministic;
tables carry the resolved configuration in their header so outputs are
reproducible byte for byte.  Tables built on dense eigensolvers (spectrum,
plaquette) are byte-reproducible only at a fixed BLAS thread count (e.g.
OPENBLAS_NUM_THREADS=1): the thread count changes the eigensolver's
rounding.  Values may come from a JSON config file (--config) keyed by the
subcommand's flag names; its values are read as flag text (lists joined by
commas) and explicit command-line flags win.  Bad input raises ValueError
where it is found; only `main` prints it, as one line `u1rotor <cmd>: message`
with exit status 1, and no table is written.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import __version__
from .circuits import export_qasm, sequency_sweep_counts
from .hamiltonian import (
    CosineTerm,
    build_model,
    dense_matrix,
    magnetic_terms,
    noncompact_spectrum_oracle,
    plaquette_expectation,
)
from .lattice import (
    Digitization,
    LatticeSpec,
    ResourceLimitError,
    builtin_weave,
    digitize,
    load_weave,
)
from .simulator import loschmidt_sweep
from .trotter import (
    SPLITTING,
    ThetaPolicy,
    TrotterPlan,
    factor_sweep_counts,
    hamiltonian_series,
    product_scaling_study,
    step_circuit,
    term_series,
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
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise argparse.ArgumentTypeError(f"grid {text!r} has a non-finite endpoint")
    if count < 1:
        raise argparse.ArgumentTypeError(f"grid {text!r} has no points")
    mode = parts[3] if len(parts) == 4 else "log"
    if mode == "log":
        return np.geomspace(start, stop, count)
    if mode == "lin":
        return np.linspace(start, stop, count)
    raise argparse.ArgumentTypeError(f"unknown grid mode {mode!r}")


def _parse_ints(text: str) -> list[int]:
    """Comma list ("2,3,4") or inclusive range ("2:6") of positive counts."""
    if ":" in text:
        lo, hi = (int(v) for v in text.split(":"))
        if hi < lo:
            raise argparse.ArgumentTypeError(f"range {text!r} is empty")
        values = list(range(lo, hi + 1))
    else:
        values = [int(v) for v in text.split(",")]
    if min(values) < 1:
        raise argparse.ArgumentTypeError(f"expected positive counts, got {text!r}")
    return values


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected one positive integer, got {text!r}") from exc
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive count, got {text!r}")
    return value


def _parse_floats(text: str) -> list[float]:
    return [float(v) for v in text.split(",")]


def _pmap(fn, items, workers):
    items = list(items)
    if workers > 1:
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
    return {"version": __version__, "command": command, "config": config}


# ---------------------------------------------------------------------------
# shared model construction


def _resolve_weave(args, n_p, basis):
    """The weave of `basis`: none in the original basis, else --weave FILE or the built-in one."""
    if basis != "weaved":
        if args.weave:
            raise ValueError("--weave applies only with --basis weaved")
        return None
    return load_weave(args.weave) if args.weave else builtin_weave(n_p)


def _model(lattice, n_q, g, formulation, basis, weave):
    d = digitize(lattice.n_p, n_q, g, formulation, basis, weave)
    return build_model(lattice, d, weave)


# ---------------------------------------------------------------------------
# spectrum


def cmd_spectrum(args) -> int:
    lattice, nq_list, formulation, basis, levels = (
        args.lattice, args.nq, args.formulation, args.basis, args.levels)
    weave = _resolve_weave(args, lattice.n_p, basis)

    def lowest(n_q):
        model = _model(lattice, n_q, args.g, formulation, basis, weave)
        vals = np.linalg.eigvalsh(dense_matrix(model))
        return vals[:levels]

    if formulation == "compact" and len(set(nq_list)) < 2:
        raise ValueError(
            "compact spectra need at least two --nq values; the largest serves as the reference"
        )
    dim = 1 << (lattice.n_p * min(nq_list))
    if levels > dim:
        raise ValueError(f"--levels {levels} exceeds the {dim} levels of the smallest matrix")
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
        lattice=f"{lattice.n_x}x{lattice.n_y}", nq=nq_list, g=args.g, formulation=formulation,
        basis=basis, levels=levels, weave=args.weave,
    )
    write_table(
        _meta("spectrum", config),
        ["n_q", "level", "energy", "reference", "rel_error"],
        rows, args.format, args.out,
    )
    return 0


# ---------------------------------------------------------------------------
# plaquette


def plaquette_point(lattice, n_q, g, weave, scan=False):
    """Plaquette expectation in both bases; optionally scan the weaved widths."""
    orig = plaquette_expectation(_model(lattice, n_q, g, "compact", "original", None))
    weaved = _model(lattice, n_q, g, "compact", "weaved", weave)
    weav = plaquette_expectation(weaved)
    row = {"g": g, "original": orig, "weaved": weav,
           "ratio": weav / orig if abs(orig) > 1e-300 else None}
    if scan:
        best = (None, np.inf)
        for scale in np.linspace(0.6, 1.4, 33):
            d_s = Digitization(n_q, g, scale * weaved.digitization.b_max, "compact", "weaved")
            val = plaquette_expectation(build_model(lattice, d_s, weave))
            diff = abs(val - orig)
            if diff < best[1]:
                best = (scale, diff)
        row["scan_scale"] = best[0]
        row["scan_diff"] = best[1]
    return row


def cmd_plaquette(args) -> int:
    lattice, n_q, gs, scan = args.lattice, args.nq, args.g_grid, args.scan_bmax
    weave = _resolve_weave(args, lattice.n_p, "weaved")  # the weaved side of the comparison

    points = _pmap(lambda g: plaquette_point(lattice, n_q, float(g), weave, scan), gs, args.workers)
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
    write_table(_meta("plaquette", config), columns, rows, args.format, args.out)
    return 0


# ---------------------------------------------------------------------------
# gate counts


def _bare_cosine(n_p: int, g: float) -> CosineTerm:
    """cos(B_0 + ... + B_{n_p-1}): the prefactor g^2 cancels the term's 1/g^2."""
    return CosineTerm(tuple((p, 1.0) for p in range(n_p)), prefactor=g**2)


def _fixed(values, flag, axis, default):
    """The value of list flag `flag` off the sweep axis (on it, its first point)."""
    if values is None:
        return default
    if len(values) > 1 and axis != flag:
        raise ValueError(f"--{flag} takes one value unless --axis is {flag}")
    return values[0]


def _t_per_rz(theta: float) -> float | None:
    """T gates per Rz at a resolved cutoff, 1.15 log2(1/theta); None without a cutoff."""
    if theta <= 0:
        return None
    # 1/theta overflows below about 5.6e-309; -log2(theta) stands in
    inverse = 1.0 / theta
    return 1.15 * (math.log2(inverse) if inverse < math.inf else -math.log2(theta))


def cmd_gatecount(args) -> int:
    axis, term, lattice, dt = args.axis, args.term, args.lattice, args.dt
    basis, formulation = args.basis, args.formulation
    if term == "cosine" and (lattice or args.np is not None or axis == "np"):
        raise ValueError("cosine gate counts span one plaquette: no --lattice, --np or --axis np")
    if term == "cosine" and basis == "weaved":
        raise ValueError("cosine gate counts are in the original basis: no --basis weaved")
    if term in ("cosine", "maximal") and formulation != "compact":
        raise ValueError(f"{term} gate counts are compact only: no --formulation non-compact")
    if args.order != 1 and term != "step":
        raise ValueError(f"--order {args.order} applies to --term step only")
    if args.weave and axis == "np":
        raise ValueError("a --weave file fits one n_p: no --weave with --axis np")
    n_q = _fixed(args.nq, "nq", axis, 2)
    n_p = _fixed(args.np, "np", axis, lattice.n_p if lattice else 3)
    fixed = lattice.n_p if lattice else None  # a lattice fixes n_p for every term
    if (axis == "np" or n_p != fixed) and (lattice or term in ("step", "electric")):
        raise ValueError(f"{term} gate counts need --lattice matching n_p, and no --axis np")
    theta = ThetaPolicy(args.theta_min_policy, args.theta_min)
    values = {"np": args.np or list(range(2, 7)), "nq": args.nq or list(range(1, 9)),
              "g": list(map(float, args.g_grid)), "theta": args.theta_grid}[axis]
    weaves = {p: _resolve_weave(args, p, basis) for p in (values if axis == "np" else [n_p])}
    points = []  # (sweep value, (n_p, n_q, g), resolved cutoff) per row
    for v in values:
        at = dict(np=n_p, nq=n_q, g=args.g, theta=theta.value) | {axis: v}
        cutoff = ThetaPolicy(theta.mode, float(at["theta"])).resolve(dt)
        points.append((v, (int(at["np"]), int(at["nq"]), float(at["g"])), cutoff))
    plan = TrotterPlan(args.order, dt, 1)  # checks dt for every term

    def counts(key):
        """Rz and CNOT counts of one (n_p, n_q, g) at each of its rows' cutoffs."""
        p, q, g = key
        weave, cutoffs = weaves[p], [cutoff for _, k, cutoff in points if k == key]
        if term == "cosine":
            series = hamiltonian_series([_bare_cosine(1, g)], digitize(1, q, g, "compact"), dt)
            return sequency_sweep_counts(series, cutoffs)
        d = digitize(p, q, g, formulation, basis, weave)
        if term == "maximal":  # the constraint row's cosine alone, not a step factor
            return sequency_sweep_counts(hamiltonian_series(magnetic_terms(d, weave)[-1:], d, -dt),
                                         cutoffs)
        names = {"electric": "E", "magnetic": "B", "step": SPLITTING[args.order]}[term]
        return factor_sweep_counts(lattice, d, weave, plan, names, cutoffs)

    keys = list(dict.fromkeys(key for _, key, _ in points))
    by_key = {key: iter(c) for key, c in zip(keys, _pmap(counts, keys, args.workers))}
    rows = []
    for v, key, cutoff in points:
        c = next(by_key[key])
        rows.append((v, c["rz"], c["cx"], _t_per_rz(cutoff)))
    config = dict(axis=axis, term=term, basis=basis, formulation=formulation,
                  nq=n_q, np=n_p, g=args.g, dt=dt, order=args.order, theta_min=theta.value,
                  theta_min_policy=theta.mode,
                  lattice=f"{lattice.n_x}x{lattice.n_y}" if lattice else None, weave=args.weave)
    write_table(_meta("gatecount", config), [axis, "rz", "cnot", "t_per_rz_estimate"],
                rows, args.format, args.out)
    return 0


# ---------------------------------------------------------------------------
# L1 norm of the maximally coupled cosine


def cmd_l1(args) -> int:
    limit, g = args.qubit_limit, args.g
    b_max = args.bmax_over_pi * math.pi if args.bmax_over_pi is not None else None
    rows = []
    for n_q in args.nq:
        # n_p = 1 at least, so a width above the limit fails instead of adding no row
        for n_p in args.np or range(1, max(limit // n_q, 1) + 1):
            n = n_p * n_q
            if n > limit:
                raise ResourceLimitError(f"term spans {n} qubits, above --qubit-limit {limit}")
            if b_max is None:
                d = digitize(n_p, n_q, g, "compact")
            else:
                d = Digitization(n_q, g, np.full(n_p, b_max), "compact", "original")
            # the term's own series: embedding moves masks, not coefficients
            val = l1_norm(term_series(_bare_cosine(n_p, g), d, 1.0))
            rows.append((n_q, n_p, n, val, 2.0 ** ((n - 5) / 4.0)))
    config = dict(nq=args.nq, np=args.np, qubit_limit=limit,
                  bmax_over_pi=args.bmax_over_pi, g=g)
    write_table(_meta("l1", config), ["n_q", "n_p", "n_qubits", "l1_norm", "growth_reference"],
                rows, args.format, args.out)
    return 0


# ---------------------------------------------------------------------------
# repeated-product scaling study


def cmd_product_scaling(args) -> int:
    study = product_scaling_study(args.nq, args.np, args.g)
    rows = [
        (theta,) + tuple(float(b) for b in fit_row)
        for theta, fit_row in zip(study["thetas"], study["fit"])
    ]
    config = dict(nq=args.nq, np_max=args.np, g=args.g, a2=study["a2"],
                  transitions={str(r): v for r, v in study["transitions"].items()})
    columns = ["theta_min"] + [f"b_{k}" for k in range(args.np)]
    write_table(_meta("product-scaling", config), columns, rows, args.format, args.out)
    return 0


# ---------------------------------------------------------------------------
# evolution observable


def cmd_evolve(args) -> int:
    lattice, basis, gs, t = args.lattice, args.basis, args.g_grid, args.t
    dts, kappas, mode = args.dt_list, args.theta_list, args.theta_min_policy
    weave = _resolve_weave(args, lattice.n_p, basis)

    points = [(float(g), float(dt), float(kappa)) for g in gs for dt in dts for kappa in kappas]
    if not 0 <= t < math.inf:
        raise ValueError(f"total time must be non-negative and finite, got {t:g}")
    steps = {}
    for dt in dts:
        if not 0 < dt < math.inf:
            raise ValueError(f"step size must be positive and finite, got {dt:g}")
        if not t / dt < sys.maxsize:
            raise ValueError(f"--t {t:g} takes too many steps of size {dt:g}")
        steps[dt] = n = round(t / dt)
        if abs(n * dt - t) > 1e-9 * abs(t):
            raise ValueError(f"--t {t:g} is not a whole number of steps of size {dt:g}")

    policies = {kappa: ThetaPolicy(mode, kappa) for kappa in dict.fromkeys(map(float, kappas))}
    models = {g: _model(lattice, args.nq, g, args.formulation, basis, weave)
              for g in dict.fromkeys(map(float, gs))}

    def sweep(key):
        """Survival at every distinct cutoff of one (g, dt), from one factor series pair."""
        g, dt = key
        plans = [TrotterPlan(args.order, dt, steps[dt], p, p) for p in policies.values()]
        return dict(zip(policies, loschmidt_sweep(models[g], plans)))

    keys = list(dict.fromkeys((g, dt) for g, dt, _ in points))
    survival = dict(zip(keys, _pmap(sweep, keys, args.workers)))
    rows = [(g, dt, kappa, mode, survival[g, dt][kappa]) for g, dt, kappa in points]
    config = dict(lattice=f"{lattice.n_x}x{lattice.n_y}", nq=args.nq, basis=basis,
                  formulation=args.formulation, t=t, order=args.order, dt=dts, theta_min=kappas,
                  theta_min_policy=mode, g_grid=list(map(float, gs)), weave=args.weave)
    write_table(_meta("evolve", config),
                ["g", "dt", "theta_min", "theta_policy", "survival"],
                rows, args.format, args.out)
    return 0


# ---------------------------------------------------------------------------
# QASM export


def cmd_export(args) -> int:
    weave = _resolve_weave(args, args.lattice.n_p, args.basis)
    theta = ThetaPolicy(args.theta_min_policy, args.theta_min)
    model = _model(args.lattice, args.nq, args.g, args.formulation, args.basis, weave)
    plan = TrotterPlan(args.order, args.dt, 1, theta, theta)
    circ = step_circuit(model, plan)
    text = export_qasm(circ, None if args.out in (None, "-") else args.out)
    if args.out in (None, "-"):
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# parser

# Every flag once, as add_argument keywords; "flag" names the option string
# when it differs from "--" + the key (the list forms of --nq and --np).
_FLAGS = dict(
    config=dict(metavar="FILE", help="JSON object of this subcommand's flag values"),
    lattice=dict(type=_parse_lattice, metavar="NxM", help="periodic lattice, e.g. 2x2"),
    nq=dict(type=_positive_int, help="qubits per plaquette"),
    nqs=dict(flag="--nq", type=_parse_ints, help="qubits per plaquette (list 2,3 or range 2:6)"),
    np=dict(type=_positive_int, help="plaquette count"),
    nps=dict(flag="--np", type=_parse_ints, help="plaquette counts (list or range)"),
    g=dict(type=float, help="coupling"),
    g_grid=dict(type=_parse_grid, help="coupling grid start:stop:count[:log|lin]"),
    formulation=dict(choices=["compact", "non-compact"]),
    basis=dict(choices=["original", "weaved"]),
    weave=dict(metavar="FILE", help="JSON weave matrix file"),
    theta_min=dict(type=float, help="cutoff value (kappa under dt policies)"),
    theta_min_policy=dict(choices=["abs", "dt", "dt2"]),
    theta_grid=dict(type=_parse_floats, help="cutoffs for --axis theta (comma list)"),
    theta_list=dict(type=_parse_floats, help="cutoff values (comma list)"),
    dt=dict(type=float, help="Trotter step size"),
    dt_list=dict(type=_parse_floats, help="step sizes (comma list)"),
    t=dict(type=float, help="total evolution time"),
    order=dict(type=int, choices=sorted(SPLITTING)),
    axis=dict(choices=["np", "nq", "g", "theta"]),
    term=dict(choices=["magnetic", "maximal", "cosine", "electric", "step"]),
    levels=dict(type=_positive_int, help="number of eigenvalues"),
    qubit_limit=dict(type=_positive_int, help="largest register to transform"),
    bmax_over_pi=dict(type=float, help="fixed half-width as a fraction of pi"),
    scan_bmax=dict(action="store_true", help="scan a width scale per coupling"),
    format=dict(choices=["csv", "json"]),
    out=dict(help="output path (default stdout)"),
    workers=dict(type=_positive_int, help="sweep worker threads"),
)


# default of a flag that its subcommand cannot run without; main rejects it if still unset
_REQUIRED = object()

# Each subcommand's flags and their defaults; a string default is parsed as flag text.
_COMMANDS = {
    "spectrum": (cmd_spectrum, "digitized spectra vs reference", dict(
        lattice=_REQUIRED, nqs=_REQUIRED, g=0.5, formulation="non-compact", basis="original",
        weave=None, levels=10, format="csv", out=None, workers=1, config=None)),
    "plaquette": (cmd_plaquette, "plaquette expectation across couplings", dict(
        lattice=_REQUIRED, nq=3, g_grid="0.01:10:20:log", weave=None, scan_bmax=False,
        format="csv", out=None, workers=1, config=None)),
    "gatecount": (cmd_gatecount, "gate counts along a sweep axis (electric and "
                  "non-compact counts have no qubit cap below n_q = 1024)", dict(
        axis="theta", term="magnetic", lattice=None, nqs=None, nps=None, g=0.1,
        g_grid="0.1:10:15:log", theta_grid=[2.0**-k for k in range(13)],
        formulation="compact", basis="original", weave=None, dt=1.0, order=1, theta_min=0.0,
        theta_min_policy="abs", format="csv", out=None, workers=1, config=None)),
    "l1": (cmd_l1, "L1 norm of the maximally coupled cosine", dict(
        nqs="2,3", nps=None, g=0.1, bmax_over_pi=None, qubit_limit=16,
        format="csv", out=None, workers=1, config=None)),
    "product-scaling": (cmd_product_scaling, "CNOT scaling fits for repeated cosine products",
                        dict(nq=2, np=8, g=0.1, format="csv", out=None, workers=1, config=None)),
    "evolve": (cmd_evolve, "survival amplitude across couplings", dict(
        lattice=_REQUIRED, nq=1, g_grid="0.1:10:15:log", formulation="compact",
        basis="original", weave=None, t=0.2, order=1, dt_list="0.2", theta_list="0",
        theta_min_policy="dt", format="csv", out=None, workers=1, config=None)),
    "export": (cmd_export, "write one Trotter step as OpenQASM 2.0", dict(
        lattice=_REQUIRED, nq=2, g=0.5, formulation="compact", basis="original", weave=None,
        dt=0.1, order=1, theta_min=0.0, theta_min_policy="abs", out=None, workers=1,
        config=None)),
}


def _option(name: str) -> str:
    """The option string of a `_FLAGS` entry."""
    return _FLAGS[name].get("flag", "--" + name.replace("_", "-"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="u1rotor",
        description="Trotter circuit synthesis and precision studies for a 2+1D U(1) rotor lattice.",
    )
    parser.add_argument("--version", action="version", version=f"u1rotor {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text, allow_abbrev=False)
        for name, default in flags.items():
            spec = {k: v for k, v in _FLAGS[name].items() if k != "flag"}
            p.add_argument(_option(name), default=default, **spec)
        p.set_defaults(func=func)
    return parser


# the parser `main` reads every argv with, built on first use and kept for the process
_parser = functools.cache(build_parser)


def _config_argv(path, args: argparse.Namespace) -> list[str]:
    """A JSON config as flag tokens: true sets a switch, null and false are skipped."""
    with open(path) as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise ValueError(f"config {path} is not a JSON object")
    tokens = []
    for key, value in config.items():
        flag = "--" + key.replace("_", "-")
        if flag not in map(_option, _COMMANDS[args.command][2]):
            raise ValueError(f"config key {key!r} is not an option of {args.command}")
        if value is True:
            tokens.append(flag)
        elif value is not None and value is not False:
            if isinstance(value, list):
                value = ",".join(map(str, value))
            tokens.append(f"{flag}={value}")
    return tokens


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            # config flags go right after the subcommand, so explicit flags, parsed later, win
            at = argv.index(args.command) + 1
            args = parser.parse_args(argv[:at] + _config_argv(args.config, args) + argv[at:])
        missing = [key.replace("_", "-") for key, value in vars(args).items() if value is _REQUIRED]
        if missing:
            raise ValueError(f"--{missing[0]} is required")
        return args.func(args)
    except (ValueError, ResourceLimitError, OSError) as exc:
        raise SystemExit(f"u1rotor {args.command}: {exc}") from exc


if __name__ == "__main__":
    raise SystemExit(main())

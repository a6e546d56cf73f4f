"""Reference figures for cases the workloads leave out, each timed once in a fresh process.

Usage, from the root of a checkout:

    python3 bench/figures.py            # every case
    python3 bench/figures.py CASE ...   # only these

Each case prints its wall time and the peak resident memory of its
process.  The cases are the baseline table of ROADMAP.md and the sizes too
slow or too large for a benchmark pass; README.md quotes their output.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def _model(u, n_x, n_y, n_q, g=0.5, formulation="compact"):
    lattice = u.LatticeSpec(n_x, n_y)
    return u.build_model(lattice, u.digitize(lattice.n_p, n_q, g, formulation))


def _cli(u, *argv):
    import u1rotor.cli

    with contextlib.redirect_stdout(io.StringIO()):
        u1rotor.cli.main(list(argv))


def _dense_eig_12q(u):
    import numpy as np

    model = _model(u, 2, 2, 4, 0.8, "non-compact")
    start = time.perf_counter()
    h = u.dense_matrix(model)
    mid = time.perf_counter()
    np.linalg.eigvalsh(h)
    return f"dense_matrix {mid - start:.2f} s, eigvalsh {time.perf_counter() - mid:.2f} s"


def _factor_series_16q(u):
    u.factor_series(_model(u, 3, 3, 2), u.TrotterPlan(2, 0.1, 1))


def _loschmidt_10q(u):
    u.loschmidt(_model(u, 2, 3, 2), u.TrotterPlan(1, 0.01, 20))


def _loschmidt_step_15q(u):
    """One gate-level step at 15 q; a 20-step run is twenty of these."""
    model = _model(u, 2, 3, 3)
    step = u.step_circuit(model, u.TrotterPlan(1, 0.01, 1))
    psi = u.electric_ground_state(model)
    start = time.perf_counter()
    u.apply(step, psi)
    return f"{len(step.gates)} gates, one step applied in {time.perf_counter() - start:.1f} s"


def _evolve(workers):
    def case(u):
        _cli(u, "evolve", "--lattice", "2x3", "--nq", "2", "--g-grid", "0.1:10:4:log",
             "--t", "0.2", "--dt-list", "0.01", "--workers", str(workers))
    return case


def _error_bound_12q(u):
    u.error_bound(_model(u, 2, 2, 4), u.TrotterPlan(1, 0.05, 4))


def _series_22q(u):
    _cli(u, "gatecount", "--axis", "np", "--term", "maximal", "--nq", "2", "--np", "11",
         "--g", "0.5", "--theta-min", "0.1")


def _maximal_21q(u):
    _cli(u, "gatecount", "--axis", "np", "--term", "maximal", "--nq", "3", "--np", "2:7",
         "--g", "0.5", "--theta-min", "0.1")


def _spectrum_12q(u):
    _cli(u, "spectrum", "--lattice", "2x2", "--formulation", "non-compact", "--nq", "2,3,4")


CASES = {
    "dense-eig-12q": _dense_eig_12q,
    "factor-series-16q": _factor_series_16q,
    "loschmidt-20-steps-10q": _loschmidt_10q,
    "loschmidt-step-15q": _loschmidt_step_15q,
    "evolve-workers-1": _evolve(1),
    "evolve-workers-2": _evolve(2),
    "error-bound-12q": _error_bound_12q,
    "maximal-np-2-7-21q": _maximal_21q,
    "series-22q": _series_22q,
    "spectrum-nq-2-4-12q": _spectrum_12q,
}


def _one(name: str) -> None:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import u1rotor

    start = time.perf_counter()
    note = CASES[name](u1rotor)
    wall = time.perf_counter() - start
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"case": name, "wall_s": wall, "peak_rss_mb": rss, "note": note}))


def main(names) -> None:
    cpus = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=cpus, OMP_NUM_THREADS=cpus, MKL_NUM_THREADS=cpus)
    for name in names or CASES:
        proc = subprocess.run([sys.executable, __file__, "--one", name], env=env,
                              capture_output=True, text=True, check=True)
        r = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{r['case']:24s} {r['wall_s']:8.2f} s {r['peak_rss_mb']:8.0f} MB  {r['note'] or ''}",
              flush=True)


if __name__ == "__main__":
    if sys.argv[1:2] == ["--one"]:
        _one(sys.argv[2])
    else:
        main(sys.argv[1:])

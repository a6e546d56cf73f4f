"""Benchmark of `u1rotor`: one workload per run, timed end to end or traced by layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The program is imported from the checkout's ``src/``; the run stops with
exit code 2 when that tree is missing.  With ``--trace 0`` the run times
the workload's set-up in fresh processes, then repeats whole passes over
the workload's operations for about S seconds, and reports the medians of
``setup_s`` and ``study_s`` and the process's peak resident memory before
any check runs.  With ``--trace 1`` it alternates untraced and traced passes
and reports the per-layer metrics of `tracing`, the tracing overhead and
the share of ``study_s`` outside every layer span; spans are written to
``.bench_out/``.  Every pass's outputs must equal the first pass's, and the
first pass's outputs are checked (`checks`).  The last line printed is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import speed

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_SAMPLES = 11
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def blas_env() -> dict:
    """The environment with BLAS on one thread, so that a run fits on the CPU it is pinned to."""
    env = dict(os.environ)
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    return env


def program_present() -> bool:
    return os.path.isfile(os.path.join(SRC, "u1rotor", "__init__.py"))


def measure_setup(workload: str, seed: int) -> list[tuple[float, float]]:
    """Set-up CPU times of ``SETUP_SAMPLES`` fresh processes (import + builds), with their wall times.

    Each probe process starts pinned to the CPU `speed.pin_fastest` chose.
    """
    samples = []
    for _ in range(SETUP_SAMPLES):
        speed.pin_fastest()
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH, "setup_probe.py"), workload, str(seed)],
            capture_output=True, text=True, env=blas_env(), timeout=120, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["module"].startswith(SRC + os.sep):
            raise RuntimeError(f"set-up imported u1rotor from {result['module']}")
        samples.append((result["setup_s"], result["setup_wall_s"]))
    return samples


def run_pass(workload, tracer=None):
    """One pass over the operations.

    Returns (CPU seconds, outputs, failures, CPU seconds per operation, wall
    seconds per operation).  The CPU time is the process's user + system
    time; with BLAS on one thread it equals the wall time on a CPU nothing
    else uses, and it leaves out the time the host gives this vCPU to
    another guest.  Untraced, every operation runs on the CPU
    `speed.pin_fastest` chose just before it; a traced pass is pinned once,
    before its pass span opens, so that the probe adds nothing to the span.
    """
    outputs, failures, seconds, walls = {}, {}, {}, {}
    for op in workload.ops:
        if tracer is None:
            speed.pin_fastest()
        op_start, op_cpu = time.perf_counter(), time.process_time()
        try:
            if tracer is None:
                outputs[op.name] = op.call()
            else:
                with tracer.span(f"op:{op.name}"):
                    outputs[op.name] = op.call()
        except Exception as exc:  # an operation's failure is a result to count
            failures[op.name] = exc
            outputs[op.name] = type(exc).__name__
        seconds[op.name] = time.process_time() - op_cpu
        walls[op.name] = time.perf_counter() - op_start
    return sum(seconds.values()), outputs, failures, seconds, walls


def digest(outputs: dict) -> str:
    """Fingerprint of a pass's outputs; reprs of tables, circuits and budgets are exact."""
    return hashlib.sha256(repr(outputs).encode()).hexdigest()


def study_seconds(op_seconds: list[dict]) -> float:
    """One pass's time, as the sum over operations of their median across passes.

    The machine's speed drifts within a pass; a per-operation median drops a
    slow stretch that hit one operation without discarding the whole pass.
    """
    return sum(statistics.median(p[name] for p in op_seconds) for name in op_seconds[0])


def check_outputs(workload, outputs, failures) -> list[str]:
    """Problems found in one pass's outputs; empty when all checks pass."""
    import checks

    problems = []
    for op in workload.ops:
        exc = failures.get(op.name)
        if exc is not None:
            if op.fails_with is None or not isinstance(exc, op.fails_with):
                problems.append(f"{op.name}: unexpected {type(exc).__name__}: {exc}")
            continue
        if op.check is None:
            continue
        try:
            op.check(outputs[op.name], outputs)
        except checks.CheckError as exc:
            problems.append(f"{op.name}: {exc}")
    if not failures.keys() - {op.name for op in workload.ops if op.fails_with}:
        for joint in workload.joint_checks:
            try:
                joint(outputs)
            except checks.CheckError as exc:
                problems.append(f"joint check: {exc}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not program_present():
        print(f"no u1rotor sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(blas_env())  # before numpy loads
    sys.path[:0] = [SRC, BENCH]
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"unknown workload {args.workload!r}; one of {', '.join(workloads.NAMES)}",
              file=sys.stderr)
        return 2
    setup = measure_setup(args.workload, args.seed) if not args.trace else []
    setup_probes = list(speed.chosen)
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        return _run(args, workloads, setup, setup_probes, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workloads, setup, setup_probes, workdir) -> int:
    import u1rotor

    if not u1rotor.__file__.startswith(SRC + os.sep):
        print(f"u1rotor was imported from {u1rotor.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workload = workloads.build(args.workload, args.seed, workdir)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()

    # Warm-up pass: caches fill and the allocator grows its pools here.  Its outputs are the ones checked and every later pass must
    # match them; they wait on disk so that they hold no memory meanwhile.
    _, first, failures, _, _ = run_pass(workload)
    expected = digest(first)
    saved = os.path.join(workdir, "warm-up.pickle")
    with open(saved, "wb") as fh:
        pickle.dump((first, failures), fh)
    del first, failures
    passes = 1
    untraced, traced, layer_rows, op_seconds, op_walls = [], [], [], [], []
    problems: list[str] = []
    first_probe = len(speed.chosen)
    started = time.perf_counter()
    while True:
        cpu, outputs, _, seconds, walls = run_pass(workload)
        passes += 1
        untraced.append(cpu)
        op_seconds.append(seconds)
        op_walls.append(walls)
        if digest(outputs) != expected:
            problems.append(f"pass {passes} outputs differ from the warm-up pass")
        last = sum(walls.values())
        if tracer is not None:
            tracer.pass_id = len(traced)
            tracer.install(u1rotor)
            speed.pin_fastest()
            try:
                with tracer.span("pass"):
                    cpu, outputs, _, _, walls = run_pass(workload, tracer)
            finally:
                tracer.uninstall()
            passes += 1
            traced.append(cpu)
            layer_rows.append(tracer.pass_metrics(tracer.pass_id))
            if digest(outputs) != expected:
                problems.append(f"traced pass {passes} outputs differ from the warm-up pass")
            last += sum(walls.values())
        del outputs
        if time.perf_counter() - started + last > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    pass_probes = speed.chosen[first_probe:]
    with open(saved, "rb") as fh:
        first, failures = pickle.load(fh)

    try:
        problems = check_outputs(workload, first, failures) + problems
    except Exception:  # a crash inside a check is a failed check, not a lost run
        problems.append("check crashed:\n" + traceback.format_exc())
    attempted = passes * len(workload.ops)
    failed = passes * len(failures)
    for name, exc in failures.items():
        print(f"{args.workload}: {name} failed with {type(exc).__name__}: {exc}")
    for problem in problems:
        print(f"{args.workload}: CHECK FAILED {problem}")
    print(f"{args.workload} seed {args.seed}: {passes} passes of {len(workload.ops)} "
          f"operations, {len(failures)} failing per pass; params "
          + json.dumps(workload.params, sort_keys=True))

    if tracer is None:
        cpu_setup, cpu_study = statistics.median(cpu for cpu, _ in setup), study_seconds(op_seconds)
        print(f"{args.workload}  unscaled CPU time: setup_s {cpu_setup:.6g} s, "
              f"study_s {cpu_study:.6g} s; wall time: setup_s "
              f"{statistics.median(w for _, w in setup):.6g} s, study_s {study_seconds(op_walls):.6g} s; "
              f"probe median {statistics.median(setup_probes) * 1e3:.4g} ms in the set-up, "
              f"{statistics.median(pass_probes) * 1e3:.4g} ms in the timed passes "
              f"(nominal {speed.NOMINAL_S * 1e3:.4g} ms)")
        metrics = {
            "setup_s": (cpu_setup * speed.factor(setup_probes), "s"),
            "study_s": (cpu_study * speed.factor(pass_probes), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        metrics = _layer_metrics(layer_rows, traced, untraced)
        path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.jsonl")
        tracer.write(path)
        print(f"spans written to {os.path.relpath(path, ROOT)}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload}  {name:28s} {value:14.6g} {unit}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    kind = "trace" if tracer is not None else "result"
    with open(os.path.join(OUT, f"{kind}-{args.workload}-seed{args.seed}.json"), "w") as fh:
        json.dump(dict(result, workload=args.workload, seed=args.seed, params=workload.params,
                       passes=passes, setup_samples=setup, pass_seconds=untraced,
                       op_seconds=op_seconds,
                       op_wall_seconds=op_walls, setup_probe_seconds=setup_probes,
                       pass_probe_seconds=pass_probes,
                       traced_pass_seconds=traced, problems=problems), fh, indent=1)
    print(json.dumps(result))
    return 0 if not problems else 1


def _layer_metrics(rows, traced, untraced) -> dict:
    """Medians over the traced passes, in BENCHMARK.json's per-layer names."""
    import tracing

    out = {}
    for name in tracing.TIME_METRICS:
        out[name] = (statistics.median(r[name] for r in rows), "s")
    for name, unit in tracing.COUNT_METRICS.items():
        out[name] = (statistics.median(r[name] for r in rows), unit)
    study = statistics.median(traced)
    plain = statistics.median(untraced)
    out["trace.study_s"] = (study, "s")
    out["trace.overhead_pct"] = (100.0 * (study - plain) / plain, "%")
    out["trace.uncovered_pct"] = (
        statistics.median(100.0 * r["uncovered_s"] / r["wall_s"] for r in rows), "%")
    return out


if __name__ == "__main__":
    sys.exit(main())

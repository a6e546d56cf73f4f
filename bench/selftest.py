"""Self-tests of the benchmark itself.

Run from the root of a checkout:

    python3 bench/selftest.py          # quick mode, then every perturbation test
    python3 bench/selftest.py --quick  # quick mode only (about ten seconds)

or collect the ``test_*`` functions with ``python3 -m pytest bench/selftest.py``.

Quick mode runs the smallest operation of each workload and its check.  The
perturbation tests run one pass of every workload, confirm that every check
accepts the real outputs, then change one number in each output (a survival
by 1e-3, a gate count by one, an energy, a QASM angle, ...) and confirm
that the check rejects it.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(ROOT, ".bench_out")
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import checks  # noqa: E402
import workloads  # noqa: E402

SEED = 1


def _workdir(name: str) -> str:
    path = os.path.join(OUT, f"selftest-{name}")
    os.makedirs(path, exist_ok=True)
    return path


def quick_mode() -> None:
    """Smallest operation(s) of each workload, with their checks."""
    for name in workloads.NAMES:
        start = time.perf_counter()
        workload = workloads.build(name, SEED, _workdir(name))
        outputs = {}
        for op in (op for op in workload.ops if op.quick):
            outputs[op.name] = op.call()
            if op.check is not None:
                op.check(outputs[op.name], outputs)
        print(f"quick {name}: {', '.join(outputs)} checked in "
              f"{time.perf_counter() - start:.1f} s")


# ---------------------------------------------------------------------------
# perturbations


def _edit_table(text: str, edit) -> str:
    data = json.loads(text)
    rows = [dict(zip(data["columns"], row)) for row in data["rows"]]
    edit(rows)
    data["rows"] = [[row[c] for c in data["columns"]] for row in rows]
    return json.dumps(data)


def _bump(column, amount, pick=lambda rows: rows[-1]):
    def edit(rows):
        pick(rows)[column] += amount
    return edit


def _exact_row(rows):
    """The smallest-step theta = 0 row: the one nearest the exact survival."""
    return min((r for r in rows if r["theta_min"] == 0.0), key=lambda r: r["dt"])


def _change_qasm_angle(path: str) -> str:
    """Copy of a QASM file with the first Rz angle changed in its last digits."""
    with open(path) as fh:
        text = fh.read()
    match = re.search(r"rz\(([-+0-9.eE]+)\)", text)
    angle = float(match.group(1))
    changed = text[: match.start(1)] + repr(angle * (1 + 1e-9)) + text[match.end(1):]
    out = path + ".perturbed"
    with open(out, "w") as fh:
        fh.write(changed)
    return out


# Operation name prefix -> (description, perturbation of the output).
PERTURB = {
    "maximal-np": ("a CNOT count off by one", lambda out, ctx: _edit_table(out, _bump("cnot", 1))),
    "weaved-magnetic-nq": ("an Rz count off by one", lambda out, ctx: _edit_table(out, _bump("rz", -1))),
    "electric-4x4": ("a CNOT count off by one", lambda out, ctx: _edit_table(out, _bump("cnot", 1))),
    "l1": ("an L1 norm scaled by 1 + 1e-6",
           lambda out, ctx: _edit_table(out, lambda rows: rows[-1].update(l1_norm=rows[-1]["l1_norm"] * (1 + 1e-6)))),
    "product-scaling": ("a fitted count off by one", lambda out, ctx: _edit_table(out, _bump("b_0", 1.0))),
    "evolve-": ("a theta = 0 survival shifted by 1e-3",
                lambda out, ctx: _edit_table(out, _bump("survival", 1e-3, _exact_row))),
    "read-": ("a QASM angle changed in its last digits",
              lambda out, ctx: ctx["u"].load_qasm(_change_qasm_angle(ctx["path"]))),
    "gatecount-step-8x8": ("a CNOT count off by one", lambda out, ctx: _edit_table(out, _bump("cnot", 1))),
    "spectrum-": ("an energy shifted by 1e-6 of itself",
                  lambda out, ctx: _edit_table(out, lambda rows: rows[3].update(energy=rows[3]["energy"] * (1 + 1e-6)))),
    "plaquette-": ("a plaquette value shifted by 1e-6", lambda out, ctx: _edit_table(out, _bump("plaquette_weaved", 1e-6))),
    "error-bound-": ("alpha scaled by 1 + 1e-6",
                     lambda out, ctx: dataclasses.replace(out, alpha=out.alpha * (1 + 1e-6))),
}


def _raise_8x8_count(outputs):
    rz = sum(1 for g in outputs["read-8x8-nq2-noncompact"].gates if g.name == "rz")
    table = _edit_table(outputs["gatecount-step-8x8"], lambda rows: rows[0].update(rz=rz + 1))
    return dict(outputs, **{"gatecount-step-8x8": table})


def _shift_order_2(outputs):
    name = next(n for n in outputs if n.startswith("evolve-") and n.endswith("order2"))
    return dict(outputs, **{name: _edit_table(outputs[name], _bump("survival", 1e-3, _exact_row))})


# Workload -> (description, perturbation of the outputs its joint check reads).
JOINT_PERTURB = {
    "evolve-loschmidt": ("an order-2 survival at theta = 0 shifted by 1e-3", _shift_order_2),
    "step-export": ("the 8x8 Rz count at 4x the cutoff above the exported step's", _raise_8x8_count),
}


def _perturbation(op_name):
    for prefix, entry in PERTURB.items():
        if op_name.startswith(prefix):
            return entry
    raise KeyError(f"no perturbation for {op_name}")


def _rejects(check, *args) -> bool:
    try:
        check(*args)
    except checks.CheckError:
        return True
    return False


def perturbation_tests() -> int:
    """Every check accepts the real outputs and rejects a perturbed one."""
    import u1rotor

    tested = 0
    for name in workloads.NAMES:
        workdir = _workdir(name)
        workload = workloads.build(name, SEED, workdir)
        outputs = {}
        for op in workload.ops:
            try:
                outputs[op.name] = op.call()
            except Exception as exc:
                if op.fails_with is None or not isinstance(exc, op.fails_with):
                    raise
                outputs[op.name] = type(exc).__name__
        for op in workload.ops:
            if op.check is None or op.fails_with is not None:
                continue  # the 8x8 counting operations fail today; nothing to perturb
            op.check(outputs[op.name], outputs)
            what, perturb = _perturbation(op.name)
            ctx = {"u": u1rotor, "path": os.path.join(workdir, f"step-{op.name[len('read-'):]}.qasm")}
            bad = perturb(outputs[op.name], ctx)
            assert _rejects(op.check, bad, outputs), f"{name}/{op.name}: accepted {what}"
            print(f"{name}/{op.name}: rejects {what}")
            tested += 1
        for joint in workload.joint_checks:
            joint(outputs)
            what, perturb = JOINT_PERTURB[name]
            assert _rejects(joint, perturb(outputs)), f"{name}: joint check accepted {what}"
            print(f"{name}/joint check: rejects {what}")
            tested += 1
    return tested


def exits_without_program() -> None:
    """In a directory holding only the benchmark, the run fails without a result."""
    bare = os.path.join(OUT, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "step-export", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc.stdout
    print(f"bare directory: exit code {proc.returncode}, no result printed")


def test_quick_mode():
    quick_mode()


def test_checks_reject_perturbed_outputs():
    assert perturbation_tests() > 0


def test_exits_without_program():
    exits_without_program()


if __name__ == "__main__":
    quick_mode()
    if "--quick" not in sys.argv[1:]:
        count = perturbation_tests()
        exits_without_program()
        print(f"{count} perturbations rejected")

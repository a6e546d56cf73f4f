"""Layer spans recorded around `u1rotor`'s public functions, from outside the package.

`Tracer.install` replaces each listed function by a wrapper in every
`u1rotor` module that holds it: the package binds names with
``from .walsh import fwt``, so patching only the defining module would
miss most calls.  The dense eigensolvers are patched on `numpy.linalg`,
and only while a traced pass runs.  Spans stay in memory; `write` saves
them when the run ends.

A layer metric ending in ``_s`` sums self times: a span's duration minus
the durations of the spans directly inside it.  The other metrics are
counts recorded at the same boundaries.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time

import numpy

MODULES = ("walsh", "lattice", "hamiltonian", "trotter", "circuits", "simulator", "cli")


def _series_len(args, kwargs, result, parent):
    return {"walsh.terms": len(result)}


def _merge_sizes(args, kwargs, result, parent):
    return {"walsh.merge_in": sum(len(s) for s in args[0]), "walsh.merge_out": len(result)}


def _gates_built(args, kwargs, result, parent):
    return {"circuits.gates": len(result.gates)}


def _simplify(args, kwargs, result, parent):
    scanned = len(args[0].gates)
    return {"circuits.simplify_in": scanned, "circuits.simplify_removed": scanned - len(result.gates)}


def _qasm_bytes(args, kwargs, result, parent):
    return {"circuits.qasm_bytes": len(result.encode())}


def _dense_bytes(args, kwargs, result, parent):
    # dense_matrix builds its electric part through dense_electric: count the matrix once.
    if parent == "hamiltonian.dense_matrix":
        return {}
    return {"hamiltonian.dense_bytes": result.nbytes}


def _applied(args, kwargs, result, parent):
    circuit = args[0]
    amplitudes = result.size  # 2^n for apply, 4^n for circuit_unitary
    return {
        "simulator.gates_applied": len(circuit.gates),
        # computed: each gate reads and writes every complex128 amplitude once
        "simulator.bytes_moved": 2 * 16 * amplitudes * len(circuit.gates),
    }


# (module, function) -> (self-time metric, counter)
LAYERS = {
    ("walsh", "fwt"): ("walsh.transform_s", _series_len),
    ("walsh", "series_from_state_values"): ("walsh.transform_s", _series_len),
    ("walsh", "state_values"): ("walsh.transform_s", None),
    ("walsh", "inverse_fwt"): ("walsh.transform_s", None),
    ("walsh", "embed"): ("walsh.embed_s", None),
    ("walsh", "merge"): ("walsh.merge_s", _merge_sizes),
    ("walsh", "threshold_truncate"): ("walsh.truncate_s", None),
    ("lattice", "digitize"): ("lattice.digitize_s", None),
    ("lattice", "builtin_weave"): ("lattice.digitize_s", None),
    ("lattice", "load_weave"): ("lattice.digitize_s", None),
    ("hamiltonian", "build_model"): ("lattice.digitize_s", None),
    ("hamiltonian", "diagonal_of_term"): ("hamiltonian.diagonal_s", None),
    ("hamiltonian", "dense_matrix"): ("hamiltonian.dense_s", _dense_bytes),
    ("hamiltonian", "dense_electric"): ("hamiltonian.dense_s", _dense_bytes),
    ("hamiltonian", "dense_diagonals"): ("hamiltonian.dense_s", None),
    ("hamiltonian", "ground_state"): ("hamiltonian.other_s", None),
    ("hamiltonian", "plaquette_expectation"): ("hamiltonian.other_s", None),
    ("hamiltonian", "noncompact_spectrum_oracle"): ("hamiltonian.other_s", None),
    ("trotter", "hamiltonian_series"): ("trotter.series_s", None),
    ("trotter", "factor_series"): ("trotter.series_s", None),
    ("trotter", "step_circuit"): ("trotter.step_s", None),
    ("trotter", "error_bound"): ("trotter.error_bound_s", None),
    ("circuits", "exact_circuit"): ("circuits.synth_s", _gates_built),
    ("circuits", "truncated_circuit"): ("circuits.synth_s", None),
    ("circuits", "qft_circuit"): ("circuits.synth_s", _gates_built),
    ("circuits", "exp_walsh"): ("circuits.synth_s", _gates_built),
    ("circuits", "simplify_cnots"): ("circuits.simplify_s", _simplify),
    ("circuits", "sequency_gate_counts"): ("circuits.count_s", None),
    ("circuits", "gate_count"): ("circuits.count_s", None),
    ("circuits", "export_qasm"): ("circuits.qasm_write_s", _qasm_bytes),
    ("simulator", "apply"): ("simulator.apply_s", _applied),
    ("simulator", "circuit_unitary"): ("simulator.apply_s", _applied),
    ("simulator", "read_qasm"): ("simulator.qasm_read_s", None),
    ("simulator", "load_qasm"): ("simulator.qasm_read_s", None),
    ("simulator", "loschmidt"): ("simulator.other_s", None),
    ("simulator", "electric_ground_state"): ("simulator.other_s", None),
    ("simulator", "exact_evolution"): ("simulator.other_s", None),
    ("cli", "main"): ("cli.self_s", None),
    ("cli", "write_table"): ("cli.table_s", None),
}
EIGENSOLVERS = ("eigvalsh", "eigh")  # on numpy.linalg, called from u1rotor

TIME_METRICS = tuple(dict.fromkeys(
    [metric for metric, _ in LAYERS.values()] + ["hamiltonian.eig_s"]))
COUNT_METRICS = {
    "walsh.terms": "count", "walsh.merge_in": "count", "walsh.merge_out": "count",
    "hamiltonian.dense_bytes": "B", "circuits.gates": "count", "circuits.simplify_in": "count",
    "circuits.simplify_removed": "count", "circuits.qasm_bytes": "B",
    "simulator.gates_applied": "count", "simulator.bytes_moved": "B",
}


class Tracer:
    """Span recorder; one list of spans for the whole run."""

    def __init__(self):
        # [name, metric, start, end, parent index, pass, counts]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.pass_id = -1

    def _enter(self, name, metric):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, metric, time.perf_counter(), None, parent, self.pass_id, None])
        self._stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def _exit(self, span):
        span[3] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name, metric=None):
        """A span opened by the benchmark itself (pass, operation)."""
        rec = self._enter(name, metric)
        try:
            yield
        finally:
            self._exit(rec)

    def _wrap(self, name, metric, counter, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer.spans[tracer._stack[-1]][0] if tracer._stack else None
            rec = tracer._enter(name, metric)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(rec)
            if counter is not None:
                rec[6] = counter(args, kwargs, result, parent)
            return result

        return wrapper

    def install(self, package) -> None:
        """Patch every `u1rotor` module and `numpy.linalg` for one traced pass."""
        modules = [package] + [getattr(package, m) for m in MODULES]
        wrappers = {}
        for (mod, fname), (metric, counter) in LAYERS.items():
            original = getattr(getattr(package, mod), fname)
            wrappers[id(original)] = self._wrap(f"{mod}.{fname}", metric, counter, original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._patch(module, attr, wrappers[id(value)])
        for fname in EIGENSOLVERS:
            original = getattr(numpy.linalg, fname)
            self._patch(numpy.linalg, fname,
                        self._wrap(f"numpy.linalg.{fname}", "hamiltonian.eig_s", None, original))

    def _patch(self, owner, attr, replacement) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def pass_metrics(self, pass_id: int) -> dict[str, float]:
        """Per-layer self times and counts of one pass, plus its uncovered time."""
        spans = [(i, s) for i, s in enumerate(self.spans) if s[5] == pass_id]
        child_time: dict[int, float] = {}
        for _, s in spans:
            if s[4] >= 0:
                child_time[s[4]] = child_time.get(s[4], 0.0) + (s[3] - s[2])
        out = dict.fromkeys(TIME_METRICS + tuple(COUNT_METRICS), 0.0)
        wall, covered = 0.0, 0.0
        for i, s in spans:
            own = (s[3] - s[2]) - child_time.get(i, 0.0)
            if s[1] is None:
                if s[4] < 0:
                    wall += s[3] - s[2]
                continue
            out[s[1]] += own
            covered += own
            for key, value in (s[6] or {}).items():
                out[key] += value
        out["uncovered_s"] = wall - covered
        out["wall_s"] = wall
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, metric, start, end, parent, pass_id, counts) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "pass": pass_id, "name": name, "layer": metric, "start": start,
                    "end": end, "parent": parent, "counts": counts or {},
                }) + "\n")

"""Span recording around the public functions of every ``vfea`` module.

The program is not changed: ``Tracer.install`` replaces each public function
(and each public method of the classes that hold layer state) with a timing
wrapper, in its defining module and in every ``vfea`` module that imported
it by name, so ``harness.orchestrate`` and ``sandbox.solve_static`` are
timed as well as the calls made inside their own modules. Spans (name,
start, end, parent, case id, counts) are kept in memory and written out
when the benchmark ends.

A layer's self time is its span's duration minus the durations of its
direct child spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import statistics
import time
from pathlib import Path

MODULES = ("ir", "perception", "validation", "simscript", "sandbox", "solver",
           "memory", "synthesis", "harness")
# Classes whose public methods are layer entry points.
CLASSES = {"harness": ("RunConfig",), "memory": ("ExperienceBuffer",),
           "synthesis": ("PerfectGenerator", "FaultyGenerator")}
# Runs once per stored record inside ExperienceBuffer.retrieve; wrapping it
# would time the wrapper, so its cost stays in retrieve's self time.
UNWRAPPED = {"memory.jaccard"}

# Counts recorded on a span from its arguments and result; keep them O(1).
COUNTERS = {
    "perception.infer_topology": lambda a, k, r: {"segments": len(r[1]),
                                                  "endpoints": 2 * len(r[1]),
                                                  "clusters": len(r[0])},
    "validation.audit": lambda a, k, r: {"findings": len(r.findings)},
    "solver.assemble": lambda a, k, r: {"dofs": r.n_dofs},
    "solver.build_dof_index": lambda a, k, r: {"index_dofs": len(r)},
    "solver.optimize_topology": lambda a, k, r: {"oc_iterations": len(r.compliance_history) - 1,
                                                 "oc_solves": len(r.compliance_history)},
    "simscript.parse_script": lambda a, k, r: {"statements": len(r.statements)},
    "simscript.preflight": lambda a, k, r: {"violations": len(r)},
    "sandbox.write_results_file": lambda a, k, r: {"results_bytes": os.path.getsize(a[1])},
    "memory.ExperienceBuffer.retrieve": lambda a, k, r: {"records": len(a[0])},
    "synthesis.synthesize": lambda a, k, r: {"attempts": len(r[2].attempts),
                                             "fallbacks": int(r[2].fallback_used)},
}
# The dof budget check in the sandbox is its own call of build_dof_index.
NAMESPACE_COUNTERS = {("sandbox", "solver.build_dof_index"):
                      lambda a, k, r: {"budgeted_dofs": len(r)}}

# Per-layer self times reported, as metric name -> span name.
SELF_TIMES = {
    "perception.parse_drawing_ms": "perception.parse_drawing",
    "perception.infer_scale_ms": "perception.infer_scale",
    "perception.infer_topology_ms": "perception.infer_topology",
    "perception.attach_semantics_ms": "perception.attach_semantics",
    "perception.orchestrate_self_ms": "perception.orchestrate",
    "validation.check_l1_ms": "validation.check_l1",
    "validation.check_l2_ms": "validation.check_l2",
    "validation.check_l3_ms": "validation.check_l3",
    "validation.check_l4_ms": "validation.check_l4",
    "validation.restraint_rank_ms": "validation.restraint_rank",
    "ir.canonicalize_ms": "ir.canonicalize",
    "ir.deserialize_ms": "ir.deserialize",
    "harness.evaluate_ir_ms": "harness.evaluate_ir",
    "harness.run_case_self_ms": "harness.run_case",
    "solver.build_dof_index_ms": "solver.build_dof_index",
    "solver.assemble_ms": "solver.assemble",
    "solver.solve_static_self_ms": "solver.solve_static",
    "solver.subdivide_frames_ms": "solver.subdivide_frames",
    "solver.solve_modal_self_ms": "solver.solve_modal",
    "solver.optimize_topology_self_ms": "solver.optimize_topology",
    "simscript.lower_ir_ms": "simscript.lower_ir",
    "simscript.parse_script_ms": "simscript.parse_script",
    "simscript.preflight_ms": "simscript.preflight",
    "sandbox.allocate_workspace_ms": "sandbox.allocate_workspace",
    "sandbox.execute_self_ms": "sandbox.execute",
    "sandbox.write_results_file_ms": "sandbox.write_results_file",
    "sandbox.read_results_ms": "sandbox.read_results",
    "memory.retrieve_ms": "memory.ExperienceBuffer.retrieve",
    "memory.record_ms": "memory.ExperienceBuffer.record",
    "memory.classify_error_ms": "memory.classify_error",
    "synthesis.synthesize_self_ms": "synthesis.synthesize",
    "synthesis.verify_results_ms": "synthesis.verify_results",
}
MIN_COVERAGE = 0.95


class Tracer:
    def __init__(self):
        # one row per span: [name, start_ns, end_ns, parent, case_id, counts]
        self.spans: list[list] = []
        self.case_id: str | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, counter):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            row = [name, 0, 0, stack[-1] if stack else -1, self.case_id, None]
            stack.append(len(spans))
            spans.append(row)
            row[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                row[2] = clock()
                stack.pop()
            if counter is not None:
                row[5] = counter(args, kwargs, result)
            return result

        return timed

    def install(self, package) -> None:
        """Wrap every public function and listed method of the package's
        modules wherever a module holds it by name."""
        modules = {m: getattr(package, m) for m in MODULES}
        targets: dict[object, str] = {}  # original function -> span name
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    targets[obj] = f"{short}.{attr}"
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                name = targets.get(obj) if inspect.isfunction(obj) else None
                if name is None or name in UNWRAPPED:
                    continue
                counter = NAMESPACE_COUNTERS.get((short, name), COUNTERS.get(name))
                self._patch(mod, attr, self._wrap(name, obj, counter))
            for cls_name in CLASSES.get(short, ()):
                cls = getattr(mod, cls_name)
                for attr, obj in list(vars(cls).items()):
                    if inspect.isfunction(obj) and not attr.startswith("_"):
                        name = f"{short}.{cls_name}.{attr}"
                        self._patch(cls, attr, self._wrap(name, obj, COUNTERS.get(name)))

    def _patch(self, owner, attr: str, new) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patched):
            setattr(owner, attr, old)
        self._patched.clear()

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, t0, t1, parent, case, counts) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start_ns": t0, "end_ns": t1,
                                     "parent": parent, "case": case, "counts": counts}) + "\n")


def _case_rows(spans: list[list]) -> list[dict]:
    """Per run_case span: self time per span name (ns), counts, coverage."""
    n = len(spans)
    child_ns = [0] * n
    root = [-1] * n
    for i, (name, t0, t1, parent, _, _) in enumerate(spans):
        if parent >= 0:
            child_ns[parent] += t1 - t0
            root[i] = root[parent]
        elif name == "harness.run_case":
            root[i] = i
    rows: dict[int, dict] = {}
    for i, (name, t0, t1, parent, case, counts) in enumerate(spans):
        r = root[i]
        if r < 0:
            continue
        if r == i:
            dur = t1 - t0
            rows[i] = {"case": case, "self_ns": {}, "counts": {}, "n": {},
                       "dur_ns": dur, "child_ns": child_ns[i]}
        row = rows[r]
        row["self_ns"][name] = row["self_ns"].get(name, 0) + (t1 - t0 - child_ns[i])
        row["n"][name] = row["n"].get(name, 0) + 1
        if name == "validation.audit" and spans[parent][0] == "perception.orchestrate":
            row["n"]["turns"] = row["n"].get("turns", 0) + 1
        for key, value in (counts or {}).items():
            c = row["counts"]
            if key in ("dofs", "records", "budgeted_dofs", "index_dofs"):
                c[key] = max(c.get(key, 0), value)
            else:
                c[key] = c.get(key, 0) + value
        if name == "solver.assemble":
            _add_dense(row["counts"], 2, counts["dofs"])  # K and M
        elif name == "solver.optimize_topology":
            # one dense stiffness per OC solve, sized by the dof index it built
            n_dofs = next(spans[j][5]["index_dofs"] for j in range(i + 1, len(spans))
                          if spans[j][0] == "solver.build_dof_index" and spans[j][3] == i)
            _add_dense(row["counts"], counts["oc_solves"], n_dofs)
    return list(rows.values())


def _add_dense(counts: dict, matrices: int, n: int) -> None:
    counts["assemblies"] = counts.get("assemblies", 0) + matrices
    counts["dense_bytes"] = counts.get("dense_bytes", 0) + matrices * 8 * n * n


def _case_metrics(row: dict) -> dict[str, float]:
    """The per-layer metrics of one repetition of one case."""
    out = {metric: row["self_ns"].get(span, 0) / 1e6 for metric, span in SELF_TIMES.items()}
    c, n = row["counts"], row["n"]
    attempts = c.get("attempts", 0)
    out.update({
        "perception.segments": c.get("segments", 0),
        "perception.endpoints": c.get("endpoints", 0),
        "perception.clusters": c.get("clusters", 0),
        "perception.turns": n.get("turns", 0),
        "validation.findings": c.get("findings", 0),
        "solver.dofs": c.get("dofs", 0),
        "solver.assemblies": c.get("assemblies", 0),
        "solver.dense_bytes": c.get("dense_bytes", 0),
        "solver.oc_iterations": c.get("oc_iterations", 0),
        "simscript.statements": c.get("statements", 0),
        "simscript.violations": c.get("violations", 0),
        "sandbox.executions": n.get("sandbox.execute", 0),
        "sandbox.results_bytes": c.get("results_bytes", 0),
        "sandbox.budgeted_dofs": c.get("budgeted_dofs", 0),
        "memory.records": c.get("records", 0),
        "memory.retrievals": n.get("memory.ExperienceBuffer.retrieve", 0),
        "synthesis.attempts": attempts,
        "synthesis.fallbacks": c.get("fallbacks", 0),
        "synthesis.verified": int(attempts > 0),  # synthesize returned verified results
    })
    return out


def layer_metrics(spans: list[list]) -> tuple[dict[str, float], float]:
    """Per-layer metrics, and the lowest share of a case's run_case time
    that its child spans cover, over all repetitions of that case. A self
    time is the median over a case's repetitions and a count the mean; both
    are then averaged over the workload's distinct cases."""
    per_case: dict[str, list[dict[str, float]]] = {}
    covered: dict[str, list[int]] = {}
    for row in _case_rows(spans):
        per_case.setdefault(row["case"], []).append(_case_metrics(row))
        acc = covered.setdefault(row["case"], [0, 0])
        acc[0] += row["child_ns"]
        acc[1] += row["dur_ns"]
    per_case_values = [
        {k: (statistics.median if k in SELF_TIMES else statistics.fmean)([r[k] for r in reps])
         for k in reps[0]}
        for reps in per_case.values()]
    out = {k: statistics.fmean(m[k] for m in per_case_values) for k in per_case_values[0]}
    verified, attempts = out.pop("synthesis.verified"), out["synthesis.attempts"]
    out["synthesis.verified_per_attempt"] = verified / attempts if attempts else 0.0
    coverage = min(child / dur for child, dur in covered.values())
    return out, coverage

#!/usr/bin/env python3
"""vfea benchmark: one closed-loop client driving ``harness.run_case``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (BENCHMARK.json lists the gated ones and why each was chosen):
  grid_static  generated truss grids of 231-861 nodes, static analysis
  frame_modal  generated multi-storey frames of 1143-2187 refined dofs, modal
  repair       the bundled cases under faulty generators, with a replay
               buffer pre-filled with 5000 records
  suite        the 15 bundled cases, perfect generator, empty replay buffer
repair and suite are not in BENCHMARK.json: their run-to-run spread on a
shared two-core host exceeded the largest bound allowed, and leaving them
out gives the listed workloads longer runs in the same total time. They
run the same way and report the same metrics when asked for.

Each pass runs every case of the workload once, in a seeded order, with a
fresh workspace root and memory file under perfbench/.work; passes repeat
until S seconds of cases have run. Every case is checked: verified results,
perception score 1.0, and solver highlights within tolerance of independent
references (reference.py). With --trace 0 the last stdout line carries the
end-to-end metrics; with --trace 1 untraced and traced passes (tracing.py)
alternate, S is split between them, and the line carries the per-layer
metrics and the tracing overhead. A result file, and the spans of a traced
run, are written under perfbench/results.

Exit 0 when every case is correct, 1 when any is not, 2 when the program
cannot be loaded.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("suite", "grid_static", "frame_modal", "repair")
SETUP_PROBES = 2          # cold set-ups in child processes, besides this process's own
P90_MIN_CASES = 100       # so that at least ten samples lie beyond p90
MAX_RUN_S = 150.0         # start no pass after this, to exit well within 180 s
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Printed in this order; the ones BENCHMARK.json lists go on the result line.
E2E_UNITS = {"cases_per_s": "1/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms",
             "failed_ratio": "ratio", "verified_ratio": "ratio", "score_overall": "score",
             "setup_s": "s", "peak_rss_mb": "MB"}


def cap_blas_threads() -> int:
    """Cap BLAS threads at the usable core count; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_ENV:
        cur = os.environ.get(var, "")
        os.environ[var] = str(min(int(cur), nproc) if cur.isdigit() and int(cur) > 0 else nproc)
    return nproc


def import_program():
    """Import vfea from this checkout's src/; None when it is not there."""
    src = ROOT / "src"
    if not (src / "vfea" / "harness.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import vfea
    import vfea.harness
    import vfea.memory
    return vfea


class Deck:
    """The cases of one workload and what each must produce. With
    ``generate`` the inputs are written to ``work``; without, the ones
    already there are used."""

    def __init__(self, workload: str, work: Path, seed: int, generate: bool):
        import reference
        import workloads

        self.expected: dict[str, dict[str, tuple[float, float]]] = {}
        self.buffer_template: Path | None = None
        self.generators: tuple[str, ...] = ("perfect",)
        if workload in ("suite", "repair"):
            self.case_dirs = sorted(p.parent for p in (ROOT / "cases").glob("*/case.json"))
            self.warmup_dir = ROOT / "cases" / "frame_cantilever"
            if generate:
                self.expected = reference.load_suite_reference()
            if workload == "repair":
                self.generators = workloads.REPAIR_ROTATION
                self.buffer_template = work / "buffer.template.jsonl"
                if generate:
                    workloads.prefill_buffer(self.buffer_template, seed)
            return
        if generate:
            for case_dir, truth in workloads.write_deck(work / "cases", workload, seed):
                self.expected[case_dir.name] = {
                    k: (v, reference.REL_TOL) for k, v in reference.highlights(truth).items()}
            workloads.write_deck(work / "warmup", workload, seed, warmup=True)
        self.case_dirs = sorted((work / "cases").iterdir())
        self.warmup_dir = next((work / "warmup").iterdir())


def fresh_state(vfea, deck: Deck, work: Path, tag: str):
    """A new workspace root and replay buffer (empty, or the pre-filled
    records) under ``work``. Nothing is deleted until the run ends: on a
    filesystem mounted with online discard, deleting files slows the writes
    that follow, which would put the benchmark's clean-up into the
    program's latency."""
    memory = work / f"memory-{tag}.jsonl"
    if deck.buffer_template is not None:
        shutil.copyfile(deck.buffer_template, memory)
    return work / "workspaces" / tag, memory, vfea.memory.ExperienceBuffer(memory)


def set_up(vfea, deck: Deck, work: Path, tag: str) -> tuple[list, float]:
    """Load the cases and the buffer, and run one small case of the workload's
    kind up to and through its first factorisation or eigen solve."""
    t0 = time.perf_counter()
    specs = [vfea.harness.load_case(d) for d in deck.case_dirs]
    warm_spec = vfea.harness.load_case(deck.warmup_dir)
    ws_root, memory, buffer = fresh_state(vfea, deck, work, tag)
    config = vfea.harness.RunConfig(generator_spec=deck.generators[0],
                                    workspace_root=ws_root, memory_path=memory)
    report = vfea.harness.run_case(warm_spec, config, buffer)
    if report.error is not None or not report.metrics.execution_success:
        raise RuntimeError(f"warm-up case {warm_spec.case_id} failed: {report.error}")
    return specs, time.perf_counter() - t0


def probe_setup(args, work: Path) -> float:
    """Set-up time of a cold process on the inputs already written to ``work``."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--probe", str(work)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def check(report, expected: dict[str, tuple[float, float]]) -> str | None:
    """None when the case is correct, else why it failed."""
    import reference

    if report.error is not None:
        return report.error
    if not report.metrics.execution_success:
        return "results not verified"
    if report.metrics.overall is None or report.metrics.overall < 1.0:
        return f"perception overall {report.metrics.overall}"
    return reference.check_highlights(report.highlights, expected)


class Sample:
    """Latencies, scores and wall time of the passes run on one side."""

    def __init__(self):
        self.latencies: list[float] = []
        self.scores: list[float] = []
        self.by_case: dict[str, list[float]] = {}
        self.passes: list[float] = []
        self.wall = 0.0

    def add(self, cases: list[str], latencies: list[float], scores: list[float], wall: float):
        self.latencies += latencies
        self.scores += scores
        for case, lat in zip(cases, latencies):
            self.by_case.setdefault(case, []).append(lat)
        self.passes.append(wall)
        self.wall += wall

    def summary(self) -> dict:
        n = len(self.latencies)
        return {
            "cases_per_s": n / self.wall,
            "latency_p50_ms": statistics.median(self.latencies) * 1e3,
            "latency_p90_ms": (statistics.quantiles(self.latencies, n=10)[-1] * 1e3
                               if n >= P90_MIN_CASES else None),
            "score_overall": statistics.fmean(self.scores),
        }


class Runner:
    def __init__(self, vfea, deck: Deck, specs: list, work: Path, seed: int):
        self.vfea, self.deck, self.specs, self.work = vfea, deck, specs, work
        self.rng = random.Random(f"{seed}:order")
        self.passes = 0
        self.failures: list[str] = []

    def run_pass(self, tracer=None) -> tuple[list[str], list[float], list[float], float]:
        """One pass over every case; returns case ids, latencies (s), overall
        scores and the pass wall time."""
        harness = self.vfea.harness
        ws_root, memory, buffer = fresh_state(self.vfea, self.deck, self.work,
                                              f"pass{self.passes}")
        order = list(range(len(self.specs)))
        self.rng.shuffle(order)
        gens = self.deck.generators
        configs = {g: harness.RunConfig(generator_spec=g, workspace_root=ws_root,
                                        memory_path=memory) for g in gens}
        cases, latencies, scores = [], [], []
        start = time.perf_counter()
        for i in order:
            spec = self.specs[i]
            config = configs[gens[(i + self.passes) % len(gens)]]
            if tracer is not None:
                tracer.case_id = spec.case_id
            t0 = time.perf_counter()
            try:
                report = harness.run_case(spec, config, buffer)
            except Exception as exc:  # a crash fails this case; the loop goes on
                report, problem = None, f"raised {type(exc).__name__}: {exc}"
            latencies.append(time.perf_counter() - t0)
            cases.append(spec.case_id)
            if report is not None:
                problem = check(report, self.deck.expected[spec.case_id])
            scores.append((report.metrics.overall or 0.0) if report is not None else 0.0)
            if problem is not None:
                self.failures.append(f"{spec.case_id} ({config.generator_spec}): {problem}")
        wall = time.perf_counter() - start
        self.passes += 1
        return cases, latencies, scores, wall


def steal_s() -> float:
    """CPU time the hypervisor gave to others, summed over this machine's CPUs."""
    with open("/proc/stat", encoding="utf-8") as fh:
        return int(fh.readline().split()[8]) / os.sysconf("SC_CLK_TCK")


def blas_info() -> dict:
    """OpenBLAS builds and thread counts of the libraries loaded in this process."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln})
    out = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        entry = {}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and config is not None:
                    config.restype = ctypes.c_char_p
                    entry = {"threads": int(threads()), "config": config().decode()}
        out[Path(path).name] = entry
    return out


def environment(seed: int, nproc: int) -> dict:
    import numpy
    import scipy

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = None  # the checkout is not a git repository
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    return {
        "machine": platform.machine(), "cpu": cpu, "platform": platform.platform(),
        "cores": os.cpu_count(), "usable_cores": nproc,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas_info(),
        "blas_thread_cap": {v: os.environ[v] for v in BLAS_ENV},
        "git_sha": sha, "seed": seed,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", type=Path, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    nproc = cap_blas_threads()
    t0 = time.perf_counter()
    vfea = import_program()
    if vfea is None:
        print(f"error: no vfea sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t0

    if args.probe is not None:
        deck = Deck(args.workload, args.probe, args.seed, generate=False)
        _, setup_s = set_up(vfea, deck, args.probe, f"probe{os.getpid()}")
        print(import_s + setup_s)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    (HERE / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=HERE / ".work"))
    try:
        return run(args, spec, vfea, work, nproc, import_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        # Commit the deletions now, so they do not slow the next run's writes.
        fd = os.open(HERE / ".work", os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


def run(args, spec: dict, vfea, work: Path, nproc: int, import_s: float) -> int:
    import tracing

    started = time.perf_counter()
    deck = Deck(args.workload, work, args.seed, generate=True)
    generate_s = time.perf_counter() - started
    specs, setup_here = set_up(vfea, deck, work, "setup")
    setups = [import_s + setup_here] + [probe_setup(args, work) for _ in range(SETUP_PROBES)]

    runner = Runner(vfea, deck, specs, work, args.seed)
    tracer = tracing.Tracer() if args.trace else None
    sides = {"untraced": Sample()} | ({"traced": Sample()} if tracer else {})
    budget = args.seconds / len(sides)
    steal0 = steal_s()
    while time.perf_counter() - started < MAX_RUN_S:
        side = min(sides, key=lambda k: sides[k].wall)
        if runner.passes and sides[side].wall >= budget:
            break
        if side == "traced":
            tracer.install(vfea)
        try:
            sides[side].add(*runner.run_pass(tracer if side == "traced" else None))
        finally:
            if side == "traced":
                tracer.uninstall()
    steal = steal_s() - steal0

    untraced = sides["untraced"]
    attempted = sum(len(s.latencies) for s in sides.values())
    failed = len(runner.failures)
    values = untraced.summary() | {
        "failed_ratio": failed / attempted,
        "verified_ratio": 1 - failed / attempted,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    result = {
        "workload": args.workload,
        "why": next((w["why"] for w in spec["workloads"] if w["name"] == args.workload), None),
        "environment": environment(args.seed, nproc),
        "seconds": args.seconds, "host_steal_s": steal,
        "generate_s": generate_s, "setup_samples_s": setups,
        "pass_wall_s": untraced.passes,
        "case_latency_ms": {case: statistics.median(v) * 1e3
                            for case, v in sorted(untraced.by_case.items())},
        "end_to_end": {k: {"value": values[k], "unit": u} for k, u in E2E_UNITS.items()},
        "failures": runner.failures[:20],
    }

    print(f"workload {args.workload}  seed {args.seed}  passes {runner.passes}  "
          f"cases {attempted}  failed {failed}")
    for name, unit in E2E_UNITS.items():
        value = values[name]
        shown = f"{value:.6g}" if value is not None else f"n/a (fewer than {P90_MIN_CASES} cases)"
        print(f"  {name:<16} {shown} {unit}")
    for line in runner.failures[:10]:
        print(f"  FAILED {line}", file=sys.stderr)

    if tracer is not None:
        layers, coverage = tracing.layer_metrics(tracer.spans)
        traced = sides["traced"].summary()["cases_per_s"]
        values |= layers | {
            "trace.coverage_min": coverage,
            "trace.untraced_cases_per_s": values["cases_per_s"],
            "trace.traced_cases_per_s": traced,
            "trace.overhead_pct": (values["cases_per_s"] / traced - 1) * 100,
        }
        # This checks the instrumentation, not the program's outputs, so it
        # is reported and does not decide ``correct``.
        result["trace_coverage_check"] = "pass" if coverage >= tracing.MIN_COVERAGE else "fail"
        if coverage < tracing.MIN_COVERAGE:
            print(f"  WARNING trace: child spans cover only {coverage:.3f} of some case's "
                  f"run_case time (< {tracing.MIN_COVERAGE})", file=sys.stderr)
        result["per_layer"] = {m["name"]: values[m["name"]] for m in spec["per_layer"]}
        print("  per layer:")
        for m in spec["per_layer"]:
            print(f"    {m['name']:<36} {values[m['name']]:.6g} {m['unit']}")

    results_dir = HERE / "results"
    results_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results_dir / f"{stem}.json").write_text(json.dumps(result, indent=2) + "\n",
                                              encoding="utf-8")
    if tracer is not None:
        tracer.write(results_dir / f"{stem}.spans.jsonl")

    reported = spec["per_layer" if tracer else "end_to_end"]
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                                  for m in reported}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

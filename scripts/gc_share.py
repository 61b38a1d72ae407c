#!/usr/bin/env python3
"""Measure the cyclic garbage collector's share of case time.

Usage: python scripts/gc_share.py --workload W --seed N [--seconds S]

Writes the cases of benchmark workload W (grid_static or frame_modal) for
seed N with perfbench/workloads.write_deck, into a temporary directory, and
runs them through harness.run_case, pass after pass in case order, until
S seconds of cases have run. A ``gc.callbacks`` hook times every
collection in that span, inside run_case or between cases. Prints, per
generation, the collections, their seconds and the objects they freed,
and the collector's share of the case time.

The benchmark's per-layer trace cannot show this time: a collection is
charged to whichever span happens to be open when it starts.
"""

from __future__ import annotations

import argparse
import gc
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402
from vfea.harness import RunConfig, load_case, run_case  # noqa: E402
from vfea.memory import ExperienceBuffer  # noqa: E402


class CollectionTimer:
    """Collections, seconds and freed objects per generation, from the
    ``gc.callbacks`` start and stop events."""

    def __init__(self):
        self.count = [0, 0, 0]
        self.seconds = [0.0, 0.0, 0.0]
        self.freed = [0, 0, 0]
        self._started = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
            return
        generation = info["generation"]
        self.count[generation] += 1
        self.seconds[generation] += time.perf_counter() - self._started
        self.freed[generation] += info["collected"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("grid_static", "frame_modal"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="vfea-gc-share-") as scratch:
        work = Path(scratch)
        cases = [load_case(case_dir) for case_dir, _ in
                 workloads.write_deck(work / "cases", args.workload, args.seed)]
        timer = CollectionTimer()
        passes, case_s = 0, 0.0
        gc.callbacks.append(timer)
        try:
            while case_s < args.seconds:
                config = RunConfig(workspace_root=work / "workspaces" / str(passes),
                                   memory_path=work / f"memory-{passes}.jsonl")
                buffer = ExperienceBuffer(config.memory_path)
                started = time.perf_counter()
                for case in cases:
                    report = run_case(case, config, buffer)
                    if report.error is not None:
                        print(f"case {case.case_id} failed: {report.error}", file=sys.stderr)
                        return 1
                case_s += time.perf_counter() - started
                passes += 1
        finally:
            gc.callbacks.remove(timer)

    print(f"{args.workload} seed {args.seed}: {passes} passes of {len(cases)} cases, "
          f"{case_s:.2f} s of case time")
    for generation in range(3):
        print(f"  generation {generation}: {timer.count[generation]:6d} collections "
              f"{timer.seconds[generation]:8.3f} s  {timer.freed[generation]:8d} objects freed")
    total = sum(timer.seconds)
    print(f"  collector: {total:.3f} s, {100 * total / case_s:.2f}% of case time")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run the benchmark on two checkouts in alternating pairs and compare them.

Usage: python scripts/bench_pairs.py PARENT CHANGE --workload W
           --seeds N [N ...] [--seconds S] [--trace]

Pair k runs ``python3 perfbench/run.py --workload W --seed N_k --seconds S
--trace 0`` once in each checkout, each in its own directory, the parent
first in even pairs and the change first in odd ones. Each run's
end-to-end metrics are printed as it finishes. At the end, for every
end-to-end metric that BENCHMARK.json lists, each side's median and
quartiles, and the number of pairs the change won (ties count for
neither). A gain holds when the change wins at least nine tenths of the
pairs and the medians differ by more than the parent's interquartile
range. The no-regression verdict weighs each metric against its bound in
BENCHMARK.json, a fraction of the parent's median: `within` when the
change's median is not worse than the parent's by more than the bound,
`worse` when it is, and `unresolved` when the parent's interquartile range
is wider than the bound, unless every change run beats every parent run.
Nothing is edited: the benchmark runs as each checkout has it.

With --trace, each run is ``--trace 1`` instead, whose last line carries
the per-layer metrics that BENCHMARK.json lists. The comparison is then
each side's median of every per-layer metric and the change's median
minus the parent's, which shows the layers a change moved.

Exit 0 when every run reported correct results, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_once(checkout: Path, workload: str, seed: int, seconds: float,
             trace: bool = False) -> dict | None:
    """The metrics of the last stdout line of one benchmark run, or None
    when it failed."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", "1" if trace else "0"],
                          cwd=checkout, capture_output=True, text=True, check=False)
    try:
        line = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        line = None
    if proc.returncode != 0 or line is None or not line["correct"]:
        print(f"  run failed in {checkout} (exit {proc.returncode}): "
              f"{proc.stderr.strip()[-500:]}", file=sys.stderr)
        return None
    return {name: m["value"] for name, m in line["metrics"].items()}


def quartiles(values: list[float]) -> list[float]:
    """First quartile, median and third quartile; one value is all three."""
    if len(values) < 2:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def verdict(values: dict[str, list[float]], up: bool, bound: float) -> str:
    """The no-regression verdict of one metric over the runs of each side."""
    (pq1, pmed, pq3), (_, cmed, _) = (quartiles(values[s]) for s in ("parent", "change"))
    allowed = bound * abs(pmed)
    sign = 1 if up else -1
    worst_change = min(values["change"], key=lambda v: sign * v)
    best_parent = max(values["parent"], key=lambda v: sign * v)
    if pq3 - pq1 > allowed and sign * (worst_change - best_parent) <= 0:
        return "unresolved"
    return "worse" if sign * (pmed - cmed) > allowed else "within"


def layer_table(pairs: list[dict[str, dict]], names: list[str]) -> None:
    """Each side's median of every per-layer metric, and their difference."""
    print(f"{'per-layer metric':<38} {'parent':>12} {'change':>12} {'change - parent':>16}")
    for name in names:
        pmed, cmed = (statistics.median(p[side][name] for p in pairs)
                      for side in ("parent", "change"))
        print(f"{name:<38} {pmed:>12.6g} {cmed:>12.6g} {cmed - pmed:>+16.6g}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", action="store_true",
                        help="run with --trace 1 and compare the per-layer metrics")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    higher = {m["name"]: m["better"] == "higher"
              for m in spec["per_layer" if args.trace else "end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    shown = ("trace.untraced_cases_per_s", "trace.coverage_min") if args.trace else higher
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    pairs: list[dict[str, dict]] = []
    ok = True
    for k, seed in enumerate(args.seeds):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        pair = {}
        for side in order:
            metrics = run_once(sides[side], args.workload, seed, args.seconds, args.trace)
            ok &= metrics is not None
            if metrics is not None:
                pair[side] = metrics
                print(f"pair {k} seed {seed} {side}: " + "  ".join(
                    f"{name} {metrics[name]:.6g}" for name in shown if name in metrics),
                    flush=True)
        if len(pair) == 2:
            pairs.append(pair)

    print(f"\n{args.workload}: {len(pairs)} complete pairs, {args.seconds:g} s per run, "
          f"parent {sides['parent']}, change {sides['change']}")
    if args.trace:
        if pairs:
            layer_table(pairs, list(higher))
        return 0 if ok else 1
    print(f"{'metric':<16} {'parent median [q1, q3]':>32} {'change median [q1, q3]':>32} "
          f"{'wins':>6}  gain  vs bound")
    for name, up in higher.items():
        if not pairs:
            break
        values = {side: [p[side][name] for p in pairs] for side in sides}
        (pq1, pmed, pq3), (cq1, cmed, cq3) = (quartiles(values[s]) for s in sides)
        sign = 1 if up else -1
        wins = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
        gain = wins >= 0.9 * len(pairs) and sign * (cmed - pmed) > pq3 - pq1
        print(f"{name:<16} {f'{pmed:.6g} [{pq1:.6g}, {pq3:.6g}]':>32} "
              f"{f'{cmed:.6g} [{cq1:.6g}, {cq3:.6g}]':>32} {f'{wins}/{len(pairs)}':>6}  "
              f"{'yes' if gain else 'no':<4}  {verdict(values, up, bounds[name])}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Reliability experiment: run the bundled suite against every generator
variant and print the recovery matrix (success rate, retry counts, fallback
activation, and the failed cases counted by the stage and kind of their
failure). This is the scaled-down analogue of the execution-robustness
comparison the harness was built for.

Usage: python scripts/fault_matrix.py [--suite cases] [--out DIR]
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from vfea.harness import RunConfig, emit_report, load_suite, run_suite  # noqa: E402

VARIANTS = [
    ("perfect", "perfect", True),
    ("faulty type I", "faulty:type_i", True),
    ("faulty type II", "faulty:type_ii", True),
    ("faulty type III", "faulty:type_iii", True),
    ("stubborn + handover", "faulty:type_ii:stubborn", True),
    ("stubborn, no handover", "faulty:type_ii:stubborn", False),
]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--suite", type=Path,
                        default=Path(__file__).resolve().parents[1] / "cases")
    parser.add_argument("--out", type=Path, default=None,
                        help="also write per-variant summaries here")
    args = parser.parse_args()

    cases = load_suite(args.suite)
    print(f"{len(cases)} cases from {args.suite}\n")
    print(f"{'generator':<24}{'success':>9}{'fallback':>10}{'max k':>7}{'time':>8}  failures")
    with tempfile.TemporaryDirectory(prefix="vfea-matrix-") as scratch:
        scratch = Path(scratch)
        for i, (label, spec, fallback) in enumerate(VARIANTS):
            config = RunConfig(generator_spec=spec, fallback_enabled=fallback,
                               memory_path=scratch / f"mem-{i}.jsonl",
                               workspace_root=scratch / f"ws-{i}")
            start = time.monotonic()
            summary = run_suite(cases, config)
            elapsed = time.monotonic() - start
            retries = [r.trace.retry_count for r in summary.reports
                       if r.trace.retry_count is not None]
            max_k = max(retries) if retries else "-"
            failures = ", ".join(f"{key} {n}" for key, n in summary.failure_counts.items())
            print(f"{label:<24}{summary.execution_success_rate:>9.0%}"
                  f"{summary.fallback_activation_rate:>10.0%}{max_k!s:>7}"
                  f"{elapsed:>7.2f}s  {failures or '-'}")
            if args.out is not None:
                args.out.mkdir(parents=True, exist_ok=True)
                name = label.replace(" ", "_").replace(",", "").replace("+", "and")
                (args.out / f"{name}.md").write_text(emit_report(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

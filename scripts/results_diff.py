#!/usr/bin/env python3
"""Compare the results documents two checkouts compute, field by field.

Usage: python scripts/results_diff.py PARENT CHANGE [--seed N ...]
           [--tolerance T]

Inputs are the bundled cases under cases/ of this checkout, plus the
grid_static and frame_modal decks that perfbench/workloads.write_deck
generates for each seed (default: 1), written once and read by both sides.
Each checkout runs every case through run_case, in process, in its own
subprocess that imports vfea from that checkout's src/. For each results
field (`displacements`, `frequencies_hz`, `mode_shapes`, ...) the script
prints the largest difference between the two sides over all cases,
relative to the field's largest magnitude in the parent's document of the
same case, and the case where it occurs. `equilibrium_residual` is a
rounding error already divided by the load norm, so its difference is
printed as it is. A field or case whose structure or text differs (other
keys, counts or `note`) counts as an infinite difference.

Exit 0 when every difference is within the tolerance (default 1e-9),
1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

# Fields compared by their plain difference, not one relative to their size.
ABSOLUTE = {"equilibrium_residual"}

# Run in each checkout: every case directory named on the command line
# through run_case, printing for each the results document of each of its
# workspaces.
CHILD = """
import json, sys, tempfile
from pathlib import Path
from vfea.harness import RunConfig, load_case, run_case

out = []
with tempfile.TemporaryDirectory(prefix="vfea-results-") as scratch:
    for k, case_dir in enumerate(sys.argv[1:]):
        root = Path(scratch) / str(k)
        run_case(load_case(case_dir), RunConfig(workspace_root=root))
        out.append([json.loads(p.read_text(encoding="utf-8"))
                    for p in sorted(root.glob("*/results.res"))])
print(json.dumps(out))
"""


def results(checkout: Path, case_dirs: list[Path]) -> list[list[dict]]:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(checkout / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", CHILD, *map(str, case_dirs)], cwd=checkout,
                          env=env, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.exit(f"{checkout}: exit {proc.returncode}\n{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout)


def numbers(value) -> list[float] | None:
    """The numbers of a results value in document order, or None for text."""
    if isinstance(value, (bool, str)) or value is None:
        return None
    if isinstance(value, (int, float)):
        return [float(value)]
    items = (value[k] for k in sorted(value)) if isinstance(value, dict) else value
    out: list[float] = []
    for item in items:
        part = numbers(item)
        if part is None:
            return None
        out += part
    return out


def shape(value):
    """The value with every number replaced by 0, to compare structure."""
    if isinstance(value, dict):
        return {k: shape(v) for k, v in value.items()}
    if isinstance(value, list):
        return [shape(v) for v in value]
    return 0 if isinstance(value, (int, float)) and not isinstance(value, bool) else value


def field_difference(field: str, a, b) -> float:
    if shape(a) != shape(b):
        return math.inf
    xs, ys = numbers(a), numbers(b)
    if xs is None:  # text fields compare equal or not at all
        return 0.0 if a == b else math.inf
    diff = max((abs(x - y) for x, y in zip(xs, ys)), default=0.0)
    if field in ABSOLUTE:
        return diff
    scale = max(map(abs, xs), default=0.0)
    return diff / scale if scale > 0 else diff


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--seed", type=int, action="append", default=None,
                        help="deck seed (repeatable; default 1)")
    parser.add_argument("--tolerance", type=float, default=1e-9)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="vfea-decks-") as scratch:
        case_dirs = sorted(p for p in (ROOT / "cases").iterdir() if (p / "case.json").exists())
        for seed in args.seed or [1]:
            for workload in ("grid_static", "frame_modal"):
                case_dirs += [d for d, _ in workloads.write_deck(
                    Path(scratch) / f"{workload}-{seed}", workload, seed)]
        parent, change = (results(checkout.resolve(), case_dirs)
                          for checkout in (args.parent, args.change))
        labels = [f"{d.parent.name}/{d.name}" for d in case_dirs]

    worst: dict[str, tuple[float, str]] = {}
    for label, parent_docs, change_docs in zip(labels, parent, change):
        pairs = [("workspaces", len(parent_docs), len(change_docs))]
        pairs += [(f, p.get(f), c.get(f)) for p, c in zip(parent_docs, change_docs)
                  for f in sorted(p.keys() | c.keys())]
        for field, a, b in pairs:
            d = field_difference(field, a, b)
            if d >= worst.get(field, (-1.0, ""))[0]:
                worst[field] = (d, label)

    print(f"{len(labels)} cases, parent {args.parent.resolve()}, change {args.change.resolve()}")
    print(f"{'field':<24} {'largest difference':>20}  case")
    for field, (d, label) in sorted(worst.items()):
        print(f"{field:<24} {d:>20.3e}  {label}")
    return 0 if all(d <= args.tolerance for d, _ in worst.values()) else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Print one sha256 per artifact family the pipeline produces, so that two
checkouts can be compared byte for byte by running this on each.

Usage: python scripts/output_digest.py [--seed N ...]

Inputs are the bundled cases under cases/, plus the grid_static and
frame_modal decks that perfbench/workloads.write_deck generates for each
seed (default: 1). Families:

  ir              serialize(orchestrate(drawing, context)) per case
  script          lower_ir of the perceived model per case
  script.sim      the executed script, through run_case, in process
  run.log         the run log, through run_case, in process
  results         results documents after json.loads, in process
  *[subprocess]   the same three in subprocess mode, bundled cases only
  bench:GEN       `vfea bench` markdown, per-case reports and summary.json
                  over the bundled cases, for the perfect generator and
                  every faulty:* generator
  memory:GEN      the replay-buffer lines that bench run writes (--memory),
                  each without its created_at time stamp

A family's digest covers its artifacts in case order, each one framed by
its length, so a moved byte cannot cancel out.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402
from vfea import cli  # noqa: E402
from vfea.harness import RunConfig, load_case, load_suite, run_case  # noqa: E402
from vfea.ir import serialize  # noqa: E402
from vfea.perception import orchestrate  # noqa: E402
from vfea.simscript import lower_ir  # noqa: E402

GENERATORS = ("perfect",
              *(f"faulty:{kind}{tail}" for tail in ("", ":stubborn")
                for kind in ("type_i", "type_ii", "type_iii")))


class Digests:
    """One running sha256 and artifact count per family."""

    def __init__(self):
        self.hashes = {}
        self.counts = Counter()

    def add(self, family: str, data: str | bytes) -> None:
        if isinstance(data, str):
            data = data.encode("utf-8")
        h = self.hashes.setdefault(family, hashlib.sha256())
        h.update(len(data).to_bytes(8, "big"))
        h.update(data)
        self.counts[family] += 1

    def lines(self) -> list[str]:
        return [f"{h.hexdigest()}  {self.counts[family]:>4}  {family}"
                for family, h in self.hashes.items()]


def run_artifacts(digests: Digests, case, work: Path, mode: str) -> None:
    """Run one case through run_case and add every workspace's script, log
    and results document."""
    suffix = "" if mode == "inprocess" else f"[{mode}]"
    ws_root = Path(tempfile.mkdtemp(prefix=f"{case.case_id}-{mode}-", dir=work))
    report = run_case(case, RunConfig(workspace_root=ws_root, execution_mode=mode))
    if report.error is not None:
        digests.add(f"error{suffix}", f"{case.case_id}: {report.error}")
    for ws in sorted(ws_root.iterdir()):
        digests.add(f"script.sim{suffix}", (ws / "script.sim").read_bytes())
        digests.add(f"run.log{suffix}", (ws / "run.log").read_bytes())
        results = ws / "results.res"
        if results.exists():
            doc = json.loads(results.read_text(encoding="utf-8"))
            digests.add(f"results{suffix}", json.dumps(doc, sort_keys=True))


def bench_artifacts(digests: Digests, suite: Path, work: Path, generator: str) -> None:
    out = work / f"bench-{generator.replace(':', '_')}"
    memory = work / f"memory-{generator.replace(':', '_')}.jsonl"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(["bench", "--suite", str(suite), "--out", str(out),
                         "--generator", generator, "--memory", str(memory)])
    family = f"bench:{generator}"
    digests.add(family, f"exit {code}\n{stdout.getvalue()}")
    for path in sorted(p for p in out.iterdir() if p.is_file()):  # reports, not workspaces
        digests.add(family, path.name + "\n" + path.read_text(encoding="utf-8"))
    for line in memory.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        del record["created_at"]  # wall-clock time of the run
        digests.add(f"memory:{generator}", json.dumps(record, sort_keys=True))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, action="append", default=None,
                        help="deck seed (repeatable; default 1)")
    args = parser.parse_args()
    seeds = args.seed or [1]
    # the sandbox child of subprocess mode imports vfea from this checkout too
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])

    digests = Digests()
    with tempfile.TemporaryDirectory(prefix="vfea-digest-") as scratch:
        work = Path(scratch)
        bundled = load_suite(ROOT / "cases")
        generated = []
        for seed in seeds:
            for workload in ("grid_static", "frame_modal"):
                deck = work / "decks" / f"{workload}-{seed}"
                generated += [load_case(case_dir) for case_dir, _ in
                              workloads.write_deck(deck, workload, seed)]
        for case in bundled + generated:
            model = orchestrate(case.drawing_path.read_text(encoding="utf-8"),
                                case.context_path.read_text(encoding="utf-8"))
            digests.add("ir", serialize(model))
            digests.add("script", lower_ir(model))
            run_artifacts(digests, case, work, "inprocess")
        for case in bundled:
            run_artifacts(digests, case, work, "subprocess")
        for generator in GENERATORS:
            bench_artifacts(digests, ROOT / "cases", work, generator)
    print(f"# seeds {' '.join(map(str, seeds))}")
    print("\n".join(digests.lines()))
    return 0


if __name__ == "__main__":
    sys.exit(main())

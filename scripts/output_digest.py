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
  run.log[hand]   the run logs of hand-written variants of one bundled
                  case's lowered script (comments, runs of spaces, fix dofs
                  in another order, CRLF line ends), in both modes
  run.log[modes]  the run logs of one small truss grid's script ending in
                  each analyze variant of MODE_VARIANTS, in both modes
  mixed           one braced portal whose truss bars and frame beams share
                  joints, lowered under analyze static and analyze modal
                  count 3: each script, and its run log and results in both
                  modes; and its run log under analyze topopt, which the
                  audit rejects (mode-elements), in both modes
  context[modes]  the perceived IR, or the perception error and its
                  findings, of one bundled drawing under each context
                  variant of context_variants
  unverified      the fault and the repair context (kind, category, line,
                  message) of a first attempt whose run completes but whose
                  results fail verification, for each case edit of
                  UNVERIFIED_EDITS, in both modes; each workspace directory
                  <root>/<task>-NNNN reads <ws>
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
import re
import sys
import tempfile
from collections import Counter
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402
from vfea import cli  # noqa: E402
from vfea.harness import RunConfig, load_case, load_suite, run_case  # noqa: E402
from vfea.memory import ExperienceBuffer  # noqa: E402
from vfea.ir import (AnalysisSpec, BoundaryCondition, Element, IRModel, Load,  # noqa: E402
                     Material, Node, Section, serialize)
from vfea.failures import FAILURES  # noqa: E402
from vfea.perception import PerceptionError, PerceptionFailure, orchestrate  # noqa: E402
from vfea.sandbox import (MAX_MODES, MAX_OC_ITERATIONS, Limits,  # noqa: E402
                          allocate_workspace, execute)
from vfea.simscript import lower_ir  # noqa: E402
from vfea.synthesis import synthesize  # noqa: E402

# The bundled case whose lowered script is rewritten by hand; it fixes
# three dofs at one support and two at the other.
HAND_CASE = "frame_asymmetric"
HAND_EDITS = {
    "comments": lambda script: "# written by hand\n" + "".join(
        f"{line}  # line {n}\n" for n, line in enumerate(script.splitlines(), 1)),
    "spaces": lambda script: "".join(
        f"  {line.replace(' ', '   ')} \n" for line in script.splitlines()),
    "fix dofs": lambda script: re.sub(
        r"^(fix \S+ )(\S+)$", lambda m: m[1] + ",".join(reversed(m[2].split(","))),
        script, flags=re.M),
    "crlf": lambda script: script.replace("\n", "\r\n"),
}

# Each analyze statement a script may end in: every mode, with counts and
# volume fractions at and past the ends of their ranges and budgets.
MODE_VARIANTS = [
    "analyze static",
    *(f"analyze modal count {n}" for n in (0, 1, 3, MAX_MODES + 1, 10**30)),
    *(f"analyze topopt volfrac {v} iters 10" for v in ("0", "1e-6", "0.5", "1", "1.5")),
    *(f"analyze topopt volfrac 0.5 iters {n}"
      for n in (0, 1, MAX_OC_ITERATIONS, MAX_OC_ITERATIONS + 1)),
]
# The bundled case whose drawing is perceived under context variants.
CONTEXT_CASE = "topopt_ground"
CONTEXT_PARAMS = ["", "modal_count: 0", "modal_count: 1", "modal_count: 3", "modal_count: -2",
                  "modal_count: 1.5", "volfrac: 0", "volfrac: 1e-300", "volfrac: 5e-7",
                  "volfrac: 1e-6", "volfrac: 0.5", "volfrac: 1", "volfrac: 1.5", "volfrac: nan",
                  "opt_iterations: 0", "opt_iterations: 1", "opt_iterations: 40",
                  "opt_iterations: 201"]

# (bundled case, text of its lowered script, replacement): scripts that run
# to completion yet fail verification, by another mode's results and by a
# volume fraction above the audited target.
UNVERIFIED_EDITS = [("frame_cantilever", "analyze static", "analyze modal count 1"),
                    ("topopt_ground", "volfrac 0.5", "volfrac 0.9")]

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


def hand_artifacts(digests: Digests, script: str, work: Path) -> None:
    """Execute each hand-written variant of a lowered script in both modes
    and add its run log, which echoes the variant's lines as written."""
    for name, edit in HAND_EDITS.items():
        for mode in ("inprocess", "subprocess"):
            ws = allocate_workspace(work / "hand", name.replace(" ", "-"))
            execute(edit(script), ws, Limits(), mode=mode)
            digests.add("run.log[hand]", (ws / "run.log").read_bytes())


def modes_model() -> IRModel:
    """A truss grid of 11 x 6 nodes, 132 dofs and 128 free, so that every
    modal count past MAX_MODES meets the mode budget: each cell braced by one diagonal,
    pinned at both bottom corners and loaded at the top middle."""
    node = {(i, j): 1 + 6 * i + j for i in range(11) for j in range(6)}
    pairs = [(node[i, j], node[i + di, j + dj]) for (i, j) in node
             for di, dj in ((1, 0), (0, 1), (1, 1)) if (i + di, j + dj) in node]
    pin = frozenset({"ux", "uy"})
    return IRModel(
        nodes=tuple(Node(n, float(i), float(j)) for (i, j), n in node.items()),
        elements=tuple(Element(k, "truss_bar", pair, 1) for k, pair in enumerate(pairs, 1)),
        materials=(Material(1, 210e9, 0.3, 7850.0),), sections=(Section(1, 1, 0.01),),
        boundary_conditions=(BoundaryCondition(node[0, 0], pin),
                             BoundaryCondition(node[10, 0], pin)),
        loads=(Load(node[5, 5], 0.0, -1e4, 0.0),), analysis=AnalysisSpec())


def mode_artifacts(digests: Digests, work: Path) -> None:
    """Execute the small grid's script ending in each analyze variant, in
    both modes, and add its run log."""
    script = lower_ir(modes_model())
    for variant in MODE_VARIANTS:
        for mode in ("inprocess", "subprocess"):
            ws = allocate_workspace(work / "modes", "modes")
            execute(script.replace("analyze static", variant), ws, Limits(), mode=mode)
            digests.add("run.log[modes]", (ws / "run.log").read_bytes())


def mixed_model() -> IRModel:
    """A portal of three frame beams on a fixed and a pinned foot, braced by
    a truss bar across the bay and topped by two truss bars meeting at an
    apex joint that carries only bars; a moment load at the braced eave."""
    fixed, pin = frozenset({"ux", "uy", "rz"}), frozenset({"ux", "uy"})
    return IRModel(
        nodes=(Node(1, 0.0, 0.0), Node(2, 4.0, 0.0), Node(3, 0.0, 3.0), Node(4, 4.0, 3.0),
               Node(5, 2.0, 4.5)),
        elements=(Element(1, "frame_beam", (1, 3), 2), Element(2, "frame_beam", (2, 4), 2),
                  Element(3, "frame_beam", (3, 4), 2), Element(4, "truss_bar", (1, 4), 1),
                  Element(5, "truss_bar", (3, 5), 1), Element(6, "truss_bar", (4, 5), 1)),
        materials=(Material(1, 210e9, 0.3, 7850.0),),
        sections=(Section(1, 1, 2e-3), Section(2, 1, 1e-2, 8e-5)),
        boundary_conditions=(BoundaryCondition(1, fixed), BoundaryCondition(2, pin)),
        loads=(Load(4, 5e3, 0.0, 2e3), Load(5, 0.0, -1e4, 0.0)), analysis=AnalysisSpec())


def mixed_artifacts(digests: Digests, work: Path) -> None:
    """Lower the mixed model under static and modal analysis and execute
    each script in both modes, adding the script, run log and results; then
    add the run logs of the model under topology optimisation."""
    model = mixed_model()
    for analysis, results in ((AnalysisSpec(), True), (AnalysisSpec("modal", modal_count=3), True),
                              (AnalysisSpec("topology_optimization"), False)):
        script = lower_ir(replace(model, analysis=analysis))
        if results:
            digests.add("mixed", script)
        for mode in ("inprocess", "subprocess"):
            ws = allocate_workspace(work / "mixed", "mixed")
            execute(script, ws, Limits(), mode=mode)
            digests.add("mixed", (ws / "run.log").read_bytes())
            if results:
                doc = json.loads((ws / "results.res").read_text(encoding="utf-8"))
                digests.add("mixed", json.dumps(doc, sort_keys=True))


def context_variants(context: str) -> list[str]:
    """The case's context with each mode directive or none, and each one
    parameter directive or none; and in topology optimisation without its
    element kind directive, which leaves frame elements."""
    base = re.sub(r"^(mode|modal_count|volfrac|opt_iterations):.*\n", "", context, flags=re.M)
    variants = [base + mode + param + "\n"
                for mode in ("", "mode: static\n", "mode: modal\n",
                             "mode: topology_optimization\n")
                for param in CONTEXT_PARAMS]
    return variants + [v.replace("elements: truss\n", "") for v in variants
                       if "topology_optimization" in v]


def context_artifacts(digests: Digests, case) -> None:
    """Perceive the case's drawing under each context variant and add the
    model's IR, or the error with its findings."""
    drawing = case.drawing_path.read_text(encoding="utf-8")
    for context in context_variants(case.context_path.read_text(encoding="utf-8")):
        try:
            out = serialize(orchestrate(drawing, context))
        except PerceptionFailure as exc:
            out = "".join([f"{type(exc).__name__}: {exc}\n",
                           *(f"{f.code} {f.subject}: {f.message}\n"
                             for f in exc.report.findings)])
        except PerceptionError as exc:  # its label, as the case report shows it
            out = FAILURES[exc.stage, exc.kind].text.format(exc).removeprefix("perception: ") + "\n"
        digests.add("context[modes]", context + "---\n" + out)


class OneShot:
    """Proposes one script, then the lowering on repair, and keeps the
    repair contexts it is given."""

    def __init__(self, script: str):
        self.script, self.contexts = script, []

    def generate(self, model: IRModel, memory_context) -> str:
        self.model = model
        return self.script

    def repair(self, script: str, context) -> str:
        self.contexts.append(context)
        return lower_ir(self.model)


def unverified_artifacts(digests: Digests, bundled, work: Path) -> None:
    """Synthesize each edited script of UNVERIFIED_EDITS once in each mode
    and add its first attempt's fault and the repair context, with each
    workspace directory as <ws>."""
    cases = {case.case_id: case for case in bundled}
    for case_id, old, new in UNVERIFIED_EDITS:
        case = cases[case_id]
        model = orchestrate(case.drawing_path.read_text(encoding="utf-8"),
                            case.context_path.read_text(encoding="utf-8"))
        for mode in ("inprocess", "subprocess"):
            root = work / "unverified" / mode
            generator = OneShot(lower_ir(model).replace(old, new))
            _, _, trace = synthesize(model, 1, ExperienceBuffer(), generator, root,
                                     task_id=case_id, execution_mode=mode)
            (fault,), ctx = trace.attempts[0].faults, generator.contexts[0]
            entry = (f"{case_id} {mode}\nfault: {fault.kind} {fault.line} {fault.message}\n"
                     f"context: {ctx.category} {ctx.line} {ctx.message}\n")
            digests.add("unverified", re.sub(re.escape(str(root)) + r"/[^/]+-\d{4,}", "<ws>",
                                             entry))


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
            script = lower_ir(model)
            digests.add("ir", serialize(model))
            digests.add("script", script)
            run_artifacts(digests, case, work, "inprocess")
            if case.case_id == HAND_CASE:
                hand_script = script
        for case in bundled:
            run_artifacts(digests, case, work, "subprocess")
        hand_artifacts(digests, hand_script, work)
        mode_artifacts(digests, work)
        mixed_artifacts(digests, work)
        context_artifacts(digests, next(c for c in bundled if c.case_id == CONTEXT_CASE))
        unverified_artifacts(digests, bundled, work)
        for generator in GENERATORS:
            bench_artifacts(digests, ROOT / "cases", work, generator)
    print(f"# seeds {' '.join(map(str, seeds))}")
    print("\n".join(digests.lines()))
    return 0


if __name__ == "__main__":
    sys.exit(main())

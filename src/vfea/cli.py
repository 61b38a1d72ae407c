"""Command line interface: run, validate, eval, bench.

Exit codes: 0 success; 1 audit findings (validate) or a suite with a failed
case (bench); 2 bad arguments. Any other failure exits with the code of its
row in ``failures.FAILURES``, the table in docs/simscript.md: 1 for a failed
case (run), 2 for a load failure (unreadable inputs, malformed documents,
unusable memory or workspace paths).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .failures import FAILURES, raised
from .harness import (SCORES, CaseLoadError, CaseSpec, RunConfig, check_case_id, emit_report,
                      evaluate_ir, load_suite, run_case, run_suite)
from .ir import SchemaParseError, deserialize
from .memory import ExperienceBuffer
from .validation import audit


def _add_run_options(p: argparse.ArgumentParser):
    p.add_argument("--max-retries", type=int, default=3)
    p.add_argument("--generator", default="perfect",
                   help="perfect | faulty:KIND[:stubborn] | external:URL")
    p.add_argument("--fallback", choices=("on", "off"), default="on")
    p.add_argument("--memory", type=Path, default=None,
                   help="path of the persistent experience buffer")


def _config_from(args, out_dir: Path | None) -> RunConfig:
    return RunConfig(
        max_retries=args.max_retries,
        generator_spec=args.generator,
        fallback_enabled=args.fallback == "on",
        memory_path=args.memory,
        out_dir=out_dir,
    )


def _read_input(path: str) -> str:
    """The text of an input file; one that cannot be read or is not UTF-8
    raises CaseLoadError naming its path."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise CaseLoadError(f"{path}: {exc}") from None


def cmd_run(args) -> int:
    out_dir = Path(args.out)
    case = CaseSpec(case_id=check_case_id(Path(args.drawing).stem, f"drawing {args.drawing!r}"),
                    drawing_path=Path(args.drawing), context_path=Path(args.context),
                    truth_ir_path=Path(args.truth) if args.truth else None,
                    expected_mode=None)
    for p in (case.drawing_path, case.context_path, case.truth_ir_path):
        if p is not None and not p.exists():
            raise CaseLoadError(f"input file not found: {p}")
    out_dir.mkdir(parents=True, exist_ok=True)
    config = _config_from(args, out_dir)
    report = run_case(case, config, ExperienceBuffer(config.memory_path))
    (out_dir / f"{case.case_id}.md").write_text(emit_report(report), encoding="utf-8")
    (out_dir / f"{case.case_id}.json").write_text(
        emit_report(report, "structured_text"), encoding="utf-8")
    print(emit_report(report), end="")
    if report.timings:
        timing = ", ".join(f"{k}={v:.3f}" for k, v in sorted(report.timings.items()))
        print(f"wall time: {timing}")
    failure = report.failure
    return FAILURES[failure.stage, failure.kind].exit_code if failure else 0


def cmd_validate(args) -> int:
    try:
        model = deserialize(_read_input(args.ir))
    except SchemaParseError as exc:  # a finding here: printed with the others, exit 1
        print(FAILURES[exc.stage, exc.kind].text.format(exc))
        return 1
    report = audit(model)
    if report.clean:
        print("clean: no findings")
        return 0
    for f in report.findings:
        subject = f" [{f.subject}]" if f.subject else ""
        print(f"{f.level}/{f.code}{subject}: {f.message}")
    return 1


def cmd_eval(args) -> int:
    pred = deserialize(_read_input(args.pred))
    truth = deserialize(_read_input(args.truth))
    m = evaluate_ir(pred, truth)
    print(f"schema_valid: {str(m.schema_valid).lower()}")
    for name in SCORES:
        print(f"{name}: {getattr(m, name):.6f}")
    return 0


def cmd_bench(args) -> int:
    cases = load_suite(args.suite)
    out_dir = Path(args.out) if args.out else None
    config = _config_from(args, out_dir)
    summary = run_suite(cases, config)
    md = emit_report(summary)
    print(md, end="")
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "summary.md").write_text(md, encoding="utf-8")
        (out_dir / "summary.json").write_text(
            emit_report(summary, "structured_text"), encoding="utf-8")
        for r in summary.reports:
            (out_dir / f"{r.case_id}.md").write_text(emit_report(r), encoding="utf-8")
    return 0 if summary.execution_success_rate == 1.0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="vfea",
                                     description="drawing-to-simulation pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a single case end to end")
    p_run.add_argument("--drawing", required=True)
    p_run.add_argument("--context", required=True)
    p_run.add_argument("--truth", default=None)
    p_run.add_argument("--out", required=True)
    _add_run_options(p_run)
    p_run.set_defaults(func=cmd_run)

    p_val = sub.add_parser("validate", help="audit an IR document")
    p_val.add_argument("--ir", required=True)
    p_val.set_defaults(func=cmd_validate)

    p_eval = sub.add_parser("eval", help="score a predicted IR against a reference")
    p_eval.add_argument("--pred", required=True)
    p_eval.add_argument("--truth", required=True)
    p_eval.set_defaults(func=cmd_eval)

    p_bench = sub.add_parser("bench", help="run a case suite and aggregate metrics")
    p_bench.add_argument("--suite", required=True)
    p_bench.add_argument("--out", default=None)
    _add_run_options(p_bench)
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        key = raised(exc)
        if key is None or key[0] != "load":  # not a way a case fails to load
            raise
        print(FAILURES[key].text.format(exc), file=sys.stderr)
        return FAILURES[key].exit_code


if __name__ == "__main__":
    sys.exit(main())

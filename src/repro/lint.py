"""``python -m repro.lint``: the static program analyzer as a CLI.

Lint Datalog program files (the surface syntax of
:mod:`repro.datalog.parser`) with the full pass battery of
:mod:`repro.datalog.analysis` -- safety, arity consistency, SCC /
stratification report, dead-rule detection, and (with ``--semiring``)
divergence prediction::

    python -m repro.lint examples/programs/transitive_closure.dl
    python -m repro.lint --semiring counting --json path/to/program.dl
    python -m repro.lint --self-check

Exit status: ``0`` when no file has an error-severity diagnostic
(``--strict`` promotes warnings to failures too), ``1`` otherwise;
parse errors count as errors and are reported with line/column and the
offending source line.  ``--self-check`` lints every program in
:mod:`repro.datalog.library` and every ``examples/programs/*.dl`` file
and fails on *any* error or warning -- the CI lint job runs it as the
shipped-programs-are-clean gate.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Tuple

from .datalog import library
from .datalog.analysis import AnalysisReport, analyze_program
from .datalog.ast import Program
from .datalog.parser import ParseError, parse_program
from .semirings import SEMIRINGS_BY_NAME

__all__ = ["main", "lint_text", "self_check_programs"]

#: The library's program constructors, linted by ``--self-check``.
_LIBRARY_PROGRAMS = (
    "transitive_closure",
    "transitive_closure_nonlinear",
    "reachability",
    "bounded_example",
    "dyck1",
    "same_generation",
)


def _examples_dir() -> Path:
    """``examples/programs`` relative to the repo checkout (may be absent)."""
    return Path(__file__).resolve().parents[2] / "examples" / "programs"


def lint_text(
    text: str,
    name: str = "<program>",
    target: Optional[str] = None,
    semiring_name: Optional[str] = None,
) -> Tuple[Optional[AnalysisReport], dict]:
    """Analyze one program source; returns ``(report, json_payload)``.

    *report* is ``None`` when the source does not parse; the payload is
    then an ``ok: false`` object with a ``parse_error`` field, matching
    the server's ``/lint`` wire shape.
    """
    semiring = SEMIRINGS_BY_NAME[semiring_name] if semiring_name else None
    try:
        program = parse_program(text, target=target, validate=False)
    except ParseError as exc:
        return None, {
            "file": name,
            "ok": False,
            "diagnostics": [],
            "parse_error": {
                "message": str(exc),
                "line": exc.line,
                "column": exc.column,
                "source_line": exc.source_line,
            },
        }
    report = analyze_program(program, semiring=semiring)
    payload = report.to_json()
    payload["file"] = name
    return report, payload


def _lint_program(program: Program, name: str) -> Tuple[AnalysisReport, dict]:
    report = analyze_program(program)
    payload = report.to_json()
    payload["file"] = name
    return report, payload


def self_check_programs() -> List[Tuple[str, Optional[Program], str]]:
    """Everything ``--self-check`` lints: ``(name, program | None, text)``.

    Library programs arrive constructed (no source text); example
    files arrive as text so parse errors are caught too.
    """
    items: List[Tuple[str, Optional[Program], str]] = []
    for constructor in _LIBRARY_PROGRAMS:
        items.append((f"library:{constructor}", getattr(library, constructor)(), ""))
    examples = _examples_dir()
    if examples.is_dir():
        for path in sorted(examples.glob("*.dl")):
            items.append((str(path), None, path.read_text()))
    return items


def _print_report(payload: dict, report: Optional[AnalysisReport], args) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return
    name = payload["file"]
    if report is None:
        err = payload["parse_error"]
        print(f"{name}:{err['line']}:{err['column']}: parse error: {err['message']}")
        if err["source_line"]:
            print(f"    {err['source_line']}")
            print(f"    {' ' * (err['column'] - 1)}^")
        return
    shown = list(report.errors()) + list(report.warnings())
    if args.verbose:
        shown += list(report.infos())
    for diagnostic in shown:
        print(diagnostic.format(name))
    summary = "clean" if report.ok else f"{len(report.errors())} error(s)"
    if report.warnings():
        summary += f", {len(report.warnings())} warning(s)"
    print(f"{name}: {summary}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="Statically analyze Datalog program files (DL001-DL009 diagnostics).",
    )
    parser.add_argument("files", nargs="*", help="program files to lint (surface syntax)")
    parser.add_argument("--target", help="target predicate (default: first rule's head)")
    parser.add_argument(
        "--semiring",
        choices=sorted(SEMIRINGS_BY_NAME),
        help="arm semiring-aware divergence prediction (DL006)",
    )
    parser.add_argument("--json", action="store_true", help="emit one JSON report per program")
    parser.add_argument(
        "--strict", action="store_true", help="warnings fail the lint too (exit 1)"
    )
    parser.add_argument(
        "--verbose", "-v", action="store_true", help="also print info-level diagnostics"
    )
    parser.add_argument(
        "--self-check",
        action="store_true",
        help="lint the shipped library and examples/programs/*.dl; any error or warning fails",
    )
    args = parser.parse_args(argv)
    if not args.files and not args.self_check:
        parser.error("give program files to lint, or --self-check")

    failed = False
    if args.self_check:
        for name, program, text in self_check_programs():
            if program is not None:
                report, payload = _lint_program(program, name)
            else:
                report, payload = lint_text(
                    text, name, target=args.target, semiring_name=args.semiring
                )
            _print_report(payload, report, args)
            if report is None or not report.ok or report.warnings():
                failed = True

    for name in args.files:
        path = Path(name)
        if not path.is_file():
            print(f"{name}: no such file", file=sys.stderr)
            failed = True
            continue
        report, payload = lint_text(
            path.read_text(), name, target=args.target, semiring_name=args.semiring
        )
        _print_report(payload, report, args)
        if report is None or not report.ok or (args.strict and report.warnings()):
            failed = True

    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

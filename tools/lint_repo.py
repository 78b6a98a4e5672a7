#!/usr/bin/env python3
"""The repo's own lint: stdlib-``ast`` checks for invariants ruff can't see.

ruff (see ``pyproject.toml``) is the style linter, but it is not
installable in every environment this repo must build in, and two of
our invariants are repo-specific anyway.  This tool is the blocking CI
backstop: pure stdlib, no installs, exit 1 on any finding.

Checks
------

* **mutable-default** -- no mutable default arguments (``def f(x=[])``
  and friends): the classic shared-state bug, and every config object
  in this repo is deliberately frozen/immutable.
* **bare-except** -- no ``except:`` without an exception class; the
  serving layer's resilience story depends on ``KeyboardInterrupt`` /
  ``CancelledError`` escaping handlers (``except Exception`` is the
  widest allowed).
* **exec-kernel** -- ``exec``/``eval`` only in the three vetted closure
  compilers (:data:`EXEC_ALLOWLIST`), and only in the
  ``exec(source, namespace)`` shape where ``source`` is a *variable*
  holding template-generated code -- never a literal, f-string, or
  call expression inline in the ``exec`` itself.  Anything else is
  how injection bugs start.
* **line-length** -- over ``120`` columns (the ruff setting), so the
  gate holds even where ruff never runs.
* **unused-import** -- an imported name the module never reads
  (ruff's F401): a read is any name load, a name inside a string
  annotation, or an ``__all__`` entry.  ``# noqa: F401`` (or a bare
  ``# noqa``) on the import's line keeps a deliberate re-export, and
  ``src/**/__init__.py`` is skipped, as ``pyproject.toml``'s
  per-file-ignores skip it.

Usage::

    python tools/lint_repo.py            # lint the repo, exit 1 on findings
    python tools/lint_repo.py FILE...    # lint specific files (tests use this)
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Iterable, List, NamedTuple, Set

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Directories scanned when no explicit files are given.
SCAN_DIRS = ("src", "tests", "tools", "benchmarks", "examples")

MAX_LINE_LENGTH = 120

#: The only files allowed to call ``exec``/``eval``: the three closure
#: compilers whose sources are built exclusively from the vetted
#: semiring expression templates (the circuit runtime, the fixpoint)
#: or from integer literals and fixed identifiers (the grounding join
#: kernels).
EXEC_ALLOWLIST = frozenset(
    {
        "src/repro/circuits/runtime.py",
        "src/repro/datalog/grounding.py",
        "src/repro/datalog/seminaive.py",
    }
)

_MUTABLE_DEFAULT_NODES = (
    ast.List,
    ast.Dict,
    ast.Set,
    ast.ListComp,
    ast.DictComp,
    ast.SetComp,
)


class Finding(NamedTuple):
    path: str
    line: int
    code: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}: {self.code}: {self.message}"


def _check_mutable_defaults(tree: ast.AST, path: str) -> Iterable[Finding]:
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        for default in (*args.defaults, *(d for d in args.kw_defaults if d is not None)):
            if isinstance(default, _MUTABLE_DEFAULT_NODES):
                name = getattr(node, "name", "<lambda>")
                yield Finding(
                    path,
                    default.lineno,
                    "mutable-default",
                    f"function {name!r} has a mutable default argument "
                    f"({type(default).__name__.lower()}); default to None and "
                    "build inside the body",
                )


def _check_bare_except(tree: ast.AST, path: str) -> Iterable[Finding]:
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is None:
            yield Finding(
                path,
                node.lineno,
                "bare-except",
                "bare 'except:' swallows KeyboardInterrupt/SystemExit/CancelledError; "
                "catch 'Exception' (or narrower)",
            )


def _check_exec(tree: ast.AST, path: str, relative: str) -> Iterable[Finding]:
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not (isinstance(func, ast.Name) and func.id in ("exec", "eval")):
            continue
        if relative not in EXEC_ALLOWLIST:
            yield Finding(
                path,
                node.lineno,
                "exec-kernel",
                f"{func.id}() outside the vetted closure compilers "
                f"({', '.join(sorted(EXEC_ALLOWLIST))})",
            )
            continue
        if not node.args or not isinstance(node.args[0], ast.Name):
            yield Finding(
                path,
                node.lineno,
                "exec-kernel",
                f"{func.id}() source must be a variable bound to template-generated "
                "code, not an inline literal/f-string/call",
            )


def _check_line_length(source: str, path: str) -> Iterable[Finding]:
    for lineno, line in enumerate(source.splitlines(), start=1):
        if len(line) > MAX_LINE_LENGTH:
            yield Finding(
                path,
                lineno,
                "line-length",
                f"{len(line)} > {MAX_LINE_LENGTH} columns",
            )


def _noqa_f401(line: str) -> bool:
    """Whether *line* carries a ``# noqa`` that covers F401."""
    _, marker, codes = line.partition("# noqa")
    if not marker:
        return False
    codes = codes.strip()
    return not codes.startswith(":") or "F401" in codes


def _read_names(tree: ast.AST) -> Set[str]:
    """Every name the module reads: name nodes, names inside string
    annotations, and the entries of a literal ``__all__``."""
    names: Set[str] = set()
    annotations: List[ast.AST] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)) and node.value is not None:
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                names.update(
                    elt.value
                    for elt in ast.walk(node.value)
                    if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
                )
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    parsed = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                names.update(n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))
    return names


def _check_unused_imports(tree: ast.AST, source: str, path: str, relative: str) -> Iterable[Finding]:
    if relative.startswith("src/") and relative.endswith("/__init__.py"):
        return
    lines = source.splitlines()
    read = _read_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            if alias.name == "*":
                continue
            bound = alias.asname or alias.name
            if isinstance(node, ast.Import) and alias.asname is None:
                bound = alias.name.split(".")[0]
            if bound in read:
                continue
            if _noqa_f401(lines[node.lineno - 1]) or _noqa_f401(lines[alias.lineno - 1]):
                continue
            yield Finding(
                path,
                alias.lineno,
                "unused-import",
                f"{alias.name!r} imported but unused; delete it, or mark a "
                "deliberate re-export with '# noqa: F401'",
            )


def lint_file(filepath: Path, root: Path = REPO_ROOT) -> List[Finding]:
    """All findings for one Python file (sorted by line)."""
    try:
        relative = filepath.resolve().relative_to(root).as_posix()
    except ValueError:
        relative = filepath.as_posix()
    display = relative
    source = filepath.read_text(encoding="utf-8")
    findings = list(_check_line_length(source, display))
    try:
        tree = ast.parse(source, filename=str(filepath))
    except SyntaxError as exc:
        findings.append(
            Finding(display, exc.lineno or 0, "syntax-error", exc.msg or "cannot parse")
        )
        return sorted(findings, key=lambda f: f.line)
    findings.extend(_check_mutable_defaults(tree, display))
    findings.extend(_check_bare_except(tree, display))
    findings.extend(_check_exec(tree, display, relative))
    findings.extend(_check_unused_imports(tree, source, display, relative))
    return sorted(findings, key=lambda f: f.line)


def iter_python_files(root: Path = REPO_ROOT) -> Iterable[Path]:
    for directory in SCAN_DIRS:
        base = root / directory
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*.py")):
            if "__pycache__" in path.parts:
                continue
            yield path


def main(argv: List[str]) -> int:
    if argv:
        files = [Path(a) for a in argv]
    else:
        files = list(iter_python_files())
    all_findings: List[Finding] = []
    for filepath in files:
        all_findings.extend(lint_file(filepath))
    for finding in all_findings:
        print(finding.format())
    checked = len(files)
    if all_findings:
        print(f"lint_repo: {len(all_findings)} finding(s) in {checked} file(s)")
        return 1
    print(f"lint_repo: clean ({checked} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""Fail on dangling intra-repo documentation references.

Scans Markdown files and Python module docstrings for references to
repo files and exits non-zero when a referenced file does not exist.
This is the CI guard that keeps DESIGN.md and README.md citations honest
(the repo once shipped five modules citing a DESIGN.md that did not
exist).

Two kinds of references are checked:

* Markdown link targets ``[text](path)`` with a relative path (http,
  mailto and pure-anchor targets are ignored).
* Bare file tokens ending in ``.md``, ``.py``, ``.yml`` or ``.toml``
  (e.g. ``DESIGN.md §6``, ``benchmarks/bench_ablation_grounding.py``).

A token resolves if it exists relative to the referencing file or the
repo root, if it is a path suffix of a tracked file (so
``datalog/grounding.py`` finds ``src/repro/datalog/grounding.py``),
or — for path-less tokens like ``conftest.py`` — if its basename
matches any tracked file.  ``PAPERS.md`` and ``SNIPPETS.md`` are
skipped because they quote external repositories by design, and
``ISSUE.md`` because a task spec may cite files the task is about to
create.

Usage: ``python tools/check_doc_links.py`` (from anywhere inside the
repo).  Prints every dangling reference; exit code 1 if any.
"""

from __future__ import annotations

import ast
import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# PAPERS/SNIPPETS quote external repositories; ISSUE.md may cite files
# the described task has yet to create.
SKIP_MARKDOWN = {"PAPERS.md", "SNIPPETS.md", "ISSUE.md"}
# The roadmap plans files not yet written, and the change log is a
# history that cites files since deleted.
SKIP_MARKDOWN |= {"ROADMAP.md", "CHANGES.md"}

# Target = first whitespace-free run after '(' (tolerates link titles
# like [x](DESIGN.md "notes")); anchor-only targets are skipped.
MD_LINK = re.compile(r"\[[^\]]*\]\(\s*<?([^)#\s>][^)\s>]*)")
FILE_TOKEN = re.compile(r"[A-Za-z0-9_][A-Za-z0-9_./-]*\.(?:md|py|yml|toml)\b")


def repo_files() -> list[Path]:
    """Tracked files only (git), so local .venv/build dirs and other
    untracked clutter neither get scanned nor count as link targets;
    falls back to a filtered walk outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "-C", str(REPO), "ls-files", "-z"],
            capture_output=True,
            check=True,
            text=True,
        ).stdout
        return [REPO / name for name in out.split("\0") if name]
    except (OSError, subprocess.CalledProcessError):
        skip = {".git", "__pycache__", ".venv", "venv", "node_modules", "build", "dist"}
        return [
            p
            for p in REPO.rglob("*")
            if p.is_file()
            and not (set(p.parts) & skip)
            and ".egg-info" not in "".join(p.parts)
        ]


def module_docstring(path: Path) -> str:
    try:
        tree = ast.parse(path.read_text(encoding="utf-8"))
    except SyntaxError:
        return ""
    return ast.get_docstring(tree) or ""


def resolves(token: str, referencing_file: Path, suffixes: set) -> bool:
    token = token.strip().split("#", 1)[0]  # drop anchors: DESIGN.md#s5
    while token.startswith("./"):
        token = token[2:]
    if not token or token.startswith(("http://", "https://", "mailto:")):
        return True
    if (referencing_file.parent / token).exists() or (REPO / token).exists():
        return True
    # Suffix mention ("datalog/grounding.py", "conftest.py"): any
    # tracked file whose path ends with the token at a '/' boundary
    # counts; leading dots in directory names ('.github') are ignored.
    return token in suffixes


def path_suffixes(files: list) -> set:
    out: set = set()
    for p in files:
        rel = p.relative_to(REPO).as_posix()
        variants = {rel, rel.lstrip(".")}
        for variant in variants:
            parts = variant.split("/")
            for i in range(len(parts)):
                out.add("/".join(parts[i:]))
    return out


def main() -> int:
    files = repo_files()
    suffixes = path_suffixes(files)
    dangling: list = []

    for path in files:
        rel = path.relative_to(REPO)
        if path.suffix == ".md":
            if path.name in SKIP_MARKDOWN:
                continue
            text = path.read_text(encoding="utf-8")
            tokens = MD_LINK.findall(text) + FILE_TOKEN.findall(text)
        elif path.suffix == ".py":
            tokens = FILE_TOKEN.findall(module_docstring(path))
        else:
            continue
        for token in tokens:
            if not resolves(token, path, suffixes):
                dangling.append((rel, token))

    for rel, token in dangling:
        print(f"DANGLING {rel}: {token}")
    if dangling:
        print(f"{len(dangling)} dangling documentation reference(s)")
        return 1
    print(f"doc links OK ({len(files)} files scanned)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

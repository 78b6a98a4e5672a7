"""``tools/lint_repo.py``: the stdlib-ast repo-invariant linter.

The CI lint job runs ``python tools/lint_repo.py`` as a blocking
backstop, so the repo itself must stay clean, and each check must
actually catch its seeded violation.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "tools"))

import lint_repo  # noqa: E402


def _write(tmp_path: Path, name: str, source: str) -> Path:
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return path


def _codes(findings):
    return [finding.code for finding in findings]


def test_repo_is_clean():
    assert lint_repo.main([]) == 0


def test_mutable_default_detected(tmp_path):
    path = _write(tmp_path, "bad.py", "def f(x=[]):\n    return x\n")
    findings = lint_repo.lint_file(path, root=tmp_path)
    assert _codes(findings) == ["mutable-default"]
    assert "f" in findings[0].message


def test_mutable_default_in_kwonly_and_lambda(tmp_path):
    source = "g = lambda *, acc={}: acc\n\ndef h(*, seen={1, 2}):\n    return seen\n"
    path = _write(tmp_path, "bad.py", source)
    assert _codes(lint_repo.lint_file(path, root=tmp_path)) == [
        "mutable-default",
        "mutable-default",
    ]


def test_none_default_is_fine(tmp_path):
    path = _write(tmp_path, "ok.py", "def f(x=None, y=(), z=0):\n    return x, y, z\n")
    assert lint_repo.lint_file(path, root=tmp_path) == []


def test_bare_except_detected(tmp_path):
    source = "try:\n    pass\nexcept:\n    pass\n"
    path = _write(tmp_path, "bad.py", source)
    findings = lint_repo.lint_file(path, root=tmp_path)
    assert _codes(findings) == ["bare-except"]
    assert findings[0].line == 3


def test_except_exception_allowed(tmp_path):
    source = "try:\n    pass\nexcept Exception:\n    pass\n"
    path = _write(tmp_path, "ok.py", source)
    assert lint_repo.lint_file(path, root=tmp_path) == []


def test_exec_outside_allowlist_detected(tmp_path):
    path = _write(tmp_path, "src/other.py", "exec('print(1)')\n")
    findings = lint_repo.lint_file(path, root=tmp_path)
    assert _codes(findings) == ["exec-kernel"]
    assert "vetted closure compilers" in findings[0].message


def test_eval_outside_allowlist_detected(tmp_path):
    path = _write(tmp_path, "helper.py", "x = eval('1 + 1')\n")
    assert _codes(lint_repo.lint_file(path, root=tmp_path)) == ["exec-kernel"]


def test_exec_in_allowlisted_path_requires_variable_source(tmp_path):
    # Simulate an allowlisted file under a fake repo root: a literal
    # first argument is still a finding; a variable is the vetted shape.
    relative = sorted(lint_repo.EXEC_ALLOWLIST)[0]
    bad = _write(tmp_path, relative, "exec('literal', {})\n")
    assert _codes(lint_repo.lint_file(bad, root=tmp_path)) == ["exec-kernel"]
    good = _write(tmp_path, relative, "source = make()\nexec(source, {})\n")
    assert lint_repo.lint_file(good, root=tmp_path) == []


def test_real_allowlisted_compilers_pass_as_is():
    for relative in sorted(lint_repo.EXEC_ALLOWLIST):
        path = lint_repo.REPO_ROOT / relative
        assert path.is_file(), relative
        assert lint_repo.lint_file(path) == []


def test_line_length_detected(tmp_path):
    long_line = "x = " + " + ".join(["1"] * 50)
    assert len(long_line) > lint_repo.MAX_LINE_LENGTH
    path = _write(tmp_path, "long.py", long_line + "\n")
    findings = lint_repo.lint_file(path, root=tmp_path)
    assert _codes(findings) == ["line-length"]


def test_syntax_error_is_a_finding_not_a_crash(tmp_path):
    path = _write(tmp_path, "broken.py", "def f(:\n")
    findings = lint_repo.lint_file(path, root=tmp_path)
    assert _codes(findings) == ["syntax-error"]


def test_main_exit_codes_and_output(tmp_path, capsys):
    bad = _write(tmp_path, "bad.py", "def f(x=[]):\n    return x\n")
    assert lint_repo.main([str(bad)]) == 1
    out = capsys.readouterr().out
    assert "mutable-default" in out and "1 finding(s)" in out
    ok = _write(tmp_path, "ok.py", "def f(x=None):\n    return x\n")
    assert lint_repo.main([str(ok)]) == 0
    assert "clean" in capsys.readouterr().out


def test_iter_python_files_covers_the_scan_dirs():
    files = {p.as_posix() for p in lint_repo.iter_python_files()}
    assert any("src/repro/datalog/analysis.py" in f for f in files)
    assert any("tools/lint_repo.py" in f for f in files)
    assert not any("__pycache__" in f for f in files)


@pytest.mark.parametrize("relative", sorted(lint_repo.EXEC_ALLOWLIST))
def test_allowlist_entries_exist(relative):
    assert (lint_repo.REPO_ROOT / relative).is_file()


def test_unused_import_detected(tmp_path):
    source = "import os\nimport json.decoder\nfrom typing import List, Dict\n\nx: List[int] = []\n"
    path = _write(tmp_path, "bad.py", source)
    findings = lint_repo.lint_file(path, root=tmp_path)
    assert _codes(findings) == ["unused-import"] * 3
    assert [f.line for f in findings] == [1, 2, 3]
    assert "'os'" in findings[0].message and "'Dict'" in findings[2].message


def test_unused_import_in_a_multiline_import_reports_its_own_line(tmp_path):
    source = "from typing import (\n    List,\n    Set,\n)\n\nx: List[int] = []\n"
    path = _write(tmp_path, "bad.py", source)
    findings = lint_repo.lint_file(path, root=tmp_path)
    assert [(f.code, f.line) for f in findings] == [("unused-import", 3)]


def test_read_imports_are_fine(tmp_path):
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import collections as c\n"
        "from typing import TYPE_CHECKING, Optional, Sequence\n"
        "from json import dumps, loads\n"
        "__all__ = ['dumps']\n"
        "def f(x: 'Optional[Sequence[int]]') -> None:\n"
        "    return os.path.join(c.OrderedDict(), TYPE_CHECKING)\n"
        "def g():\n"
        "    from math import pi\n"
        "    return pi, loads\n"
    )
    path = _write(tmp_path, "ok.py", source)
    assert lint_repo.lint_file(path, root=tmp_path) == []


def test_noqa_keeps_a_deliberate_reexport(tmp_path):
    source = (
        "from os import sep  # noqa: F401\n"
        "from os import pathsep  # noqa\n"
        "from os import (  # noqa: F401\n"
        "    linesep,\n"
        ")\n"
        "from os import curdir  # noqa: E402\n"
    )
    path = _write(tmp_path, "ok.py", source)
    findings = lint_repo.lint_file(path, root=tmp_path)
    assert [(f.code, f.line) for f in findings] == [("unused-import", 6)]


def test_package_inits_under_src_may_reexport(tmp_path):
    source = "from os import sep\n"
    package = _write(tmp_path, "src/pkg/__init__.py", source)
    assert lint_repo.lint_file(package, root=tmp_path) == []
    elsewhere = _write(tmp_path, "tests/pkg/__init__.py", source)
    assert _codes(lint_repo.lint_file(elsewhere, root=tmp_path)) == ["unused-import"]


def test_the_maintainers_reexport_passes_as_is():
    path = lint_repo.REPO_ROOT / "src/repro/datalog/incremental.py"
    assert "import columnar_grounding  # noqa: F401" in path.read_text()
    assert lint_repo.lint_file(path) == []

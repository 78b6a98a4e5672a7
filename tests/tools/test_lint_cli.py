"""``python -m repro.lint``: the analyzer CLI.

Drives :func:`repro.lint.main` in-process (no subprocesses), pinning
exit codes, the human and ``--json`` output shapes, ``--strict``
warning promotion, and the ``--self-check`` gate CI runs over the
shipped library and example programs.
"""

import json

import pytest

from repro.lint import lint_text, main, self_check_programs
from repro.semirings import SEMIRINGS_BY_NAME

CLEAN = "T(X, Y) :- E(X, Y).\nT(X, Y) :- T(X, Z), E(Z, Y).\n"
UNSAFE = "T(X, Y) :- E(X, X).\nU(X) :- T(X).\n"
DEAD = "T(X, Y) :- E(X, Y).\nS(X, Y) :- E(Y, X).\n"
BROKEN = "T(X, Y) :- T(X, Z) E(Z, Y).\n"


def _program_file(tmp_path, text, name="prog.dl"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_clean_program_exits_zero(tmp_path, capsys):
    assert main([_program_file(tmp_path, CLEAN)]) == 0
    out = capsys.readouterr().out
    assert "clean" in out


def test_errors_exit_one_with_dl_codes(tmp_path, capsys):
    assert main([_program_file(tmp_path, UNSAFE), "--target", "T"]) == 1
    out = capsys.readouterr().out
    assert "DL001 error" in out and "DL002 error" in out
    # Diagnostics carry file:line positions from the parser spans.
    assert "prog.dl:1:" in out


def test_warnings_fail_only_under_strict(tmp_path, capsys):
    path = _program_file(tmp_path, DEAD)
    assert main([path, "--target", "T"]) == 0
    assert "DL007" in capsys.readouterr().out
    assert main([path, "--target", "T", "--strict"]) == 1


def test_parse_error_prints_caret_and_exits_one(tmp_path, capsys):
    assert main([_program_file(tmp_path, BROKEN)]) == 1
    out = capsys.readouterr().out
    assert "parse error" in out
    caret_line = out.splitlines()[-1]
    assert caret_line.strip() == "^"


def test_missing_file_exits_one(tmp_path, capsys):
    assert main([str(tmp_path / "nope.dl")]) == 1
    assert "no such file" in capsys.readouterr().err


def test_json_output_matches_the_lint_wire_shape(tmp_path, capsys):
    assert main([_program_file(tmp_path, CLEAN), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert payload["target"] == "T"
    assert payload["dependencies"]["recursion"] == "linear"


def test_semiring_flag_arms_divergence_prediction(tmp_path, capsys):
    assert main([_program_file(tmp_path, CLEAN), "--semiring", "counting", "-v"]) == 0
    out = capsys.readouterr().out
    assert "DL006 warning" in out  # cyclic over counting: may diverge
    assert main([_program_file(tmp_path, CLEAN), "--semiring", "boolean", "--strict"]) == 0


def test_lint_text_parse_error_payload():
    report, payload = lint_text(BROKEN, "broken.dl")
    assert report is None
    assert payload["ok"] is False
    assert payload["parse_error"]["line"] == 1


def test_self_check_covers_library_and_examples_and_passes(capsys):
    items = self_check_programs()
    names = [name for name, _, _ in items]
    assert any(name.startswith("library:") for name in names)
    assert any(name.endswith(".dl") for name in names)
    assert main(["--self-check"]) == 0
    assert "clean" in capsys.readouterr().out


def test_semiring_vocabulary_matches_the_registry():
    assert set(SEMIRINGS_BY_NAME) == {
        "boolean",
        "counting",
        "counting_cap",
        "tropical",
        "tropical_int",
        "viterbi",
        "fuzzy",
        "lukasiewicz",
        "arctic",
    }


def test_no_arguments_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2
    assert "give program files" in capsys.readouterr().err

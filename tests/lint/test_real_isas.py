"""The shipped specifications must lint clean (acceptance criterion)."""

import json

import pytest

from repro.cli import main
from repro.diag.render import render_json
from repro.isa.base import available_isas, get_bundle
from repro.lint.runner import lint_paths


@pytest.mark.parametrize("isa", available_isas())
def test_isa_has_no_unsuppressed_errors(isa):
    paths = [str(p) for p in get_bundle(isa).description_paths()]
    result = lint_paths(paths)
    assert result.errors == [], render_json(result)
    assert result.exit_code == 0


@pytest.mark.parametrize("isa", available_isas())
def test_isa_has_no_unsuppressed_warnings(isa):
    paths = [str(p) for p in get_bundle(isa).description_paths()]
    result = lint_paths(paths)
    assert result.warnings == [], render_json(result)


@pytest.mark.parametrize("isa", available_isas())
def test_os_overlay_suppresses_syscall_speculation(isa):
    """Every ISA carries exactly the intentional LIS030 suppression."""
    paths = [str(p) for p in get_bundle(isa).description_paths()]
    result = lint_paths(paths)
    assert [d.code for d in result.suppressed] == ["LIS030"]


def test_cli_lint_text(capsys):
    assert main(["lint", "alpha"]) == 0
    out = capsys.readouterr().out
    assert "error(s)" in out


def test_cli_lint_json(capsys):
    assert main(["lint", "alpha", "--format=json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["exit_code"] == 0
    assert doc["counts"]["errors"] == 0

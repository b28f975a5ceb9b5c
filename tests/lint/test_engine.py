"""Engine-level tests: suppressions, renderers, exit codes, strict gate."""

import json

import pytest

from repro.adl import load_isa_source
from repro.diag.render import render_json, render_text
from repro.lint.core import CODES, Severity
from repro.lint.runner import lint_source
from repro.synth import synthesize
from repro.synth.errors import SynthesisError

from tests.lint.test_codes import BASE


class TestRegistry:
    def test_all_codes_have_titles_and_severities(self):
        assert len(CODES) >= 10
        for code, info in CODES.items():
            assert code.startswith("LIS") and len(code) == 6
            assert info.title
            assert isinstance(info.severity, Severity)


class TestSuppressions:
    def test_inline_comment_suppresses(self):
        source = BASE.replace("field v u64;", "field v u64; // lint: disable=LIS011")
        result = lint_source(source, "<s>")
        lis011 = [d for d in result.diagnostics if d.code == "LIS011"]
        assert lis011 and all(d.suppressed for d in lis011)
        assert not any(d.code == "LIS011" for d in result.warnings)

    def test_suppressed_error_does_not_fail(self):
        source = (
            BASE
            + "instruction SYS format f { match opcode == 5; }\n"
            + "action SYS@evaluate = %{ __syscall()  # lint: disable=LIS030 %}\n"
            + "buildset sp { speculation on; "
            + "entrypoint go = translate, fetch, decode, read_s1, evaluate; }\n"
        )
        result = lint_source(source, "<s>")
        assert not any(d.code == "LIS030" for d in result.errors)
        assert any(d.code == "LIS030" for d in result.suppressed)
        assert result.exit_code == 0

    def test_unrelated_code_not_suppressed(self):
        source = BASE.replace("field v u64;", "field v u64; // lint: disable=LIS010")
        result = lint_source(source, "<s>")
        assert any(d.code == "LIS011" for d in result.warnings)

    def test_multiple_codes_one_comment(self):
        source = BASE.replace(
            "field v u64;", "field v u64; // lint: disable=LIS010, LIS011"
        )
        result = lint_source(source, "<s>")
        assert not any(d.code == "LIS011" for d in result.warnings)


class TestExitCode:
    def test_error_fails(self):
        result = lint_source(BASE + "buildset b { entrypoint go = zz; }\n", "<s>")
        assert result.errors
        assert result.exit_code == 1

    def test_warnings_do_not_fail(self):
        result = lint_source(BASE, "<s>")
        assert result.warnings and not result.errors
        assert result.exit_code == 0


class TestRenderers:
    def test_json_parseable_and_shaped(self):
        result = lint_source(BASE, "<s>")
        doc = json.loads(render_json(result))
        assert doc["version"] == 1
        assert doc["paths"] == ["<s>"]
        assert doc["exit_code"] == 0
        assert doc["counts"]["warnings"] == len(result.warnings)
        for entry in doc["diagnostics"]:
            assert entry["code"] in CODES
            assert entry["severity"] in ("error", "warning", "info")
            assert entry["file"] == "<s>"
            assert isinstance(entry["line"], int)

    def test_json_stable_across_runs(self):
        first = render_json(lint_source(BASE, "<s>"))
        second = render_json(lint_source(BASE, "<s>"))
        assert first == second

    def test_json_diagnostics_sorted(self):
        doc = json.loads(render_json(lint_source(BASE, "<s>")))
        keys = [(d["line"], d["code"]) for d in doc["diagnostics"]]
        assert keys == sorted(keys)

    def test_text_output(self):
        result = lint_source(BASE, "<s>")
        text = render_text(result)
        assert "LIS011" in text
        assert "<s>:" in text
        assert "warning(s)" in text

    def test_text_hides_suppressed_by_default(self):
        source = BASE.replace("field v u64;", "field v u64; // lint: disable=LIS011")
        result = lint_source(source, "<s>")
        assert "LIS011" not in render_text(result)
        assert "LIS011" in render_text(result, show_suppressed=True)


class TestStrictGate:
    def test_strict_refuses_on_lint_error(self):
        spec = load_isa_source(
            BASE
            + "instruction SYS format f { match opcode == 5; }\n"
            + "action SYS@evaluate = %{ __syscall() %}\n"
            + "buildset sp { speculation on; "
            + "entrypoint go = translate, fetch, decode, read_s1, evaluate; }\n"
        )
        with pytest.raises(SynthesisError, match="LIS030"):
            synthesize(spec, "sp", strict=True)

    def test_strict_passes_on_clean_spec(self):
        # BASE only has warnings/infos; strict gates on errors.
        generated = synthesize(load_isa_source(BASE), "bs", strict=True)
        assert generated.buildset_name == "bs"

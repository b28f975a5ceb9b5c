"""Unit tests for snippet parsing, dataflow facts, renaming and folding."""

import ast

import pytest

from repro.adl.errors import SnippetError
from repro.adl.snippets import (
    analyze_stmt,
    analyze_stmts,
    parse_snippet,
    propagate_constants,
    rename_names,
)
from repro.ops import PURE_NAMESPACE


def src(stmts):
    return "\n".join(ast.unparse(s) for s in stmts)


def fold(stmts, env, funcs=None):
    return propagate_constants(stmts, env, funcs)[0]


class TestParseSnippet:
    def test_simple_assignment(self):
        stmts = parse_snippet(" x = a + b ")
        assert len(stmts) == 1
        assert isinstance(stmts[0], ast.Assign)

    def test_multiline_dedent(self):
        stmts = parse_snippet("\n  a = 1\n  if a:\n      b = 2\n")
        assert len(stmts) == 2

    def test_syntax_error_reported(self):
        with pytest.raises(SnippetError):
            parse_snippet("x = = 1")

    @pytest.mark.parametrize(
        "bad",
        [
            "import os",
            "for i in x:\n    pass",
            "while x:\n    pass",
            "def f():\n    pass",
            "x.y = 1",
            "lambda: 1",
        ],
    )
    def test_disallowed_constructs(self, bad):
        with pytest.raises(SnippetError):
            parse_snippet(bad)


class TestFacts:
    def test_reads_and_writes(self):
        (stmt,) = parse_snippet("ea = base + disp")
        facts = analyze_stmt(stmt)
        assert facts.reads == {"base", "disp"}
        assert facts.writes == {"ea"}
        assert not facts.has_effect

    def test_subscript_store_is_effect(self):
        (stmt,) = parse_snippet("R[i] = v")
        facts = analyze_stmt(stmt)
        assert facts.subscript_writes == {"R"}
        assert facts.reads >= {"i", "v"}
        assert facts.has_effect

    def test_subscript_load_is_read(self):
        (stmt,) = parse_snippet("v = R[i]")
        facts = analyze_stmt(stmt)
        assert facts.reads == {"R", "i"}
        assert not facts.has_effect

    def test_augassign_reads_target(self):
        (stmt,) = parse_snippet("x += y")
        facts = analyze_stmt(stmt)
        assert facts.reads == {"x", "y"}
        assert facts.writes == {"x"}

    def test_augassign_subscript(self):
        (stmt,) = parse_snippet("R[i] += y")
        facts = analyze_stmt(stmt)
        assert facts.subscript_writes == {"R"}

    def test_effect_function_call(self):
        (stmt,) = parse_snippet("__mem_write(addr, 8, v)")
        facts = analyze_stmt(stmt)
        assert facts.effects == {"__mem_write"}
        assert facts.has_effect

    def test_pure_function_call(self):
        (stmt,) = parse_snippet("x = u64(a + b)")
        facts = analyze_stmt(stmt)
        assert not facts.has_effect
        assert "u64" not in facts.reads

    def test_unknown_call_is_conservative(self):
        (stmt,) = parse_snippet("x = mystery(a)")
        facts = analyze_stmt(stmt)
        assert facts.unknown_calls == {"mystery"}
        assert facts.has_effect

    def test_if_statement_collects_both_branches(self):
        (stmt,) = parse_snippet("\nif t:\n    a = x\nelse:\n    a = y\n")
        facts = analyze_stmt(stmt)
        assert facts.reads == {"t", "x", "y"}
        assert facts.writes == {"a"}

    def test_analyze_stmts_union(self):
        stmts = parse_snippet("\na = x\nb = y\n")
        facts = analyze_stmts(stmts)
        assert facts.reads == {"x", "y"}
        assert facts.writes == {"a", "b"}


class TestRename:
    def test_rename_load_and_store(self):
        stmts = parse_snippet("value = R[index]")
        out = rename_names(stmts, {"value": "src1_val", "index": "src1_id"})
        assert src(out) == "src1_val = R[src1_id]"

    def test_substitute_expression_at_load(self):
        stmts = parse_snippet("index = n")
        out = rename_names(stmts, {"n": ast.Constant(5), "index": "src2_id"})
        assert src(out) == "src2_id = 5"

    def test_substitute_expression_at_store_rejected(self):
        stmts = parse_snippet("n = 1")
        with pytest.raises(SnippetError):
            rename_names(stmts, {"n": ast.Constant(5)})

    def test_function_names_not_renamed(self):
        stmts = parse_snippet("x = u64(u64)") if False else parse_snippet("x = u64(y)")
        out = rename_names(stmts, {"u64": "nope", "y": "z"})
        assert src(out) == "x = u64(z)"

    def test_original_untouched(self):
        stmts = parse_snippet("value = R[index]")
        rename_names(stmts, {"value": "v2"})
        assert src(stmts) == "value = R[index]"


class TestFolding:
    def test_binop_folds(self):
        stmts = parse_snippet("x = a + 2 * 3")
        out = fold(stmts, {"a": 10})
        assert src(out) == "x = 16"

    def test_function_folds(self):
        stmts = parse_snippet("x = sext(disp, 16)")
        out = fold(stmts, {"disp": 0xFFFF}, PURE_NAMESPACE)
        assert src(out) == "x = -1"

    def test_if_with_constant_test_flattens(self):
        stmts = parse_snippet("\nif cond == 14:\n    x = 1\nelse:\n    x = 2\n")
        out = fold(stmts, {"cond": 14})
        assert src(out) == "x = 1"

    def test_if_with_unknown_test_kept(self):
        stmts = parse_snippet("\nif c:\n    x = 1\n")
        out = fold(stmts, {})
        assert isinstance(out[0], ast.If)

    def test_written_names_not_propagated(self):
        stmts = parse_snippet("\na = b\nx = a + 1\n")
        out = fold(stmts, {"a": 5})
        # `a` is written inside the snippet, so the env value must not leak.
        assert src(out) == "a = b\nx = a + 1"

    def test_boolop_short_circuit(self):
        stmts = parse_snippet("x = flag and y")
        out = fold(stmts, {"flag": True})
        assert src(out) == "x = y"

    def test_ifexp_folds(self):
        stmts = parse_snippet("x = 1 if lit else 2")
        out = fold(stmts, {"lit": 0})
        assert src(out) == "x = 2"

    def test_division_by_zero_left_unfolded(self):
        stmts = parse_snippet("x = 1 // d")
        out = fold(stmts, {"d": 0})
        assert "1 // 0" in src(out)

    def test_propagate_constants_chains(self):
        stmts = parse_snippet("\nsrc1_id = ra\nv = R[src1_id]\n")
        out, env = propagate_constants(stmts, {"ra": 7}, PURE_NAMESPACE)
        assert "R[7]" in src(out)
        assert env["src1_id"] == 7

    def test_propagate_skips_multiply_assigned(self):
        stmts = parse_snippet("\nx = 1\nif c:\n    x = 2\ny = x\n")
        out, env = propagate_constants(stmts, {}, PURE_NAMESPACE)
        assert "x" not in env
        assert "y = x" in src(out)

"""Unit tests for liveness-based dead-code elimination."""

import ast

from repro.adl.snippets import parse_snippet
from repro.synth.dataflow import (
    TaggedStmt,
    assigned_names,
    eliminate_dead,
)


def tag(source, action="a"):
    return [TaggedStmt(action, s) for s in parse_snippet(source)]


def render(stmts):
    return "\n".join(ast.unparse(t.stmt) for t in stmts)


class TestEliminateDead:
    def test_keeps_live_chain(self):
        stmts = tag("\nx = a + 1\ny = x * 2\n")
        kept = eliminate_dead(stmts, {"y"})
        assert render(kept) == "x = a + 1\ny = x * 2"

    def test_drops_dead_tail(self):
        stmts = tag("\nx = a + 1\ny = x * 2\n")
        kept = eliminate_dead(stmts, {"x"})
        assert render(kept) == "x = a + 1"

    def test_drops_fully_dead(self):
        stmts = tag("info = a + b")
        assert eliminate_dead(stmts, set()) == []

    def test_anchored_memory_write_survives(self):
        stmts = tag("\nea = base + 4\n__mem_write(ea, 8, v)\n")
        kept = eliminate_dead(stmts, set())
        assert "ea = base + 4" in render(kept)
        assert "__mem_write" in render(kept)

    def test_anchored_regfile_store_survives(self):
        stmts = tag("\nd = a + b\nR[3] = d\n")
        kept = eliminate_dead(stmts, set())
        assert len(kept) == 2

    def test_unknown_call_is_anchored(self):
        stmts = tag("x = mystery()")
        assert len(eliminate_dead(stmts, set())) == 1

    def test_helper_call_not_anchored_when_pure(self):
        stmts = tag("x = my_helper(a)")
        assert eliminate_dead(stmts, set(), frozenset({"my_helper"})) == []

    def test_kill_releases_earlier_def(self):
        stmts = tag("\nx = expensive\nx = 5\ny = x\n")
        kept = eliminate_dead(stmts, {"y"})
        assert render(kept) == "x = 5\ny = x"

    def test_conditional_write_does_not_kill(self):
        stmts = tag("\nnext_pc = pc + 4\nif t:\n    next_pc = target\n")
        kept = eliminate_dead(stmts, {"next_pc"})
        # the default must survive because the overwrite is conditional
        assert "next_pc = pc + 4" in render(kept)
        assert "if t:" in render(kept)

    def test_dead_code_inside_if_removed(self):
        stmts = tag("\nif t:\n    info = a + b\n    R[1] = c\n")
        kept = eliminate_dead(stmts, set())
        out = render(kept)
        assert "R[1] = c" in out
        assert "info" not in out

    def test_fully_dead_if_removed(self):
        stmts = tag("\nif t:\n    info = a + b\n")
        assert eliminate_dead(stmts, set()) == []

    def test_if_with_live_else_branch(self):
        stmts = tag("\nif t:\n    x = 1\nelse:\n    x = 2\ny = x\n")
        kept = eliminate_dead(stmts, {"y"})
        out = render(kept)
        assert "x = 1" in out and "x = 2" in out

    def test_if_test_reads_kept_live(self):
        stmts = tag("\nt = a == b\nif t:\n    R[1] = 5\n")
        kept = eliminate_dead(stmts, set())
        assert "t = a == b" in render(kept)

    def test_pass_statements_dropped(self):
        stmts = tag("pass")
        assert eliminate_dead(stmts, set()) == []

    def test_augassign_keeps_self_dependence(self):
        stmts = tag("\nx = 1\nx += y\nz = x\n")
        kept = eliminate_dead(stmts, {"z"})
        assert render(kept) == "x = 1\nx += y\nz = x"


class TestHelpers:
    def test_assigned_names(self):
        stmts = tag("\na = 1\nif t:\n    b = 2\n")
        assert assigned_names(stmts) == {"a", "b"}

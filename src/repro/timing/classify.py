"""Instruction-kind classification for timing models.

Trace-driven (functional-first) timing simulators decode the instruction
word themselves to learn the instruction's kind; this helper memoizes
that decode against the single specification, so the timing model never
duplicates semantics — only categories.
"""

from __future__ import annotations

from repro.adl.spec import IsaSpec
from repro.adl.snippets import analyze_stmt

LOAD = "load"
STORE = "store"
BRANCH = "branch"
SYSCALL = "syscall"
MUL = "mul"
ALU = "alu"


def _instruction_kind(spec: IsaSpec, index: int) -> str:
    instr = spec.instructions[index]
    effects = set()
    writes = set()
    for stmts in instr.action_code.values():
        for stmt in stmts:
            facts = analyze_stmt(stmt)
            effects |= facts.effects
            writes |= facts.writes
    if "__syscall" in effects:
        return SYSCALL
    if "__mem_write" in effects:
        return STORE
    # memory reads appear as pure calls; detect via source text
    if "memory_access" in instr.action_code and any(
        "__mem_read" in _stmt_source(s)
        for s in instr.action_code.get("memory_access", ())
    ):
        return LOAD
    if "next_pc" in writes:
        return BRANCH
    if "mul" in instr.name.lower():
        return MUL
    return ALU


def _stmt_source(stmt) -> str:
    import ast

    return ast.unparse(stmt)


class InstructionClassifier:
    """Memoized word -> kind classification for one ISA."""

    def __init__(self, spec: IsaSpec) -> None:
        self.spec = spec
        self._kind_by_index = [
            _instruction_kind(spec, i) for i in range(len(spec.instructions))
        ]
        self._cache: dict[int, str] = {}

    def kind(self, word: int) -> str:
        kind = self._cache.get(word)
        if kind is None:
            index = self.spec.decode(word)
            kind = self._kind_by_index[index] if index is not None else ALU
            self._cache[word] = kind
        return kind

    def name(self, word: int) -> str:
        index = self.spec.decode(word)
        return self.spec.instructions[index].name if index is not None else "?"

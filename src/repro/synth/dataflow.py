"""Liveness analysis and dead-code elimination over snippet statements.

This implements the paper's §IV observation that, once hidden fields
become locals, "the computation of information which is not actually
needed semantically and not part of the interface becomes dead code which
can be optimized away."  The compiler in the paper's C++ setting is gcc;
here the synthesizer is the compiler, so the elimination is explicit.

Statements are *anchored* (never removed) when they have architectural
side effects: register-file stores, memory writes, syscalls, calls to
unknown functions.  Everything else survives only while some later-kept
statement or interface-visible field reads its results.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.adl.snippets import StmtFacts, analyze_stmt


@dataclass(frozen=True)
class TaggedStmt:
    """A statement plus the action it came from (used for step splitting)."""

    action: str
    stmt: ast.stmt


def stmt_is_anchored(facts: StmtFacts, pure_extra: frozenset[str]) -> bool:
    """True when the statement must run regardless of liveness.

    ``pure_extra`` holds spec-level helper names (pure by contract) so that
    calls to them do not anchor a statement.
    """
    if facts.effects or facts.subscript_writes:
        return True
    return bool(facts.unknown_calls - pure_extra)


def eliminate_dead(
    stmts: list[TaggedStmt],
    live_out: set[str],
    pure_extra: frozenset[str] = frozenset(),
) -> list[TaggedStmt]:
    """Backward-liveness dead-code elimination.

    ``live_out`` is the set of names that must hold correct values when the
    statement list finishes (interface-visible fields, ``next_pc``,
    ``fault``, carried values).  Returns the kept statements in original
    order.  ``if`` statements are processed recursively with conservative
    kill sets: a write under a condition never removes a name from the
    live set of code above it.
    """
    kept_rev: list[TaggedStmt] = []
    live = set(live_out)
    for tagged in reversed(stmts):
        stmt = tagged.stmt
        if isinstance(stmt, ast.If):
            result = _eliminate_in_if(stmt, live, pure_extra, tagged.action)
            if result is not None:
                new_if, reads = result
                live |= reads
                kept_rev.append(TaggedStmt(tagged.action, new_if))
            continue
        if isinstance(stmt, ast.Pass):
            continue
        facts = analyze_stmt(stmt)
        anchored = stmt_is_anchored(facts, pure_extra)
        if not anchored and not (facts.writes & live):
            continue  # dead: writes nothing anyone needs
        if _is_unconditional_kill(stmt):
            live -= facts.writes
        live |= facts.reads
        kept_rev.append(tagged)
    return list(reversed(kept_rev))


def _is_unconditional_kill(stmt: ast.stmt) -> bool:
    """True for plain ``name = expr`` whose write definitely happens."""
    return (
        isinstance(stmt, ast.Assign)
        and len(stmt.targets) == 1
        and isinstance(stmt.targets[0], ast.Name)
    )


def _eliminate_in_if(
    stmt: ast.If,
    live: set[str],
    pure_extra: frozenset[str],
    action: str,
) -> tuple[ast.If, set[str]] | None:
    """DCE inside one ``if``; returns (new statement, names it reads)."""
    body = eliminate_dead(
        [TaggedStmt(action, s) for s in stmt.body], live, pure_extra
    )
    orelse = eliminate_dead(
        [TaggedStmt(action, s) for s in stmt.orelse], live, pure_extra
    )
    if not body and not orelse:
        return None
    reads: set[str] = set()
    test_facts = _expr_reads(stmt.test)
    reads |= test_facts
    for tagged in body + orelse:
        facts = analyze_stmt(tagged.stmt)
        reads |= facts.reads
    new_body = [t.stmt for t in body] or [ast.Pass()]
    new_if = ast.If(stmt.test, new_body, [t.stmt for t in orelse])
    ast.copy_location(new_if, stmt)
    ast.fix_missing_locations(new_if)
    return new_if, reads


def _expr_reads(expr: ast.expr) -> set[str]:
    reads: set[str] = set()
    called: set[str] = set()
    for node in ast.walk(expr):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.add(node.id)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            called.add(node.func.id)
    return reads - called


class _NameSubst(ast.NodeTransformer):
    """Replace a single ``Name`` load with an expression (in place)."""

    def __init__(self, name: str, replacement: ast.expr) -> None:
        self.name = name
        self.replacement = replacement

    def visit_Name(self, node: ast.Name):  # noqa: N802 - ast API
        if isinstance(node.ctx, ast.Load) and node.id == self.name:
            import copy

            return copy.deepcopy(self.replacement)
        return node


def _expr_forwardable(
    expr: ast.expr, pure_extra: frozenset[str]
) -> tuple[bool, bool]:
    """Classify an expression for copy forwarding.

    Returns ``(forwardable, fragile)``.  Forwardable expressions are
    side-effect free: operators, comparisons, conditional expressions,
    constants, name/subscript loads, and calls to known-pure helpers or
    ``__mem`` reads.  *Fragile* expressions read mutable aggregate state
    (memory or a subscript), so they must not be moved across a statement
    with architectural effects.
    """
    fragile = False
    for node in ast.walk(expr):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                if func.id not in pure_extra:
                    return False, fragile
            elif (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "__mem"
                and func.attr.startswith("read")
            ):
                fragile = True
            else:
                return False, fragile
        elif isinstance(node, ast.Subscript):
            if not isinstance(node.ctx, ast.Load):
                return False, fragile
            fragile = True
        elif isinstance(node, (ast.Lambda, ast.Await, ast.Yield, ast.YieldFrom)):
            return False, fragile
    return True, fragile


def _count_loads(stmts: list[ast.stmt], name: str) -> int:
    return sum(
        1
        for stmt in stmts
        for node in ast.walk(stmt)
        if isinstance(node, ast.Name)
        and isinstance(node.ctx, ast.Load)
        and node.id == name
    )


def forward_copies(
    stmts: list[ast.stmt],
    protected: frozenset[str],
    pure_extra: frozenset[str] = frozenset(),
) -> list[ast.stmt]:
    """Substitute single-use temporaries into their sole use site.

    The block translator's pipeline (constant folding, register caching,
    DCE) leaves chains like ``src1_val = __R_R_4; dest_val = op(src1_val);
    __R_R_3 = dest_val`` — one Python store+load pair per link.  This pass
    collapses them: a top-level ``x = expr`` whose ``x`` is read exactly
    once afterwards (and never rewritten before that read) is inlined into
    the reader and the definition dropped, provided ``expr`` is pure and
    no intervening statement writes a name it reads.

    ``protected`` names (interface fields, special/architectural registers,
    dunder-prefixed locals) are never forwarded: their assignments *are*
    the architectural or interface effect.  Statements list is returned
    rewritten; input order of surviving statements is preserved.
    """
    stmts = list(stmts)
    changed = True
    while changed:
        changed = False
        for i, stmt in enumerate(stmts):
            if (
                not isinstance(stmt, ast.Assign)
                or len(stmt.targets) != 1
                or not isinstance(stmt.targets[0], ast.Name)
            ):
                continue
            name = stmt.targets[0].id
            if name in protected or name.startswith("__"):
                continue
            ok, fragile = _expr_forwardable(stmt.value, pure_extra)
            if not ok:
                continue
            rest = stmts[i + 1 :]
            expr_reads = _expr_reads(stmt.value)
            expr_reads.discard(name)
            use_at = None
            blocked = False
            # The value is live only until ``name`` is redefined; count
            # reads within that window and require exactly one.
            for k, later in enumerate(rest):
                facts = analyze_stmt(later)
                n_loads = _count_loads([later], name)
                if n_loads:
                    if use_at is not None or n_loads > 1:
                        blocked = True
                        break
                    use_at = k
                if name in facts.writes:
                    if use_at == k and not _is_unconditional_kill(later):
                        # e.g. an ``if`` both reading and (conditionally)
                        # rewriting the name: evaluation order is unclear
                        blocked = True
                    break
                if use_at is None:
                    if facts.writes & expr_reads:
                        blocked = True  # an input of expr changes first
                        break
                    if fragile and stmt_is_anchored(facts, pure_extra):
                        blocked = True  # aggregate read crosses an effect
                        break
            if blocked or use_at is None:
                continue
            user = rest[use_at]
            if isinstance(user, (ast.While, ast.For)):
                continue  # substitution would re-evaluate per iteration
            if fragile and not isinstance(user, (ast.Assign, ast.Expr)):
                # A compound use site (e.g. ``if``) may order an effect
                # before the read; don't move aggregate reads into it.
                continue
            _NameSubst(name, stmt.value).visit(user)
            ast.fix_missing_locations(user)
            del stmts[i]
            changed = True
            break
    return stmts


def assigned_names(stmts: list[TaggedStmt]) -> set[str]:
    """All names written anywhere in the statement list."""
    out: set[str] = set()
    for tagged in stmts:
        out |= analyze_stmt(tagged.stmt).writes
    return out

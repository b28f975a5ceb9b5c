"""Tooling for the Python semantics snippets embedded in ADL sources.

LIS embeds C++ between ``%{ ... %}``; our ADL embeds Python.  Everything
the synthesizer needs to reason about a snippet lives here:

* :func:`parse_snippet` — parse + restrict to the allowed statement subset.
* :func:`analyze_stmt` — per-statement read/write/effect sets, the raw
  material for liveness analysis and dead-code elimination.
* :func:`rename_names` — alpha-renaming used to instantiate accessor
  snippets per operand slot (``index`` -> ``src1_id``, params -> fields).
* :func:`propagate_constants` — constant propagation/folding used by the
  basic-block translator, where decode-time knowledge turns format fields
  into literals.

Snippets may only use: assignments (including ``+=`` style and subscript
stores into register files), expressions, ``if``/``else``, ``pass``, and
calls.  ``import``, loops, ``def``, attribute access and similar are
rejected so that generated code stays analyzable and the dataflow facts
stay exact.
"""

from __future__ import annotations

import ast
import textwrap
from dataclasses import dataclass, field

from repro.adl.errors import SnippetError, SourceLoc

# Calls to these names never mutate simulator state; a statement whose only
# call targets are pure may be removed when its results are dead.
PURE_FUNCTIONS = frozenset(
    {
        "u8",
        "u16",
        "u32",
        "u64",
        "i8",
        "i16",
        "i32",
        "i64",
        "sext",
        "rotl32",
        "rotr32",
        "rotl64",
        "rotr64",
        "clz32",
        "ctz32",
        "popcount",
        "carry_add32",
        "carry_add64",
        "borrow_sub32",
        "overflow_add32",
        "overflow_sub32",
        "overflow_add64",
        "overflow_sub64",
        "bool",
        "int",
        "abs",
        "min",
        "max",
        "len",
        "divmod",
        # Memory loads and instruction fetches read but do not mutate.
        "__mem_read",
        "__mem_read_s",
        "__fetch",
        "__check_cond",
    }
)

# Calls to these names have architectural side effects; statements
# containing them are anchored (never dead-code-eliminated).
EFFECT_FUNCTIONS = frozenset({"__mem_write", "__syscall", "__raise"})

_ALLOWED_STMTS = (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Expr, ast.If, ast.Pass)
_ALLOWED_EXPRS = (
    ast.BinOp,
    ast.UnaryOp,
    ast.BoolOp,
    ast.Compare,
    ast.IfExp,
    ast.Call,
    ast.Name,
    ast.Constant,
    ast.Subscript,
    ast.Tuple,
    ast.Slice,
    ast.operator,
    ast.unaryop,
    ast.boolop,
    ast.cmpop,
    ast.expr_context,
    ast.keyword,
)


def parse_snippet(text: str, loc: SourceLoc | None = None) -> list[ast.stmt]:
    """Parse a snippet into a list of statements, enforcing the subset."""
    source = textwrap.dedent(text)
    try:
        module = ast.parse(source, mode="exec")
    except SyntaxError as exc:
        raise SnippetError(f"snippet is not valid Python: {exc.msg}", loc) from exc
    for node in ast.walk(module):
        if isinstance(node, ast.Module):
            continue
        if isinstance(node, _ALLOWED_STMTS) or isinstance(node, _ALLOWED_EXPRS):
            continue
        raise SnippetError(
            f"snippet uses disallowed construct {type(node).__name__}", loc
        )
    return module.body


@dataclass
class StmtFacts:
    """Dataflow facts for one snippet statement."""

    reads: set[str] = field(default_factory=set)
    writes: set[str] = field(default_factory=set)
    #: names of register files / containers stored into via subscripts
    subscript_writes: set[str] = field(default_factory=set)
    #: names of effectful functions called
    effects: set[str] = field(default_factory=set)
    #: names of called functions that are neither pure nor known-effectful
    unknown_calls: set[str] = field(default_factory=set)

    @property
    def has_effect(self) -> bool:
        """True when the statement must execute regardless of liveness."""
        return bool(self.effects or self.subscript_writes or self.unknown_calls)


class _FactsVisitor(ast.NodeVisitor):
    def __init__(self) -> None:
        self.facts = StmtFacts()

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            self.facts.reads.add(node.id)
        elif isinstance(node.ctx, (ast.Store, ast.Del)):
            self.facts.writes.add(node.id)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        if isinstance(node.ctx, ast.Store) and isinstance(node.value, ast.Name):
            self.facts.subscript_writes.add(node.value.id)
            self.facts.reads.add(node.value.id)
            self.visit(node.slice)
        else:
            self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        if isinstance(node.func, ast.Name):
            name = node.func.id
            if name in EFFECT_FUNCTIONS:
                self.facts.effects.add(name)
                if name == "__raise":
                    # __raise(code) lowers to `fault = code`
                    self.facts.writes.add("fault")
            elif name not in PURE_FUNCTIONS:
                self.facts.unknown_calls.add(name)
            self.facts.reads.discard(name)
        for arg in node.args:
            self.visit(arg)
        for kw in node.keywords:
            self.visit(kw.value)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        # x += y reads x as well as writing it.
        self.visit(node.value)
        if isinstance(node.target, ast.Name):
            self.facts.reads.add(node.target.id)
            self.facts.writes.add(node.target.id)
        elif isinstance(node.target, ast.Subscript) and isinstance(
            node.target.value, ast.Name
        ):
            self.facts.subscript_writes.add(node.target.value.id)
            self.facts.reads.add(node.target.value.id)
            self.visit(node.target.slice)
        else:  # pragma: no cover - parse_snippet rejects other targets
            self.visit(node.target)


def analyze_stmt(stmt: ast.stmt) -> StmtFacts:
    """Compute read/write/effect facts for one statement (recursively)."""
    visitor = _FactsVisitor()
    visitor.visit(stmt)
    return visitor.facts


def analyze_stmts(stmts: list[ast.stmt]) -> StmtFacts:
    """Union of :func:`analyze_stmt` over a statement list."""
    total = StmtFacts()
    for stmt in stmts:
        facts = analyze_stmt(stmt)
        total.reads |= facts.reads
        total.writes |= facts.writes
        total.subscript_writes |= facts.subscript_writes
        total.effects |= facts.effects
        total.unknown_calls |= facts.unknown_calls
    return total


class _Renamer(ast.NodeTransformer):
    def __init__(self, mapping: dict[str, str | ast.expr], loc: SourceLoc | None):
        self.mapping = mapping
        self.loc = loc

    def visit_Name(self, node: ast.Name) -> ast.expr:
        target = self.mapping.get(node.id)
        if target is None:
            return node
        if isinstance(target, str):
            return ast.copy_location(ast.Name(target, node.ctx), node)
        if isinstance(node.ctx, ast.Load):
            return ast.copy_location(target, node)
        raise SnippetError(
            f"cannot substitute expression for {node.id!r} in store context", self.loc
        )

    def visit_Call(self, node: ast.Call) -> ast.expr:
        # Function names are positions, not values: never rename them.
        node.args = [self.visit(arg) for arg in node.args]
        node.keywords = [
            ast.keyword(kw.arg, self.visit(kw.value)) for kw in node.keywords
        ]
        return node


def rename_names(
    stmts: list[ast.stmt],
    mapping: dict[str, str | ast.expr],
    loc: SourceLoc | None = None,
) -> list[ast.stmt]:
    """Return a deep copy of ``stmts`` with names substituted.

    String values rename both loads and stores; AST-expression values are
    substituted at loads only (a store through one is an error).
    """
    renamer = _Renamer(mapping, loc)
    out = []
    for stmt in stmts:
        copied = ast.parse(ast.unparse(stmt)).body[0]  # cheap deep copy
        out.append(ast.fix_missing_locations(renamer.visit(copied)))
    return out


# -- constant folding ---------------------------------------------------------


class _Folder(ast.NodeTransformer):
    """Evaluates expressions whose operands are all constants.

    ``env`` maps names to constant values (block-translate-time knowledge
    such as decoded format fields); ``funcs`` maps foldable function names
    to their Python implementations.
    """

    def __init__(self, env: dict[str, object], funcs: dict[str, object]):
        self.env = env
        self.funcs = funcs

    def _const(self, node: ast.AST, value: object) -> ast.expr:
        return ast.copy_location(ast.Constant(value), node)

    def visit_Name(self, node: ast.Name) -> ast.expr:
        if isinstance(node.ctx, ast.Load) and node.id in self.env:
            return self._const(node, self.env[node.id])
        return node

    def _try_eval(self, node: ast.expr) -> ast.expr:
        try:
            value = eval(  # noqa: S307 - expression built only from constants
                compile(ast.Expression(ast.fix_missing_locations(node)), "<fold>", "eval"),
                {"__builtins__": {}},
                {},
            )
        except Exception:
            return node
        return self._const(node, value)

    def visit_BinOp(self, node: ast.BinOp) -> ast.expr:
        node = self.generic_visit(node)
        if isinstance(node.left, ast.Constant) and isinstance(node.right, ast.Constant):
            return self._try_eval(node)
        return node

    def visit_UnaryOp(self, node: ast.UnaryOp) -> ast.expr:
        node = self.generic_visit(node)
        if isinstance(node.operand, ast.Constant):
            return self._try_eval(node)
        return node

    def visit_Compare(self, node: ast.Compare) -> ast.expr:
        node = self.generic_visit(node)
        if isinstance(node.left, ast.Constant) and all(
            isinstance(cmp, ast.Constant) for cmp in node.comparators
        ):
            return self._try_eval(node)
        return node

    def visit_BoolOp(self, node: ast.BoolOp) -> ast.expr:
        node = self.generic_visit(node)
        values = node.values
        if all(isinstance(v, ast.Constant) for v in values):
            return self._try_eval(node)
        # Short-circuit partial folding: `True and x` -> x, `False and x` -> False.
        if isinstance(values[0], ast.Constant):
            truthy = bool(values[0].value)
            if isinstance(node.op, ast.And):
                rest = values[1:] if truthy else []
                if not truthy:
                    return self._const(node, values[0].value)
            else:  # Or
                if truthy:
                    return self._const(node, values[0].value)
                rest = values[1:]
            if len(rest) == 1:
                return rest[0]
            if rest:
                return ast.copy_location(ast.BoolOp(node.op, rest), node)
        return node

    def visit_IfExp(self, node: ast.IfExp) -> ast.expr:
        node = self.generic_visit(node)
        if isinstance(node.test, ast.Constant):
            return node.body if node.test.value else node.orelse
        return node

    def visit_Call(self, node: ast.Call) -> ast.expr:
        node = self.generic_visit(node)
        if (
            isinstance(node.func, ast.Name)
            and node.func.id in self.funcs
            and not node.keywords
            and all(isinstance(arg, ast.Constant) for arg in node.args)
        ):
            try:
                value = self.funcs[node.func.id](*[arg.value for arg in node.args])
            except Exception:
                return node
            return self._const(node, value)
        return node

    def visit_If(self, node: ast.If) -> ast.stmt | list[ast.stmt]:
        node.test = self.visit(node.test)
        node.body = self._fold_body(node.body)
        node.orelse = self._fold_body(node.orelse)
        if isinstance(node.test, ast.Constant):
            taken = node.body if node.test.value else node.orelse
            return taken or [ast.copy_location(ast.Pass(), node)]
        return node

    def _fold_body(self, body: list[ast.stmt]) -> list[ast.stmt]:
        out: list[ast.stmt] = []
        for stmt in body:
            result = self.visit(stmt)
            if isinstance(result, list):
                out.extend(result)
            elif result is not None:
                out.append(result)
        return out


def propagate_constants(
    stmts: list[ast.stmt],
    env: dict[str, object],
    funcs: dict[str, object] | None = None,
    max_rounds: int = 4,
) -> tuple[list[ast.stmt], dict[str, object]]:
    """Fold constants through ``stmts`` given known name values.

    Names assigned anywhere in ``stmts`` are dropped from ``env`` first, so
    only genuinely constant names (decode-time format fields and literals)
    are propagated.  After each folding round, any name that is assigned
    exactly once, at the top level, from a constant (e.g. ``src1_id = 5``
    once format fields folded) is promoted into the environment and
    propagated in the next round.  Returns the folded statements and the
    final environment, which the block translator uses to embed operand
    identifiers as literals.
    """
    env = dict(env)
    promoted_names: set[str] = set()
    # Folding rewrites trees in place: copy the caller's statements once;
    # later rounds fold the trees the previous round built.
    current = [ast.parse(ast.unparse(stmt)).body[0] for stmt in stmts]
    for _ in range(max_rounds):
        # Keep promoted single-assignment names in the environment even
        # though they are written inside the snippet.
        written = analyze_stmts(current).writes - promoted_names
        live_env = {k: v for k, v in env.items() if k not in written}
        folder = _Folder(live_env, funcs or {})
        folded: list[ast.stmt] = []
        for stmt in current:
            result = folder.visit(stmt)
            if isinstance(result, list):
                folded.extend(result)
            elif result is not None:
                folded.append(ast.fix_missing_locations(result))
        current = [s for s in folded if not isinstance(s, ast.Pass)] or [ast.Pass()]
        write_counts: dict[str, int] = {}
        for stmt in current:
            for name in analyze_stmt(stmt).writes:
                write_counts[name] = write_counts.get(name, 0) + 1
        promoted = False
        for stmt in current:
            if (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and isinstance(stmt.value, ast.Constant)
            ):
                name = stmt.targets[0].id
                if write_counts.get(name) == 1 and name not in env:
                    env[name] = stmt.value.value
                    promoted_names.add(name)
                    promoted = True
        if not promoted:
            break
    return current, env

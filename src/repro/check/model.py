"""Static model of one synthesized simulator module.

:class:`ModuleModel` parses a generated module's source (never executes
it), classifies its top-level functions (interface entries, per
instruction bodies, step-split bodies), recovers the dynamic
instruction record layout from ``DynInst.__slots__``, and exposes the
small AST queries the checker passes share: attribute stores on the
record parameter, subscript stores on register files, call sites,
name definitions and uses.

The model also owns diagnostic attribution: every finding is anchored
to the generated line (``gen_loc``) and — via the provenance side-table
that :class:`repro.synth.codegen.SourceWriter` fills during generation
— to the originating ``.lis`` construct (``loc``), so ``repro check``
output is actionable in the specification the user actually edits.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field as dc_field

from repro.adl.errors import SourceLoc
from repro.check.codes import make_diagnostic
from repro.diag.core import Diagnostic
from repro.synth.provenance import SpecOrigin
from repro.synth.synthesizer import SYNTH_FILE_PREFIX

#: Record attributes that are interface bookkeeping, not spec fields.
#: ``budget`` is the block interfaces' chaining allowance (how many more
#: instructions a translated unit may execute before returning control).
RECORD_BOOKKEEPING = frozenset({"trace", "count", "_op", "budget"})

#: Prefix of the mangled carry slots step interfaces use to pass hidden
#: values between calls without exposing them as plain visible fields.
CARRY_PREFIX = "_c_"

_BODY_RE = re.compile(r"^_b_(\d+)$")
_STEP_BODY_RE = re.compile(r"^_sb_(\d+)_(\d+)$")


@dataclass(frozen=True)
class FunctionModel:
    """One top-level function of a generated module."""

    name: str
    node: ast.FunctionDef
    #: ``entry`` (interface call), ``body`` (per-instruction), ``other``
    kind: str
    #: instruction index for body functions
    instr_index: int | None = None
    #: entrypoint index for step-split bodies
    step: int | None = None


@dataclass
class ModuleModel:
    """Everything the checker passes need to know about one module."""

    generated: "GeneratedSimulator"  # noqa: F821 - avoids an import cycle
    source: str
    tree: ast.Module
    functions: dict[str, FunctionModel] = dc_field(default_factory=dict)
    #: record layout recovered from ``DynInst.__slots__``
    di_slots: tuple[str, ...] = ()

    # -- construction ----------------------------------------------------------

    @classmethod
    def build(
        cls, generated: "GeneratedSimulator", source: str | None = None  # noqa: F821
    ) -> "ModuleModel":
        """Parse a generated module (``source`` overrides, for tests)."""
        text = generated.source if source is None else source
        tree = ast.parse(text)
        model = cls(generated=generated, source=text, tree=tree)
        entry_names = set(generated.entry_names)
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and node.name == "DynInst":
                model.di_slots = _class_slots(node)
            elif isinstance(node, ast.FunctionDef):
                model.functions[node.name] = _classify(node, entry_names)
        return model

    # -- convenience views -----------------------------------------------------

    @property
    def plan(self):
        return self.generated.plan

    @property
    def spec(self):
        return self.generated.plan.spec

    @property
    def buildset(self):
        return self.generated.plan.buildset

    @property
    def options(self):
        return self.generated.plan.options

    @property
    def gen_filename(self) -> str:
        """Matches the filename ``synthesize`` compiles the module under."""
        return f"{SYNTH_FILE_PREFIX}{self.spec.name}/{self.buildset.name}>"

    def entry_functions(self) -> list[FunctionModel]:
        return [f for f in self.functions.values() if f.kind == "entry"]

    def body_functions(self) -> list[FunctionModel]:
        return [f for f in self.functions.values() if f.kind == "body"]

    def functions_of_instruction(self, index: int) -> list[FunctionModel]:
        """All bodies of one instruction (one for One, one per step for Step)."""
        out = [
            f
            for f in self.body_functions()
            if f.instr_index == index
        ]
        out.sort(key=lambda f: (f.step if f.step is not None else 0))
        return out

    def field_slots(self) -> set[str]:
        """Record slots that claim to be specification fields."""
        return {
            s
            for s in self.di_slots
            if s not in RECORD_BOOKKEEPING and not s.startswith(CARRY_PREFIX)
        }

    # -- diagnostic attribution ------------------------------------------------

    def diagnostic(
        self,
        code: str,
        message: str,
        *,
        node: ast.AST | None = None,
        lineno: int | None = None,
        function: str | None = None,
        loc_override: SourceLoc | None = None,
    ) -> Diagnostic:
        """Attribute a finding to generated line + originating spec construct."""
        line = lineno if lineno is not None else getattr(node, "lineno", None)
        gen_loc = None
        if line is not None:
            column = getattr(node, "col_offset", 0) + 1 if node is not None else 1
            gen_loc = SourceLoc(self.gen_filename, line, column)
        origin = self._origin(line, function)
        loc = origin.loc if origin is not None and origin.loc is not None else None
        if loc is None:
            loc = loc_override
        if origin is not None and origin.loc is None:
            message = f"{message} (origin: {origin.describe()})"
        return make_diagnostic(code, message, loc=loc, gen_loc=gen_loc)

    def _origin(
        self, line: int | None, function: str | None
    ) -> SpecOrigin | None:
        provenance = self.plan.provenance
        if line is not None:
            origin = provenance.origin_at(line, function)
            if origin is not None:
                return origin
        if function is not None:
            return provenance.functions.get(function)
        return None


# -- AST helpers shared by the passes ------------------------------------------


def _class_slots(node: ast.ClassDef) -> tuple[str, ...]:
    for stmt in node.body:
        if isinstance(stmt, ast.Assign):
            targets = [
                t.id for t in stmt.targets if isinstance(t, ast.Name)
            ]
            if "__slots__" in targets:
                value = ast.literal_eval(stmt.value)
                return tuple(value)
    return ()


def _classify(node: ast.FunctionDef, entry_names: set[str]) -> FunctionModel:
    if node.name in entry_names:
        return FunctionModel(node.name, node, "entry")
    match = _BODY_RE.match(node.name)
    if match:
        return FunctionModel(node.name, node, "body", instr_index=int(match[1]))
    match = _STEP_BODY_RE.match(node.name)
    if match:
        return FunctionModel(
            node.name, node, "body", instr_index=int(match[2]), step=int(match[1])
        )
    return FunctionModel(node.name, node, "other")


def attribute_stores(
    fn: ast.FunctionDef, obj: str
) -> list[tuple[str, ast.stmt]]:
    """``obj.attr = ...`` / ``obj.attr += ...`` statements, in source order."""
    out: list[tuple[str, ast.stmt]] = []
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if _is_attr_on(target, obj):
                    out.append((target.attr, node))
        elif isinstance(node, ast.AugAssign) and _is_attr_on(node.target, obj):
            out.append((node.target.attr, node))
    out.sort(key=lambda pair: pair[1].lineno)
    return out


def attribute_loads(fn: ast.FunctionDef, obj: str) -> list[tuple[str, ast.expr]]:
    """``obj.attr`` reads, in source order."""
    out = [
        (node.attr, node)
        for node in ast.walk(fn)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Load)
        and isinstance(node.value, ast.Name)
        and node.value.id == obj
    ]
    out.sort(key=lambda pair: pair[1].lineno)
    return out


def _is_attr_on(node: ast.AST, obj: str) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == obj
    )


def name_assignments(fn: ast.FunctionDef) -> list[tuple[str, ast.Assign]]:
    """Plain ``name = ...`` assignments anywhere in the function."""
    out: list[tuple[str, ast.Assign]] = []
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    out.append((target.id, node))
    out.sort(key=lambda pair: pair[1].lineno)
    return out


def names_loaded(fn: ast.FunctionDef) -> list[tuple[str, int]]:
    """Every ``Name`` read with its line, in source order."""
    out = [
        (node.id, node.lineno)
        for node in ast.walk(fn)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    ]
    out.sort(key=lambda pair: pair[1])
    return out


def call_name(node: ast.Call) -> str | None:
    """Dotted name of a call site (``__mem.write``, ``self._do_syscall``)."""
    func = node.func
    parts: list[str] = []
    while isinstance(func, ast.Attribute):
        parts.append(func.attr)
        func = func.value
    if isinstance(func, ast.Name):
        parts.append(func.id)
        return ".".join(reversed(parts))
    return None


def calls(fn: ast.FunctionDef) -> list[tuple[str, ast.Call]]:
    out = []
    for node in ast.walk(fn):
        if isinstance(node, ast.Call):
            name = call_name(node)
            if name is not None:
                out.append((name, node))
    out.sort(key=lambda pair: pair[1].lineno)
    return out


def subscript_stores(fn: ast.FunctionDef) -> list[tuple[str, ast.stmt]]:
    """``base[...] = ...`` statements keyed by dotted base name."""
    out: list[tuple[str, ast.stmt]] = []
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                base = _subscript_base(target)
                if base is not None:
                    out.append((base, node))
    out.sort(key=lambda pair: pair[1].lineno)
    return out


def _subscript_base(node: ast.AST) -> str | None:
    if not isinstance(node, ast.Subscript):
        return None
    value = node.value
    if isinstance(value, ast.Name):
        return value.id
    if isinstance(value, ast.Attribute) and isinstance(value.value, ast.Name):
        return f"{value.value.id}.{value.attr}"
    return None


def statement_blocks(fn: ast.FunctionDef):
    """Yield every statement list (function body, if/else/loop arms)."""
    stack: list[list[ast.stmt]] = [fn.body]
    while stack:
        block = stack.pop()
        yield block
        for stmt in block:
            for attr in ("body", "orelse", "finalbody"):
                sub = getattr(stmt, attr, None)
                if sub:
                    stack.append(sub)

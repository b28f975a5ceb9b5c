"""Static walk of runtime-translated units (superblocks and chaining).

The module-level checker passes validate what ``synthesize`` writes to
disk, but Block interfaces generate most of their code at *run* time:
the translator emits one specialized function per unit, shaped by
superblock formation (merged basic blocks, guarded side exits, unrolled
self-loops) and by direct chaining (budget debits, successor slots).
This module extends the checker's structural guarantees to that code.

The walk is static in the same sense as the rest of ``repro.check``:
units are translated — which only *reads* guest memory — then parsed
and analyzed; no guest instruction is ever executed.  Reachability
follows each unit's compile-time-constant exit targets, starting from a
workload image's entry point.

Per-unit guarantees:

* the unit parses and declares exit accounting (``CHK050``): every
  ``di.count`` store and every ``di.budget`` debit names a constant
  between 1 and the unit's instruction count;
* the unit appends exactly one trace record per translated instruction
  on its main path (``CHK051``) — batched constant records count by
  tuple arity;
* chain bookkeeping is consistent (``CHK052``): the successor slots the
  source references are exactly the cells attached to the function, and
  a chaining-off unit carries no chain residue at all;
* the zero-overhead-when-off contract (``CHK040``) extends to
  translated code: an observe-off unit never references the
  observability layer or the guest-PC profiling hit counters.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.arch.faults import IllegalInstruction
from repro.check.codes import make_diagnostic
from repro.diag.core import Diagnostic

#: kernels walked per block buildset (small, loop-heavy, syscall-using)
WALK_KERNELS = ("checksum", "sieve")

#: per-image cap on translated units (reachability closures are small,
#: but a malformed exit-target sweep must not run away)
MAX_UNITS = 24


@dataclass(frozen=True)
class UnitInfo:
    """One translated unit, as seen by the static walk."""

    pc: int
    source: str
    length: int
    cells: int
    exit_targets: tuple[int, ...]


def walk_units(generated, image, abi, max_units: int = MAX_UNITS) -> list[UnitInfo]:
    """Translate every unit statically reachable from ``image``'s entry."""
    from repro.sysemu.loader import load_image

    sim = generated.make()
    load_image(sim.state, image, abi)
    translator = sim._translator
    seen: set[int] = set()
    frontier = [sim.state.pc]
    units: list[UnitInfo] = []
    while frontier and len(units) < max_units:
        pc = frontier.pop()
        if pc in seen:
            continue
        seen.add(pc)
        try:
            fn = translator.translate(sim, pc)
        except IllegalInstruction:
            continue  # an exit target pointing at data, e.g. past a loop
        units.append(
            UnitInfo(
                pc=pc,
                source=fn.__block_source__,
                length=fn.__block_len__,
                cells=len(fn.__chain_cells__),
                exit_targets=translator.last_exit_targets,
            )
        )
        frontier.extend(t for t in translator.last_exit_targets if t not in seen)
    return units


def _trace_records_on_main_path(fn: ast.FunctionDef) -> int:
    """Trace records appended at the unit's top level (its main path)."""
    total = 0
    for stmt in fn.body:
        if (
            isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Call)
            and isinstance(stmt.value.func, ast.Attribute)
            and stmt.value.func.attr == "append"
            and isinstance(stmt.value.func.value, ast.Name)
            and stmt.value.func.value.id == "__trace"
        ):
            total += 1
        elif (
            isinstance(stmt, ast.AugAssign)
            and isinstance(stmt.target, ast.Name)
            and stmt.target.id == "__trace"
            and isinstance(stmt.value, ast.Tuple)
        ):
            total += len(stmt.value.elts)
    return total


def _record_constants(tree: ast.AST, attr: str) -> list[object]:
    """Constants stored into ``di.<attr>`` anywhere in the unit."""
    out: list[object] = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Attribute)
            and node.targets[0].attr == attr
            and isinstance(node.targets[0].value, ast.Name)
            and node.targets[0].value.id == "di"
        ):
            value = node.value
            out.append(value.value if isinstance(value, ast.Constant) else value)
    return out


def _budget_debits(tree: ast.AST) -> list[object]:
    """Constants ``K`` in ``di.budget - K`` debit expressions."""
    out: list[object] = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.BinOp)
            and isinstance(node.op, ast.Sub)
            and isinstance(node.left, ast.Attribute)
            and node.left.attr == "budget"
            and isinstance(node.left.value, ast.Name)
            and node.left.value.id == "di"
        ):
            right = node.right
            out.append(right.value if isinstance(right, ast.Constant) else right)
    return out


def check_unit(
    unit: UnitInfo,
    context: str,
    *,
    chain: bool,
    observe: bool,
) -> list[Diagnostic]:
    """Structural checks over one translated unit's source."""
    where = f"{context} unit at {unit.pc:#x}"
    try:
        tree = ast.parse(unit.source)
    except SyntaxError as exc:
        return [make_diagnostic("CHK050", f"{where} failed to parse: {exc}")]
    if len(tree.body) != 1 or not isinstance(tree.body[0], ast.FunctionDef):
        return [
            make_diagnostic(
                "CHK050", f"{where} is not a single function definition"
            )
        ]
    fn = tree.body[0]
    diags: list[Diagnostic] = []

    counts = _record_constants(tree, "count")
    if not counts:
        diags.append(
            make_diagnostic(
                "CHK050", f"{where} never stores ``di.count`` on any exit path"
            )
        )
    for value in counts:
        if not isinstance(value, int) or not 1 <= value <= unit.length:
            diags.append(
                make_diagnostic(
                    "CHK050",
                    f"{where} stores di.count = {value!r}, outside "
                    f"[1, {unit.length}]",
                )
            )
    for value in _budget_debits(tree):
        if not isinstance(value, int) or not 1 <= value <= unit.length:
            diags.append(
                make_diagnostic(
                    "CHK050",
                    f"{where} debits di.budget by {value!r}, outside "
                    f"[1, {unit.length}]",
                )
            )

    records = _trace_records_on_main_path(fn)
    if records != unit.length:
        diags.append(
            make_diagnostic(
                "CHK051",
                f"{where} appends {records} trace record(s) on its main "
                f"path but translated {unit.length} instruction(s)",
            )
        )

    referenced = {
        node.id
        for node in ast.walk(fn)
        if isinstance(node, ast.Name) and node.id.startswith("__chain_")
    }
    expected = {f"__chain_{i}" for i in range(unit.cells)}
    if chain:
        if referenced != expected:
            diags.append(
                make_diagnostic(
                    "CHK052",
                    f"{where} references chain slots {sorted(referenced)} "
                    f"but carries cells {sorted(expected)}",
                )
            )
    else:
        residue = sorted(referenced) + (
            ["di.budget"] if _budget_debits(tree) else []
        )
        if unit.cells or residue:
            diags.append(
                make_diagnostic(
                    "CHK052",
                    f"{where} was translated with chaining off but carries "
                    f"chain residue: {residue or unit.cells}",
                )
            )
    if not observe:
        for probe, layer in (("self.obs", "observability layer"),
                             ("_prof", "guest-PC profiling layer")):
            if probe in unit.source:
                diags.append(
                    make_diagnostic(
                        "CHK040",
                        f"{where} references the {layer} in an "
                        f"observe-off translation",
                    )
                )
    return diags


def check_translated_units(
    isa: str,
    spec,
    options=None,
    buildsets=None,
    kernels: tuple[str, ...] = WALK_KERNELS,
) -> list[Diagnostic]:
    """Walk and check the Block buildsets of one ISA over small kernels."""
    from repro.isa.base import get_bundle
    from repro.synth import SynthOptions, synthesize
    from repro.workloads import SUITE, assemble_kernel

    options = options or SynthOptions()
    names = [
        name
        for name in (buildsets if buildsets is not None else sorted(spec.buildsets))
        if spec.buildsets[name].semantic_detail == "block"
    ]
    if not names:
        return []
    bundle = get_bundle(isa)
    diags: list[Diagnostic] = []
    for name in names:
        try:
            generated = synthesize(spec, name, options)
        except Exception:  # noqa: BLE001 - check_spec already reported it
            continue
        for kernel in kernels:
            if kernel not in SUITE:
                continue
            image = assemble_kernel(isa, SUITE[kernel], 4)
            context = f"{spec.name}/{name} [{kernel}]"
            try:
                units = walk_units(generated, image, bundle.abi)
            except Exception as exc:  # noqa: BLE001 - a crash is a finding
                diags.append(
                    make_diagnostic(
                        "CHK050",
                        f"{context}: block walk failed: "
                        f"{type(exc).__name__}: {exc}",
                    )
                )
                continue
            for unit in units:
                diags.extend(
                    check_unit(
                        unit,
                        context,
                        chain=options.chain,
                        observe=options.observe,
                    )
                )
    return diags

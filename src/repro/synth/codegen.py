"""Generation of specialized functional simulators (One and Step detail).

Given an :class:`~repro.adl.spec.IsaSpec` and one of its buildsets, this
module emits Python source implementing exactly the paper's Figure 4
transformation:

* instruction semantics are inlined into each interface function, so no
  "aggressive inlining in the compiler" is needed (§V.C);
* hidden fields are plain locals; visible fields are stored into the
  dynamic-instruction record;
* information that is neither visible nor semantically needed is removed
  by dead-code elimination (:mod:`repro.synth.dataflow`);
* with speculation enabled, every architectural write is journaled.

Block-level semantic detail is produced at runtime by
:mod:`repro.synth.translator`, which shares the assembly helpers here.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field as dc_field

from repro.adl.snippets import analyze_stmt
from repro.adl.spec import Buildset, Entrypoint, Instruction, IsaSpec
from repro.synth.dataflow import TaggedStmt, assigned_names, eliminate_dead
from repro.synth.errors import SynthesisError
from repro.synth.provenance import Provenance, SpecOrigin
from repro.synth.rewrite import RewriteContext, rewrite_stmt, rewrite_stmts


@dataclass(frozen=True)
class SynthOptions:
    """Knobs used by the ablation benchmarks and the observability layer."""

    dce: bool = True
    regcache: bool = True
    #: emit instrumentation probes into generated code: per-entrypoint
    #: invocation counts (``_obs_ep``) and per-guest-PC hit counts
    #: (``_prof_hits``, the :mod:`repro.prof` hot-PC attribution); off by
    #: default so the disabled path carries zero extra bytecode, proved
    #: structurally by ``repro check``'s CHK040 residue pass
    observe: bool = False
    #: total instruction budget of one translation unit; when positive the
    #: block translator follows compile-time-constant unconditional control
    #: transfers across basic-block boundaries up to this many instructions
    #: (each constituent basic block still capped at the translator's
    #: ``MAX_BLOCK``); 0 restores classic single-basic-block units
    superblock: int = 256
    #: patch translated units to transfer directly to their successors
    #: (QEMU-style lazy block chaining) instead of returning to the
    #: dispatch loop after every unit
    chain: bool = True


@dataclass
class BuildPlan:
    """Pre-computed facts shared by the generators and the translator."""

    spec: IsaSpec
    buildset: Buildset
    options: SynthOptions
    decode_action: str
    #: entrypoint containing the decode action
    decode_ep_index: int
    #: actions that run before decode (instruction-independent)
    pre_actions: tuple[str, ...]
    #: actions from decode onward, in interface order
    post_actions: tuple[str, ...]
    #: entrypoint index for each post action
    ep_of_action: dict[str, int] = dc_field(default_factory=dict)
    #: canonical order of visible fields (trace record layout)
    trace_fields: tuple[str, ...] = ()
    #: static observability metadata: per-action [total, eliminated]
    #: statement counts accumulated while generating this plan's module
    dce_stats: dict[str, list[int]] = dc_field(default_factory=dict)
    #: generated-line -> spec-construct side-table filled during generation
    #: (consumed by :mod:`repro.check` for diagnostic attribution)
    provenance: Provenance = dc_field(default_factory=Provenance)

    @property
    def pure_names(self) -> frozenset[str]:
        return frozenset(self.spec.helpers)


def make_plan(spec: IsaSpec, buildset: Buildset, options: SynthOptions) -> BuildPlan:
    """Validate the buildset against the spec and precompute layout facts."""
    if not spec.instructions:
        raise SynthesisError("specification has no instructions")
    decode_actions = {slot.decode_action for slot in spec.operand_slots.values()}
    if len(decode_actions) > 1:
        raise SynthesisError(
            f"operand slots disagree on the decode action: {sorted(decode_actions)}"
        )
    if decode_actions:
        decode_action = next(iter(decode_actions))
    else:
        raise SynthesisError("specification declares no operand slots")

    ep_of_action: dict[str, int] = {}
    for index, ep in enumerate(buildset.entrypoints):
        for action in ep.actions:
            if action in ep_of_action:
                raise SynthesisError(
                    f"action {action!r} appears in more than one entrypoint"
                )
            ep_of_action[action] = index
    if decode_action not in ep_of_action:
        raise SynthesisError(
            f"buildset {buildset.name!r} never performs the decode action "
            f"{decode_action!r}"
        )
    decode_ep = ep_of_action[decode_action]

    pre: list[str] = []
    post: list[str] = []
    for index, ep in enumerate(buildset.entrypoints):
        for action in ep.actions:
            if index < decode_ep:
                pre.append(action)
            elif index == decode_ep:
                ep_actions = list(ep.actions)
                if ep_actions.index(action) < ep_actions.index(decode_action):
                    pre.append(action)
                else:
                    post.append(action)
            else:
                post.append(action)

    _validate_pre_actions(spec, pre)
    trace_fields = tuple(
        name for name in spec.fields if name in buildset.visible
    )
    return BuildPlan(
        spec=spec,
        buildset=buildset,
        options=options,
        decode_action=decode_action,
        decode_ep_index=decode_ep,
        pre_actions=tuple(pre),
        post_actions=tuple(post),
        ep_of_action=ep_of_action,
        trace_fields=trace_fields,
    )


def _validate_pre_actions(spec: IsaSpec, pre: list[str]) -> None:
    """Pre-decode actions must not vary per instruction (nothing is decoded)."""
    for action in pre:
        rendered = {
            "\n".join(ast.unparse(s) for s in instr.action_code.get(action, ()))
            for instr in spec.instructions
        }
        if len(rendered) > 1:
            raise SynthesisError(
                f"action {action!r} runs before decode but differs between "
                f"instructions"
            )


# -- statement assembly ---------------------------------------------------------


def _copy_stmt(stmt: ast.stmt) -> ast.stmt:
    return ast.parse(ast.unparse(stmt)).body[0]


def _extraction_stmt(bitfield, word_var: str = "instr_bits") -> ast.stmt:
    """``name = (instr_bits >> lo) & mask`` with optional sign extension."""
    mask = (1 << bitfield.width) - 1
    expr: ast.expr = ast.Name(word_var, ast.Load())
    if bitfield.lo:
        expr = ast.BinOp(expr, ast.RShift(), ast.Constant(bitfield.lo))
    expr = ast.BinOp(expr, ast.BitAnd(), ast.Constant(mask))
    if bitfield.signed:
        expr = ast.Call(
            ast.Name("sext", ast.Load()), [expr, ast.Constant(bitfield.width)], []
        )
    assign = ast.Assign([ast.Name(bitfield.name, ast.Store())], expr)
    return ast.fix_missing_locations(assign)


def _assign_const(name: str, value: object) -> ast.stmt:
    return ast.fix_missing_locations(
        ast.Assign([ast.Name(name, ast.Store())], ast.Constant(value))
    )


def _parse_one(source: str) -> ast.stmt:
    return ast.parse(source).body[0]


def assemble_instruction_stmts(
    plan: BuildPlan, instr: Instruction
) -> list[TaggedStmt]:
    """Ordered post-decode statements for one instruction.

    Includes synthetic statements: format bitfield extraction, the
    ``next_pc`` fall-through default and the ``fault = 0`` reset, all
    tagged with the decode action so step splitting places them there.
    Post-predicate actions are wrapped in ``if <predicate>:`` blocks.
    """
    spec = plan.spec
    out: list[TaggedStmt] = []
    decode = plan.decode_action
    for bitfield in instr.format.bitfields.values():
        out.append(TaggedStmt(decode, _extraction_stmt(bitfield)))
    out.append(
        TaggedStmt(decode, _parse_one(f"next_pc = pc + {spec.ilen}"))
    )
    out.append(TaggedStmt(decode, _assign_const("fault", 0)))

    predicate_field: str | None = None
    predicate_after = ""
    if spec.predicate is not None:
        predicate_field, predicate_after = spec.predicate

    for action in plan.post_actions:
        stmts = [_copy_stmt(s) for s in instr.action_code.get(action, ())]
        if not stmts:
            continue
        guarded = (
            predicate_field is not None
            and spec.action_index(action) > spec.action_index(predicate_after)
        )
        if guarded:
            wrapper = ast.If(
                ast.Name(predicate_field, ast.Load()), stmts, []
            )
            out.append(TaggedStmt(action, ast.fix_missing_locations(wrapper)))
        else:
            out.extend(TaggedStmt(action, s) for s in stmts)
    return out


def instruction_live_out(plan: BuildPlan, stmts: list[TaggedStmt]) -> set[str]:
    """Names this instruction must leave correct: interface-visible
    fields, the control outputs, and any special registers it writes
    (those are architectural state regardless of visibility)."""
    assigned = assigned_names(stmts)
    live = assigned & plan.buildset.visible
    live |= {"next_pc", "fault"}  # always control the simulator
    live |= assigned & set(plan.spec.sregs)
    return live


def optimize_stmts(
    plan: BuildPlan, stmts: list[TaggedStmt], live_out: set[str]
) -> list[TaggedStmt]:
    """Apply (optional) dead-code elimination."""
    if not plan.options.dce:
        return stmts
    kept = eliminate_dead(stmts, live_out, plan.pure_names)
    record_dce_stats(plan, stmts, kept)
    return kept


def record_dce_stats(
    plan: BuildPlan, full: list[TaggedStmt], kept: list[TaggedStmt]
) -> None:
    """Accumulate per-action statement/eliminated counts on the plan.

    This is the "DCE-eliminated action counts emitted as static
    metadata" observability feed: it costs nothing at run time because
    it is computed once, during generation.
    """
    kept_per_action: dict[str, int] = {}
    for tagged in kept:
        kept_per_action[tagged.action] = kept_per_action.get(tagged.action, 0) + 1
    totals: dict[str, int] = {}
    for tagged in full:
        totals[tagged.action] = totals.get(tagged.action, 0) + 1
    for action, total in totals.items():
        entry = plan.dce_stats.setdefault(action, [0, 0])
        entry[0] += total
        entry[1] += total - kept_per_action.get(action, 0)


def _definitely_assigned_walk(
    stmts: list[TaggedStmt], predefined: set[str], domain: set[str]
) -> set[str]:
    """Names in ``domain`` read before any sure assignment (need 0-init)."""
    defined = set(predefined)
    needs: set[str] = set()
    for tagged in stmts:
        facts = analyze_stmt(tagged.stmt)
        needs |= (facts.reads & domain) - defined
        if not isinstance(tagged.stmt, ast.If):
            # conditional writes do not count as definite assignment
            defined |= facts.writes
    return needs


def zero_init_names(
    plan: BuildPlan,
    kept: list[TaggedStmt],
    full: list[TaggedStmt],
    predefined: set[str],
    extra_reads: set[str],
) -> list[str]:
    """Names needing a defensive ``= 0`` before the body runs.

    ``extra_reads`` covers reads performed by epilogue code (visible-field
    stores, carries).  The domain of candidate names is everything any
    statement of the *unoptimized* body could write — i.e. fields and
    snippet locals — so globals and helpers are never shadowed.
    """
    domain = assigned_names(full) | set(plan.spec.fields)
    needs = _definitely_assigned_walk(kept, predefined, domain)
    # Epilogue reads of names that no kept statement surely assigned.
    defined = set(predefined)
    for tagged in kept:
        if not isinstance(tagged.stmt, ast.If):
            defined |= analyze_stmt(tagged.stmt).writes
    needs |= (extra_reads & domain) - defined
    return sorted(needs)


# -- source rendering -------------------------------------------------------------


class SourceWriter:
    """Tiny indentation-aware source accumulator.

    When constructed with a :class:`Provenance`, every emitted line may
    carry a :class:`SpecOrigin` recorded against its 1-based line number.
    """

    def __init__(self, provenance: Provenance | None = None) -> None:
        self._lines: list[str] = []
        self._indent = 0
        self.provenance = provenance

    def line(self, text: str = "", origin: SpecOrigin | None = None) -> None:
        self._lines.append(("    " * self._indent) + text if text else "")
        if origin is not None and self.provenance is not None:
            self.provenance.record_line(len(self._lines), origin)

    def stmts(
        self, stmts: list[ast.stmt], origin: SpecOrigin | None = None
    ) -> None:
        for stmt in stmts:
            for line in ast.unparse(stmt).splitlines():
                self.line(line, origin)

    def mark_function(self, name: str, origin: SpecOrigin) -> None:
        if self.provenance is not None:
            self.provenance.record_function(name, origin)

    def merge(self, sub: "SourceWriter") -> None:
        """Append a sub-writer's lines (at current indent), keeping provenance."""
        offset = len(self._lines)
        prefix = "    " * self._indent
        for line in sub._lines:
            self._lines.append(prefix + line if line else line)
        if self.provenance is not None and sub.provenance is not None:
            self.provenance.merge_offset(sub.provenance, offset)

    def indent(self) -> None:
        self._indent += 1

    def dedent(self) -> None:
        self._indent -= 1

    def source(self) -> str:
        return "\n".join(self._lines) + "\n"


def _sregs_read_written(
    plan: BuildPlan, stmts: list[TaggedStmt]
) -> tuple[set[str], set[str]]:
    reads: set[str] = set()
    writes: set[str] = set()
    sregs = set(plan.spec.sregs)
    for tagged in stmts:
        facts = analyze_stmt(tagged.stmt)
        reads |= facts.reads & sregs
        writes |= facts.writes & sregs
    return reads, writes


def _regfiles_used(plan: BuildPlan, stmts: list[ast.stmt]) -> list[str]:
    used: set[str] = set()
    names = set(plan.spec.regfiles)
    for stmt in stmts:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and node.id in names:
                used.add(node.id)
    return sorted(used)


def _mem_used(stmts: list[ast.stmt]) -> bool:
    for stmt in stmts:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and node.id == "__mem":
                return True
    return False


def _visible_assigned(plan: BuildPlan, stmts: list[TaggedStmt]) -> list[str]:
    assigned = assigned_names(stmts)
    return [f for f in plan.spec.fields if f in assigned and f in plan.buildset.visible]


# -- decode dispatch ---------------------------------------------------------------


def emit_decode_dispatch(writer: SourceWriter, plan: BuildPlan, word: str) -> None:
    """Emit inline mask/table decode; leaves ``__op`` holding the index."""
    groups = plan.spec.decode_groups()
    for position, (mask, _table) in enumerate(groups):
        lookup = f"_T{position}.get({word} & {mask:#x})"
        if position == 0:
            writer.line(f"__op = {lookup}")
        else:
            writer.line("if __op is None:")
            writer.indent()
            writer.line(f"__op = {lookup}")
            writer.dedent()


def decode_tables(plan: BuildPlan) -> dict[str, dict[int, int]]:
    return {
        f"_T{position}": table
        for position, (_mask, table) in enumerate(plan.spec.decode_groups())
    }


# -- dynamic instruction class -------------------------------------------------------


def emit_dyninst_class(
    writer: SourceWriter,
    plan: BuildPlan,
    carry_slots: list[str],
    extra_slots: tuple[str, ...] = (),
) -> None:
    slots = (
        list(plan.trace_fields)
        + ["trace", "count", "_op"]
        + carry_slots
        + list(extra_slots)
    )
    writer.line("class DynInst:")
    writer.indent()
    writer.line('"""Dynamic-instruction record for this interface."""')
    writer.line(f"__slots__ = {tuple(slots)!r}")
    writer.line("def __init__(self):")
    writer.indent()
    for name in plan.trace_fields:
        writer.line(f"self.{name} = 0")
    writer.line("self.trace = []")
    writer.line("self.count = 0")
    writer.line("self._op = 0")
    for name in carry_slots:
        writer.line(f"self.{name} = 0")
    for name in extra_slots:
        writer.line(f"self.{name} = 0")
    writer.dedent()
    writer.dedent()
    writer.line()


# -- pre-decode code -----------------------------------------------------------------


def predecode_stmts(plan: BuildPlan) -> list[ast.stmt]:
    """Instruction-independent statements before decode, plus pc read."""
    instr = plan.spec.instructions[0]
    stmts: list[ast.stmt] = [_parse_one("pc = __state.pc")]
    for action in plan.pre_actions:
        stmts.extend(_copy_stmt(s) for s in instr.action_code.get(action, ()))
    return stmts


def predecode_defined(plan: BuildPlan) -> set[str]:
    out = {"pc"}
    instr = plan.spec.instructions[0]
    for action in plan.pre_actions:
        for stmt in instr.action_code.get(action, ()):
            out |= analyze_stmt(stmt).writes
    return out


# -- One-call-per-instruction generator ------------------------------------------------


def generate_one_module(plan: BuildPlan) -> str:
    """Source for a buildset with a single (non-block) entrypoint."""
    spec = plan.spec
    buildset = plan.buildset
    entry = buildset.entrypoints[0]
    writer = SourceWriter(plan.provenance)
    writer.line(f'"""Synthesized simulator: {spec.name}/{buildset.name} (one)."""')
    writer.line()
    emit_dyninst_class(writer, plan, carry_slots=[])

    pre_defined = predecode_defined(plan)
    for index, instr in enumerate(spec.instructions):
        _emit_one_body(writer, plan, instr, index, pre_defined)

    # Entry function.
    entry_origin = SpecOrigin(kind="entry", detail=entry.name, loc=buildset.loc)
    writer.mark_function(entry.name, entry_origin)
    writer.line(f"def {entry.name}(self, di):", entry_origin)
    writer.indent()
    if plan.options.observe:
        writer.line(f"self._obs_ep[{entry.name!r}] += 1")
    writer.line("__state = self.state")
    pre = predecode_stmts(plan)
    ctx = RewriteContext(
        ilen=spec.ilen, speculate=False, regfiles=frozenset(spec.regfiles)
    )
    pre = rewrite_stmts(pre, ctx)
    if _mem_used(pre):
        writer.line("__mem = __state.mem")
    writer.stmts(pre, SpecOrigin(kind="predecode", loc=buildset.loc))
    emit_decode_dispatch(writer, plan, "instr_bits")
    writer.line("if __op is None:")
    writer.indent()
    writer.line("raise IllegalInstruction(pc, instr_bits)")
    writer.dedent()
    for name in sorted(pre_defined & buildset.visible):
        writer.line(
            f"di.{name} = {name}",
            SpecOrigin(kind="store", detail=name, loc=_field_loc(spec, name)),
        )
    if plan.options.observe:
        writer.line("_ph = self._prof_hits")
        writer.line("_ph[pc] = _ph.get(pc, 0) + 1")
    writer.line("_B[__op](self, di, pc, instr_bits)", SpecOrigin(kind="dispatch"))
    writer.dedent()
    writer.line()
    writer.line(f"ENTRYPOINTS = {(entry.name,)!r}")
    return writer.source()


def _field_loc(spec: IsaSpec, name: str):
    field = spec.fields.get(name)
    return field.loc if field is not None else None


def _action_origin(instr: Instruction, tagged: TaggedStmt, step: int | None = None):
    """Origin for one kept statement: its action's snippet, else the instr."""
    return SpecOrigin(
        instr=instr.name,
        action=tagged.action,
        kind="semantics",
        step=step,
        loc=instr.action_locs.get(tagged.action, instr.loc),
    )


def _rewrite_tagged(
    kept: list[TaggedStmt], ctx: RewriteContext, instr: Instruction,
    step: int | None = None,
) -> list[tuple[SpecOrigin, list[ast.stmt]]]:
    """Rewrite kept statements one by one, keeping their origins."""
    return [
        (_action_origin(instr, tagged, step), rewrite_stmt(tagged.stmt, ctx))
        for tagged in kept
    ]


def _emit_one_body(
    writer: SourceWriter,
    plan: BuildPlan,
    instr: Instruction,
    index: int,
    pre_defined: set[str],
) -> None:
    spec = plan.spec
    speculate = plan.buildset.speculation
    full = assemble_instruction_stmts(plan, instr)
    live_out = instruction_live_out(plan, full)
    kept = optimize_stmts(plan, full, live_out)

    visible_stores = _visible_assigned(plan, kept)
    sreg_reads, sreg_writes = _sregs_read_written(plan, kept)
    sregs_bound = sorted(sreg_reads | sreg_writes)

    predefined = {"pc", "instr_bits", "self", "di"} | set(sregs_bound)
    extra_reads = set(visible_stores) | {"next_pc"}
    zero_inits = zero_init_names(plan, kept, full, predefined, extra_reads)

    # Reads of values produced before decode (e.g. phys_pc) load from di.
    reads_of_pre = set()
    for tagged in kept:
        reads_of_pre |= analyze_stmt(tagged.stmt).reads
    di_loads = sorted((reads_of_pre & pre_defined) - {"pc", "instr_bits"})

    ctx = RewriteContext(
        ilen=spec.ilen, speculate=speculate, regfiles=frozenset(spec.regfiles)
    )
    rewritten = _rewrite_tagged(kept, ctx, instr)
    body_stmts = [s for _origin, stmts in rewritten for s in stmts]

    body_origin = SpecOrigin(instr=instr.name, kind="body", loc=instr.loc)
    writer.mark_function(f"_b_{index}", body_origin)
    writer.line(f"def _b_{index}(self, di, pc, instr_bits):", body_origin)
    writer.indent()
    writer.line(f"# {instr.name}")
    writer.line("__state = self.state")
    if _mem_used(body_stmts):
        writer.line("__mem = __state.mem")
    for regfile in _regfiles_used(plan, body_stmts):
        writer.line(f"{regfile} = __state.rf[{regfile!r}]")
    for sreg in sregs_bound:
        writer.line(
            f"{sreg} = __state.sr[{sreg!r}]",
            SpecOrigin(instr=instr.name, kind="sreg", detail=sreg),
        )
    for name in di_loads:
        writer.line(f"{name} = di.{name}")
    if speculate:
        journal = SpecOrigin(instr=instr.name, kind="journal", loc=instr.loc)
        writer.line("__j = [('p', pc)]", journal)
        for sreg in sorted(sreg_writes):
            writer.line(f"__j.append(('s', {sreg!r}, {sreg}))", journal)
    for name in zero_inits:
        writer.line(
            f"{name} = 0", SpecOrigin(instr=instr.name, kind="zero_init", detail=name)
        )
    for origin, stmts in rewritten:
        writer.stmts(stmts, origin)
    for sreg in sorted(sreg_writes):
        writer.line(
            f"__state.sr[{sreg!r}] = {sreg}",
            SpecOrigin(instr=instr.name, kind="sreg", detail=sreg, loc=instr.loc),
        )
    if speculate:
        writer.line(
            "__state.journal.append(__j)",
            SpecOrigin(instr=instr.name, kind="journal", loc=instr.loc),
        )
    for name in visible_stores:
        writer.line(
            f"di.{name} = {name}",
            SpecOrigin(
                instr=instr.name, kind="store", detail=name,
                loc=_field_loc(spec, name) or instr.loc,
            ),
        )
    writer.line(
        "__state.pc = next_pc",
        SpecOrigin(instr=instr.name, kind="commit", loc=instr.loc),
    )
    writer.dedent()
    writer.line()


# -- Step (multi-call) generator ----------------------------------------------------------


def generate_step_module(plan: BuildPlan) -> str:
    """Source for a buildset whose entrypoints split instruction steps."""
    spec = plan.spec
    buildset = plan.buildset
    writer = SourceWriter(plan.provenance)
    writer.line(f'"""Synthesized simulator: {spec.name}/{buildset.name} (step)."""')
    writer.line()

    carry_slots: set[str] = set()
    bodies_src: list[SourceWriter] = []

    pre_defined = predecode_defined(plan)
    n_eps = len(buildset.entrypoints)

    # Generate per-instruction, per-step bodies.
    step_tables: dict[int, list[str]] = {
        index: [] for index in range(plan.decode_ep_index, n_eps)
    }
    for index, instr in enumerate(spec.instructions):
        sources, slots = _emit_step_bodies(plan, instr, index, pre_defined)
        carry_slots |= slots
        for ep_index, sub in sources.items():
            bodies_src.append(sub)
            step_tables[ep_index].append(f"_sb_{ep_index}_{index}")

    emit_dyninst_class(writer, plan, sorted(carry_slots))
    for sub in bodies_src:
        writer.merge(sub)
        writer.line()

    for ep_index in range(plan.decode_ep_index, n_eps):
        names = ", ".join(step_tables[ep_index])
        writer.line(f"_S{ep_index} = ({names},)")
    writer.line()

    # Entry functions.
    ctx = RewriteContext(
        ilen=spec.ilen, speculate=False, regfiles=frozenset(spec.regfiles)
    )
    for ep_index, ep in enumerate(buildset.entrypoints):
        entry_origin = SpecOrigin(
            kind="entry", detail=ep.name, step=ep_index, loc=buildset.loc
        )
        writer.mark_function(ep.name, entry_origin)
        writer.line(f"def {ep.name}(self, di):", entry_origin)
        writer.indent()
        if plan.options.observe:
            writer.line(f"self._obs_ep[{ep.name!r}] += 1")
        predecode = SpecOrigin(kind="predecode", step=ep_index, loc=buildset.loc)
        if ep_index < plan.decode_ep_index:
            writer.line("__state = self.state")
            pre = rewrite_stmts(predecode_stmts(plan), ctx)
            if _mem_used(pre):
                writer.line("__mem = __state.mem")
            writer.stmts(pre, predecode)
            for name in sorted(predecode_defined(plan) & buildset.visible):
                writer.line(
                    f"di.{name} = {name}",
                    SpecOrigin(kind="store", detail=name,
                               loc=_field_loc(spec, name)),
                )
            if plan.options.observe and ep_index == 0:
                writer.line("_ph = self._prof_hits")
                writer.line("_ph[pc] = _ph.get(pc, 0) + 1")
        elif ep_index == plan.decode_ep_index:
            if plan.decode_ep_index == 0:
                # decode entry also performs the pre-decode work
                writer.line("__state = self.state")
                pre = rewrite_stmts(predecode_stmts(plan), ctx)
                if _mem_used(pre):
                    writer.line("__mem = __state.mem")
                writer.stmts(pre, predecode)
                for name in sorted(predecode_defined(plan) & buildset.visible):
                    writer.line(
                        f"di.{name} = {name}",
                        SpecOrigin(kind="store", detail=name,
                                   loc=_field_loc(spec, name)),
                    )
                if plan.options.observe:
                    writer.line("_ph = self._prof_hits")
                    writer.line("_ph[pc] = _ph.get(pc, 0) + 1")
            else:
                writer.line("instr_bits = di.instr_bits")
            emit_decode_dispatch(writer, plan, "instr_bits")
            writer.line("if __op is None:")
            writer.indent()
            writer.line("raise IllegalInstruction(di.pc, instr_bits)")
            writer.dedent()
            writer.line("di._op = __op")
            writer.line(f"_S{ep_index}[__op](self, di)", SpecOrigin(kind="dispatch"))
        else:
            writer.line(
                f"_S{ep_index}[di._op](self, di)", SpecOrigin(kind="dispatch")
            )
        writer.dedent()
        writer.line()
    writer.line(f"ENTRYPOINTS = {tuple(ep.name for ep in buildset.entrypoints)!r}")
    return writer.source()


def _emit_step_bodies(
    plan: BuildPlan,
    instr: Instruction,
    index: int,
    pre_defined: set[str],
) -> tuple[dict[int, "SourceWriter"], set[str]]:
    """Bodies for one instruction, one per post-decode entrypoint.

    Returns per-entrypoint sub-writers (merged into the module writer by
    the caller, provenance included) plus the carry slots they need.
    """
    spec = plan.spec
    buildset = plan.buildset
    speculate = buildset.speculation
    full = assemble_instruction_stmts(plan, instr)
    live_out = instruction_live_out(plan, full)
    kept = optimize_stmts(plan, full, live_out)

    n_eps = len(buildset.entrypoints)
    last_ep = n_eps - 1
    by_step: dict[int, list[TaggedStmt]] = {
        ep: [] for ep in range(plan.decode_ep_index, n_eps)
    }
    for tagged in kept:
        by_step[plan.ep_of_action[tagged.action]].append(tagged)

    # Dataflow between steps: definitions (any write), sure definitions
    # (unconditional writes) and upward-exposed uses per step.  A name
    # written only under an `if` does not satisfy later reads: those must
    # reload the carried value.
    defs_per_step: dict[int, set[str]] = {}
    sure_defs_per_step: dict[int, set[str]] = {}
    uses_per_step: dict[int, set[str]] = {}
    for ep, stmts in by_step.items():
        defs: set[str] = set()
        sure: set[str] = set()
        uses: set[str] = set()
        for tagged in stmts:
            facts = analyze_stmt(tagged.stmt)
            uses |= facts.reads - sure
            defs |= facts.writes
            if not isinstance(tagged.stmt, ast.If):
                sure |= facts.writes
        defs_per_step[ep] = defs
        sure_defs_per_step[ep] = sure
        uses_per_step[ep] = uses

    sources: dict[int, SourceWriter] = {}
    carry_slots: set[str] = set()
    carried_defined: set[str] = set(pre_defined)  # names available via di
    domain = assigned_names(full) | set(spec.fields) | pre_defined
    sregs = set(spec.sregs)

    for ep in range(plan.decode_ep_index, n_eps):
        stmts = by_step[ep]
        writer = SourceWriter(Provenance())
        body_origin = SpecOrigin(
            instr=instr.name, kind="body", step=ep, loc=instr.loc
        )
        writer.mark_function(f"_sb_{ep}_{index}", body_origin)
        writer.line(f"def _sb_{ep}_{index}(self, di):", body_origin)
        writer.indent()
        writer.line(f"# {instr.name} step {ep}")

        facts_reads = uses_per_step[ep] & domain
        later_uses: set[str] = set()
        for later in range(ep + 1, n_eps):
            later_uses |= uses_per_step[later]
        visible_now = [
            f
            for f in spec.fields
            if f in defs_per_step[ep] and f in buildset.visible
        ]
        carries_out = sorted(
            (defs_per_step[ep] & later_uses & domain) - sregs
        )
        writer.line("__state = self.state")

        sreg_reads, sreg_writes = _sregs_read_written(plan, stmts)
        ctx = RewriteContext(
            ilen=spec.ilen,
            speculate=speculate,
            regfiles=frozenset(spec.regfiles),
        )
        rewritten = _rewrite_tagged(stmts, ctx, instr, step=ep)
        body_stmts = [s for _origin, body in rewritten for s in body]
        if _mem_used(body_stmts):
            writer.line("__mem = __state.mem")
        for regfile in _regfiles_used(plan, body_stmts):
            writer.line(f"{regfile} = __state.rf[{regfile!r}]")
        for sreg in sorted(sreg_reads | sreg_writes):
            writer.line(
                f"{sreg} = __state.sr[{sreg!r}]",
                SpecOrigin(instr=instr.name, kind="sreg", detail=sreg, step=ep),
            )

        # Loads of values produced by earlier steps: upward-exposed reads,
        # plus anything this step stores (visible/carry) but only assigns
        # conditionally - the store must then forward the earlier value.
        epilogue_needs = (set(visible_now) | set(carries_out)) - sure_defs_per_step[ep]
        loads = sorted(
            ((facts_reads | epilogue_needs) & carried_defined)
            - sregs
            - {"self", "di"}
        )
        for name in loads:
            slot = name if name in buildset.visible else f"_c_{name}"
            if name not in buildset.visible:
                carry_slots.add(slot)
            writer.line(
                f"{name} = di.{slot}",
                SpecOrigin(instr=instr.name, kind="carry", detail=name, step=ep),
            )

        journal = SpecOrigin(
            instr=instr.name, kind="journal", step=ep, loc=instr.loc
        )
        if speculate and ep == plan.decode_ep_index:
            # One journal entry per instruction, created at decode time and
            # carried through the remaining steps via the record.
            writer.line("__j = [('p', di.pc)]", journal)
            writer.line("di._c___j = __j", journal)
            carry_slots.add("_c___j")
        elif speculate and (_has_journaled_writes(stmts) or sreg_writes):
            writer.line("__j = di._c___j", journal)
            carry_slots.add("_c___j")
        if speculate and sreg_writes:
            for sreg in sorted(sreg_writes):
                writer.line(f"__j.append(('s', {sreg!r}, {sreg}))", journal)

        predefined_step = (
            set(loads) | {"self", "di"} | sreg_reads | sreg_writes | {"pc", "instr_bits"} & set(loads)
        )
        zero_inits = zero_init_names(
            plan,
            stmts,
            full,
            predefined_step | set(loads),
            set(visible_now) | set(carries_out),
        )
        for name in zero_inits:
            writer.line(
                f"{name} = 0",
                SpecOrigin(instr=instr.name, kind="zero_init", detail=name, step=ep),
            )

        for origin, body in rewritten:
            writer.stmts(body, origin)

        for sreg in sorted(sreg_writes):
            writer.line(
                f"__state.sr[{sreg!r}] = {sreg}",
                SpecOrigin(instr=instr.name, kind="sreg", detail=sreg, step=ep,
                           loc=instr.loc),
            )
        for name in visible_now:
            writer.line(
                f"di.{name} = {name}",
                SpecOrigin(instr=instr.name, kind="store", detail=name, step=ep,
                           loc=_field_loc(spec, name) or instr.loc),
            )
        for name in carries_out:
            if name in buildset.visible:
                continue  # already stored above
            slot = f"_c_{name}"
            carry_slots.add(slot)
            writer.line(
                f"di.{slot} = {name}",
                SpecOrigin(instr=instr.name, kind="carry", detail=name, step=ep),
            )
        if ep == last_ep:
            if speculate:
                writer.line(
                    "__state.journal.append(di._c___j)",
                    SpecOrigin(instr=instr.name, kind="journal", step=ep,
                               loc=instr.loc),
                )
                carry_slots.add("_c___j")
            writer.line(
                "__state.pc = di.next_pc",
                SpecOrigin(instr=instr.name, kind="commit", step=ep,
                           loc=instr.loc),
            )
        sources[ep] = writer
        carried_defined |= defs_per_step[ep]

    return sources, carry_slots


def _has_journaled_writes(stmts: list[TaggedStmt]) -> bool:
    for tagged in stmts:
        facts = analyze_stmt(tagged.stmt)
        if facts.subscript_writes or "__mem_write" in facts.effects:
            return True
    return False

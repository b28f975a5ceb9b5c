"""Runtime basic-block translation (the Block semantic detail level).

The paper accelerates its synthesized simulators with an LLVM-based
binary translator whose key property is *optimization scope*: "At the
block level of detail, optimizations can be performed across several
simulated instructions.  For example, if a simulated register value is
generated in one simulated instruction and used in a later instruction,
the binary translator may register-allocate the value." (§V.E)

Our translator reproduces that structure in Python:

* instructions are decoded at translate time, so format bitfields and
  operand identifiers become compile-time constants
  (:func:`repro.adl.snippets.propagate_constants`);
* register values are cached in Python locals across the instructions of
  a unit: each instruction's accesses are renamed once
  (:func:`cache_registers`), and the unit assembler loads a register
  before its first use and stores dirty values back at the unit's exits;
* information hidden by the buildset is removed by the same dead-code
  elimination used for One/Step interfaces;
* each ``(addr, word)`` is translated once into a :class:`Piece` of
  source text, which units join without re-parsing;
* translated units are memoized in a per-simulator code cache.
"""

from __future__ import annotations

import ast
import time
from dataclasses import dataclass

from repro.adl.snippets import analyze_stmt, propagate_constants
from repro.adl.spec import Instruction
from repro.arch.faults import IllegalInstruction
from repro.obs.events import BLOCK_TRANSLATE
from repro.obs.probe import NULL_OBS
from repro.prof.spans import TRANSLATE as TRANSLATE_SPAN
from repro.ops import PURE_NAMESPACE
from repro.synth.codegen import (
    BuildPlan,
    SourceWriter,
    assemble_instruction_stmts,
    predecode_stmts,
)
from repro.synth.dataflow import (
    TaggedStmt,
    assigned_names,
    eliminate_dead,
    forward_copies,
)
from repro.synth.errors import SynthesisError
from repro.synth.rewrite import RewriteContext, peephole_stmts, rewrite_stmts


#: filename prefix of every translated unit's code objects
BLOCK_FILE_PREFIX = "<block "

#: instruction cap of one basic block within a translation unit
MAX_BLOCK = 32

#: Sentinel "length" of an unlinked chain cell: larger than any budget, so
#: the generated fast path rejects an unlinked cell and a too-long
#: successor with the same single comparison.
CHAIN_NEVER = 1 << 62


def new_chain_cell() -> list:
    """A per-exit successor slot: ``[successor fn, its length, its pc]``.

    Cells are mutable lists patched in place by
    :meth:`repro.synth.runtime.SynthesizedSimulator._chain_link` so every
    translated unit holding the cell in its globals sees updates (and
    unlinks) immediately.
    """
    return [None, CHAIN_NEVER, -1]


def reset_chain_cell(cell: list) -> None:
    cell[0] = None
    cell[1] = CHAIN_NEVER
    cell[2] = -1


def _static_const_next_pc(stmts: list[ast.stmt]) -> int | None:
    """The constant target of a single unconditional ``next_pc`` write.

    Returns None when ``next_pc`` is written more than once, written
    conditionally, or assigned a non-constant — i.e. whenever the
    successor is not a compile-time certainty.
    """
    writes = 0
    value: int | None = None
    for stmt in stmts:
        if "next_pc" not in analyze_stmt(stmt).writes:
            continue
        writes += 1
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and stmt.targets[0].id == "next_pc"
            and isinstance(stmt.value, ast.Constant)
            and isinstance(stmt.value.value, int)
        ):
            value = stmt.value.value
        else:
            value = None
    return value if writes == 1 else None


def _next_pc_consts(
    stmts: list[ast.stmt],
) -> tuple[frozenset[int], frozenset[int]]:
    """Constant values this instruction may give ``next_pc``.

    Returns ``(direct, arms)``: the constants of plain ``next_pc = K``
    assignments, and those plus the constant arms of conditional
    expressions.  ``direct`` names a runtime exit's compile-time-constant
    successors.  Superblock formation uses ``arms`` to tell a conditional
    branch (one arm is the textual fall-through, so the unit may continue
    across it with a guarded side exit) from an indirect jump, whose
    successor is not any compile-time constant.
    """
    direct: set[int] = set()
    arms: set[int] = set()
    for stmt in stmts:
        for node in ast.walk(stmt):
            if not (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id == "next_pc"
            ):
                continue
            value = node.value
            if isinstance(value, ast.Constant) and isinstance(value.value, int):
                direct.add(value.value)
            for arm in (
                (value.body, value.orelse)
                if isinstance(value, ast.IfExp)
                else (value,)
            ):
                if isinstance(arm, ast.Constant) and isinstance(arm.value, int):
                    arms.add(arm.value)
    return frozenset(direct), frozenset(arms)


def _instr_has_syscall(instr: Instruction, post_actions: tuple[str, ...]) -> bool:
    for action in post_actions:
        for stmt in instr.action_code.get(action, ()):
            if "__syscall" in analyze_stmt(stmt).effects:
                return True
    return False


#: a cached register: (register file, constant index)
RegKey = tuple[str, int]


def register_local(file: str, index: int) -> str:
    """The unit-local variable caching register ``file[index]``."""
    return f"__R_{file}_{index}"


class _RenameRegisters(ast.NodeTransformer):
    def __init__(self, regfiles: frozenset[str]) -> None:
        self.regfiles = regfiles

    def visit_Subscript(self, node: ast.Subscript):  # noqa: N802 - ast API
        self.generic_visit(node)
        if isinstance(node.value, ast.Name) and node.value.id in self.regfiles:
            local = register_local(node.value.id, node.slice.value)
            return ast.copy_location(ast.Name(local, node.ctx), node)
        return node


def cache_registers(
    stmts: list[ast.stmt], regfiles: frozenset[str]
) -> tuple[list[ast.stmt], tuple[RegKey, ...], frozenset[RegKey]] | None:
    """Rename one instruction's register accesses to unit-local variables.

    Every constant-index access ``R[5]``, load or store, becomes the local
    ``__R_R_5``.  The rename depends on the instruction alone, so it runs
    once per ``(addr, word)``; :meth:`BlockTranslator.block_source`
    supplies the context, loading a register before the first piece that
    needs it and storing dirty ones back at every exit.

    Returns ``(renamed statements, keys needing a load, keys written)``,
    or None when some access has a non-constant index: such an
    instruction runs against the register files themselves.  A key needs
    a load when its first access is a read, or a write other than a
    top-level unconditional assignment — a write under an ``if`` may not
    happen, and the local must then still hold the old value.  Loads are
    listed in first-access order.
    """

    def is_register(node: ast.AST) -> bool:
        return (
            isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Name)
            and node.value.id in regfiles
        )

    def accesses(node: ast.AST) -> list[ast.Subscript]:
        return [sub for sub in ast.walk(node) if is_register(sub)]

    loads: list[RegKey] = []
    seen: set[RegKey] = set()
    writes: set[RegKey] = set()
    for stmt in stmts:
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and is_register(stmt.targets[0])
        ):
            # The value is evaluated before the store, which then defines
            # the register outright.
            target = stmt.targets[0]
            nodes = accesses(stmt.value) + [target]
        else:
            target = None
            nodes = accesses(stmt)
        for node in nodes:
            if not isinstance(node.slice, ast.Constant):
                return None
            key = (node.value.id, node.slice.value)
            if isinstance(node.ctx, ast.Store):
                writes.add(key)
            if key not in seen:
                seen.add(key)
                if node is not target:
                    loads.append(key)
    rename = _RenameRegisters(regfiles)
    renamed = [rename.visit(stmt) for stmt in stmts]
    return renamed, tuple(loads), frozenset(writes)


@dataclass(frozen=True)
class Piece:
    """One guest instruction at one address, translated once.

    A piece depends only on ``(addr, word)`` and the build plan, so the
    translator memoizes it on that key: superblock formation and
    self-loop unrolling reuse it for every copy, and a changed memory
    word changes the key, which keeps the memo coherent with
    self-modifying code.  The source is final text — journal, defaults,
    the register-renamed statements and the trace append, after copy
    forwarding and the peephole — and the other fields are the facts unit
    assembly needs, so joining pieces into a unit parses nothing.
    """

    #: syscall only: the lines that must run before the handler (journal,
    #: defaults, ``__state.pc`` and the trace append)
    head: tuple[str, ...]
    #: the remaining source lines; a constant trace record's append last
    body: tuple[str, ...]
    #: register accesses go through unit locals (see cache_registers)
    cached: bool
    #: registers whose first access needs a load, in first-access order
    loads: tuple[RegKey, ...]
    #: registers the piece writes, dirty after it
    writes: frozenset[RegKey]
    sreg_reads: frozenset[str]
    sreg_writes: frozenset[str]
    #: register files the source text names (uncached pieces only)
    regfiles: frozenset[str]
    mem_used: bool
    syscall: bool
    #: this encoding writes ``next_pc``
    control: bool
    #: ``next_pc`` as folded at decode time, when constant
    next_pc: int | None
    #: the successor when it is a compile-time certainty
    next_const: int | None
    #: constant ``next_pc`` assignments, and those plus the constant
    #: arms of conditional expressions (see _next_pc_consts)
    exit_consts: frozenset[int]
    arm_consts: frozenset[int]
    #: the trace record, as a tuple expression
    trace: str
    #: the record is a literal, so the unit assembler may batch-append it
    trace_const: bool
    dce_dropped: int


@dataclass
class CodeCacheStats:
    """Public statistics of one simulator's block code cache.

    ``hits``/``misses`` count :meth:`do_block` lookups (only on the
    instrumented path — the uninstrumented fast path does not count),
    ``blocks`` is the current cache population and ``flushes`` counts
    whole-cache invalidations.

    Chaining bookkeeping: ``chain_links`` counts successor slots patched
    to a translated unit, ``chain_unlinks`` slots severed by a flush, and
    ``chained`` direct unit-to-unit transfers taken (instrumented path
    only — on the fast path chained transfers are uncounted, like hits).
    """

    hits: int = 0
    misses: int = 0
    flushes: int = 0
    blocks: int = 0
    chain_links: int = 0
    chain_unlinks: int = 0
    chained: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "flushes": self.flushes,
            "blocks": self.blocks,
            "chain_links": self.chain_links,
            "chain_unlinks": self.chain_unlinks,
            "chained": self.chained,
        }


class BlockTranslator:
    """Translates basic blocks into specialized Python functions."""

    def __init__(self, plan: BuildPlan, obs=None) -> None:
        self.plan = plan
        self.obs = obs if obs is not None else NULL_OBS
        self.cache_stats = CodeCacheStats()
        #: statements dropped by DCE during the most recent translation
        self._dce_dropped = 0
        self._last_block_len = 0
        #: basic blocks merged into the most recent translation unit
        self._last_parts = 1
        #: chain cells created for the most recent unit: (global name, cell)
        self._last_cells: list[tuple[str, list]] = []
        #: translated instructions, keyed by (addr, word) — see :class:`Piece`
        self._piece_cache: dict[tuple[int, int], Piece] = {}
        #: compile-time-constant exit targets of the most recent unit
        #: (consumed by the static block walk in :mod:`repro.check`)
        self.last_exit_targets: tuple[int, ...] = ()
        spec = plan.spec
        self._fold_funcs = dict(PURE_NAMESPACE)
        self._fold_funcs.update(spec.helpers)
        self._syscalls = {
            instr.name: _instr_has_syscall(instr, plan.post_actions)
            for instr in spec.instructions
        }
        #: copy forwarding never removes these names' assignments
        self._protected = frozenset(
            set(spec.sregs) | set(spec.regfiles) | {"next_pc", "pc", "instr_bits"}
        )
        self._pure = plan.pure_names | frozenset(PURE_NAMESPACE)

    # -- public API -------------------------------------------------------------

    def translate(self, sim, start_pc: int, limit: int | None = None):
        """Translate the unit at ``start_pc`` against current memory.

        ``limit`` caps the unit at that many instructions and suppresses
        chaining; the run driver uses it for the final partial unit of a
        bounded execution.
        """
        if not self.obs.enabled:
            return self._translate(sim, start_pc, limit)
        start = time.perf_counter()
        with self.obs.prof.spans.span(TRANSLATE_SPAN):
            fn = self._translate(sim, start_pc, limit)
        elapsed_us = int((time.perf_counter() - start) * 1e6)
        length = self._last_block_len
        parts = self._last_parts
        counters = self.obs.counters
        counters.inc("translate.blocks")
        counters.inc("translate.instructions", length)
        counters.inc("translate.elapsed_us", elapsed_us)
        counters.inc("translate.dce_eliminated", self._dce_dropped)
        if parts > 1:
            counters.inc("translate.superblocks")
            counters.inc("translate.superblock_instructions", length)
        self.obs.events.emit(
            BLOCK_TRANSLATE,
            pc=start_pc,
            instructions=length,
            parts=parts,
            elapsed_us=elapsed_us,
            dce_eliminated=self._dce_dropped,
        )
        return fn

    def _translate(self, sim, start_pc: int, limit: int | None = None):
        source, name = self.block_source(sim, start_pc, limit)
        cells = self._last_cells
        namespace = dict(sim.module_namespace)
        for cell_name, cell in cells:
            namespace[cell_name] = cell
        code = compile(source, f"{BLOCK_FILE_PREFIX}{start_pc:#x}>", "exec")
        exec(code, namespace)
        fn = namespace[name]
        fn.__block_source__ = source
        fn.__block_len__ = self._last_block_len
        fn.__block_pc__ = start_pc
        fn.__block_parts__ = self._last_parts
        fn.__chain_cells__ = tuple(cell for _cell_name, cell in cells)
        return fn

    # -- translation ---------------------------------------------------------------

    def block_source(
        self, sim, start_pc: int, limit: int | None = None
    ) -> tuple[str, str]:
        """Form the unit at ``start_pc`` and assemble its source text.

        Formation decodes instructions and follows the successors their
        pieces name; assembly joins the pieces' cached text and adds the
        context-dependent lines: register loads and stores (the sets
        ``loaded`` and ``dirty`` track which cached locals hold a value
        and which differ from the register files), side exits, and the
        exit epilogue.
        """
        plan = self.plan
        spec = plan.spec
        mem = sim.state.mem
        options = plan.options

        self._dce_dropped = 0
        pieces: list[Piece] = []
        #: per piece: the arm followed in-line past a guarded side exit
        side_exits: list[int | None] = []
        side_targets: set[int] = set()
        addr = start_pc
        count = 0
        block_count = 0  # instructions in the current basic block
        parts = 1  # basic blocks merged into this unit
        final_next_pc: object = None  # int const or "runtime"
        unroll_len = 0  # length of one iteration when self-loop unrolling
        chain = options.chain and limit is None

        # Unit budget: one basic block (capped at MAX_BLOCK) classically;
        # with superblock formation on, compile-time-constant control
        # transfers may be followed up to the superblock budget, each
        # constituent basic block still capped at MAX_BLOCK.
        unit_budget = options.superblock if options.superblock > 0 else MAX_BLOCK
        if limit is not None:
            unit_budget = min(unit_budget, limit)

        while count < unit_budget and block_count < MAX_BLOCK:
            word = mem.read(addr, spec.ilen)
            index = spec.decode(word)
            if index is None:
                if count == 0:
                    raise IllegalInstruction(addr, word)
                if side_exits[-1] is not None:
                    # The conditional we just crossed falls through into
                    # untranslatable bytes: revert to a classic runtime
                    # exit so the guard costs nothing on real code paths.
                    side_exits[-1] = None
                    parts -= 1
                    final_next_pc = "runtime"
                break
            piece = self._piece(spec.instructions[index], addr, word)
            pieces.append(piece)
            side_exits.append(None)
            self._dce_dropped += piece.dce_dropped
            count += 1
            if piece.syscall:
                final_next_pc = piece.next_pc if piece.next_pc is not None else "runtime"
                break
            if piece.control:
                next_const = piece.next_const
                if (
                    options.superblock > 0
                    and next_const is not None
                    and count < unit_budget
                ):
                    # Superblock formation: the transfer target is a
                    # compile-time constant, so translation continues into
                    # the successor block and the unit is one straight-line
                    # multi-block region.
                    final_next_pc = next_const
                    addr = next_const
                    block_count = 0
                    parts += 1
                    continue
                # Superblock formation across a *conditional* branch: pick
                # one constant arm to follow in-line; every other successor
                # becomes a guarded side exit (spill + chain attempt +
                # return).  A back edge to this unit's own entry is
                # followed preferentially — that unrolls the hot loop body,
                # in complete iterations only, so the fall-off exit lands
                # exactly on the unit's own entry and self-chains.
                # Otherwise the textual fall-through is followed, merging
                # forward diamonds and multi-block loop bodies into one
                # straight-line region.
                fallthrough = addr + spec.ilen
                arm_consts = piece.arm_consts
                follow = None
                if options.superblock > 0 and count < unit_budget:
                    if start_pc in arm_consts:
                        iter_len = unroll_len if unroll_len else count
                        if count + iter_len <= unit_budget:
                            unroll_len = iter_len
                            follow = start_pc
                    if follow is None and fallthrough in arm_consts:
                        follow = fallthrough
                if follow is not None:
                    side_exits[-1] = follow
                    side_targets |= arm_consts - {follow}
                    final_next_pc = follow
                    addr = follow
                    block_count = 0
                    parts += 1
                    continue
                final_next_pc = piece.next_pc if piece.next_pc is not None else "runtime"
                break
            block_count += 1
            if piece.next_pc is None:
                final_next_pc = "runtime"
                break
            addr = piece.next_pc
            final_next_pc = piece.next_pc

        # -- assemble the function ------------------------------------------------
        sregs_bind: set[str] = set()
        files_bind: set[str] = set()
        for piece in pieces:
            sregs_bind |= piece.sreg_reads | piece.sreg_writes
            files_bind |= piece.regfiles
            files_bind.update(file for file, _index in piece.loads)
            files_bind.update(file for file, _index in piece.writes)

        name = f"_blk_{start_pc:x}"
        writer = SourceWriter()
        writer.line(f"def {name}(self, di):")
        writer.indent()
        writer.line("__state = self.state")
        if any(piece.mem_used for piece in pieces):
            writer.line("__mem = __state.mem")
        for file in sorted(files_bind):
            writer.line(f"{file} = __state.rf[{file!r}]")
        for sreg in sorted(sregs_bind):
            writer.line(f"{sreg} = __state.sr[{sreg!r}]")
        writer.line("__trace = di.trace")
        writer.line("__trace.clear()")

        # Instructions whose whole trace record folded to a constant have
        # the record hoisted out of the piece (it is the piece's final
        # line) and appended in batches: one ``+=`` of a constant
        # tuple-of-tuples replaces one allocation + method call per
        # instruction.  Nothing inside a unit reads ``__trace`` and block
        # statements cannot fault, so batching at the end of each constant
        # run preserves the interface-visible contents exactly.
        pending_trace: list[str] = []

        def _flush_trace() -> None:
            if not pending_trace:
                return
            if len(pending_trace) == 1:
                writer.line(f"__trace.append({pending_trace[0]})")
            else:
                writer.line(f"__trace += ({', '.join(pending_trace)},)")
            pending_trace.clear()

        def _lines(lines) -> None:
            for line in lines:
                writer.line(line)

        def _store(keys) -> None:
            for file, index in sorted(keys):
                writer.line(f"{file}[{index}] = {register_local(file, index)}")

        def _store_sregs(sregs) -> None:
            for sreg in sorted(sregs):
                writer.line(f"__state.sr[{sreg!r}] = {sreg}")

        cells: list[tuple[str, list]] = []

        def _new_cell() -> str:
            cell_name = f"__chain_{len(cells)}"
            cells.append((cell_name, new_chain_cell()))
            return cell_name

        def _exit(taken: int, target: object) -> None:
            # Leave the unit after ``taken`` instructions for ``target``, a
            # constant pc or "runtime" (the value of ``next_pc``).  With
            # chaining: debit the dispatch budget, then try the per-exit
            # successor slot(s).  An unlinked cell fails the same
            # ``[1] <= __b`` test as a too-long successor, so the hot path
            # is a single comparison per slot.  The slow paths translate,
            # patch and register the edge.  Bookkeeping a chained transfer
            # never needs — the ``state.pc`` commit and ``di.count`` — is
            # deferred off the hot path: the successor's pc is baked into
            # its code, and :meth:`do_block` recovers the count from the
            # budget debit (``di.count`` is set here only when execution
            # actually returns to the dispatcher).
            pc = "next_pc" if target == "runtime" else target
            if chain:
                writer.line(f"__b = di.budget - {taken}")
                writer.line("di.budget = __b")
                if target == "runtime":
                    c0 = _new_cell()
                    c1 = _new_cell()
                    for var in (c0, c1):
                        writer.line(f"__c = {var}")
                        writer.line("if __c[2] == next_pc and __c[1] <= __b:")
                        writer.indent()
                        writer.line("return __c[0]")
                        writer.dedent()
                    slow = f"self._chain_resolve({c0}, {c1}, next_pc, __b)"
                else:
                    writer.line(f"__c = {_new_cell()}")
                    writer.line("if __c[1] <= __b:")
                    writer.indent()
                    writer.line("return __c[0]")
                    writer.dedent()
                    slow = f"self._chain_link(__c, {target}, __b)"
            writer.line(f"__state.pc = {pc}")
            writer.line(f"di.count = {taken}")
            if chain:
                writer.line("if __b > 0:")
                writer.indent()
                writer.line(f"return {slow}")
                writer.dedent()

        loaded: set[RegKey] = set()
        dirty: set[RegKey] = set()
        sregs_written: set[str] = set()
        for position, (piece, follow) in enumerate(zip(pieces, side_exits)):
            if not piece.trace_const:
                _flush_trace()
            if not piece.cached:
                # The piece reaches the register files directly (and a
                # syscall handler may change them): commit, then forget.
                _store(dirty)
                dirty.clear()
                loaded.clear()
            for key in piece.loads:
                if key not in loaded:
                    loaded.add(key)
                    writer.line(f"{register_local(*key)} = {key[0]}[{key[1]}]")
            loaded |= piece.writes
            dirty |= piece.writes
            if piece.syscall:
                # The handler may raise ExitProgram: the head has recorded
                # the trace entry, and special registers written earlier
                # in the unit (they live in locals) and the progress count
                # must be architectural before it runs.
                _lines(piece.head)
                _store_sregs(sregs_written)
                writer.line(f"di.count = {position + 1}")
            sregs_written |= piece.sreg_writes
            if piece.trace_const:
                _lines(piece.body[:-1])
                pending_trace.append(piece.trace)
            else:
                _lines(piece.body)
            if follow is not None:
                # Guarded exit for the non-fall-through arm of a crossed
                # conditional: dirty registers and special registers
                # written so far are committed on the exiting path only;
                # the fall-through path keeps its cached locals.
                _flush_trace()
                writer.line(f"if next_pc != {follow}:")
                writer.indent()
                _store(dirty)
                _store_sregs(sregs_written)
                _exit(position + 1, "runtime")
                writer.line("return None")
                writer.dedent()
        _flush_trace()
        _store(dirty)
        _store_sregs(sregs_written)
        _exit(count, final_next_pc)
        self._last_cells = cells
        self._last_block_len = count
        self._last_parts = parts
        # Compile-time-constant successor pcs; a runtime exit contributes
        # the constant arms of the final instruction (e.g. both sides of
        # a conditional branch).
        targets = set(side_targets)
        if isinstance(final_next_pc, int):
            targets.add(final_next_pc)
        else:
            targets |= pieces[-1].exit_consts
        self.last_exit_targets = tuple(sorted(targets))
        return writer.source(), name

    def _piece(self, instr: Instruction, addr: int, word: int) -> Piece:
        """The translation of ``word`` at ``addr``, memoized (see :class:`Piece`)."""
        key = (addr, word)
        piece = self._piece_cache.get(key)
        if piece is not None:
            return piece
        plan = self.plan
        spec = plan.spec
        speculate = plan.buildset.speculation

        env: dict[str, object] = {"pc": addr, "instr_bits": word}
        # Fold the pre-decode actions (translate_pc, fetch) symbolically.
        pre = predecode_stmts(plan)[1:]  # drop `pc = __state.pc`
        pre_folded, env = propagate_constants(pre, env, self._fold_funcs)
        env["instr_bits"] = word  # __fetch cannot fold; we already fetched
        for stmt in pre_folded:
            facts = analyze_stmt(stmt)
            unresolved = facts.writes - set(env)
            if unresolved:
                raise SynthesisError(
                    "block interfaces require pre-decode actions that fold "
                    f"to constants; {sorted(unresolved)} did not"
                )

        tagged = assemble_instruction_stmts(plan, instr)
        stmts = [t.stmt for t in tagged]
        stmts, env = propagate_constants(stmts, env, self._fold_funcs)

        # Liveness: visible fields assigned at runtime must survive;
        # constants are embedded into the trace record directly.
        assigned = assigned_names([TaggedStmt("x", s) for s in stmts])
        sregs_assigned = assigned & set(spec.sregs)
        live_targets = (
            (assigned & plan.buildset.visible)
            | {"next_pc", "fault"}
            | sregs_assigned
        )
        # Promoted constants are embedded rather than kept live — EXCEPT
        # special registers: their assignment IS the architectural effect
        # (e.g. a link register set to a constant return address), so it
        # must survive even when the value folded.
        live_out = {
            f for f in live_targets if f not in env or f in sregs_assigned
        }
        dce_dropped = 0
        if plan.options.dce:
            kept = eliminate_dead(
                [TaggedStmt("x", s) for s in stmts], live_out, plan.pure_names
            )
            dce_dropped = len(stmts) - len(kept)
            stmts = [t.stmt for t in kept]

        # Control transfer is a per-encoding fact: an ARM data-processing
        # instruction writes next_pc only when its destination is R15, and
        # decode-time constant folding has already resolved that here.
        next_pc = env.get("next_pc")
        next_pc = next_pc if isinstance(next_pc, int) else None
        control = (
            "next_pc" in assigned_names([TaggedStmt("x", s) for s in stmts])
            or (next_pc is not None and next_pc != addr + spec.ilen)
        )
        # Unconditional direct branches keep a runtime `next_pc = K`
        # statement (two writes defeat env promotion: the synthetic
        # fall-through plus their own), yet the target is a constant;
        # superblock formation needs to see through that.
        next_const = next_pc if next_pc is not None else _static_const_next_pc(stmts)

        sregs = set(spec.sregs)
        sreg_reads: set[str] = set()
        sreg_writes: set[str] = set()
        for stmt in stmts:
            facts = analyze_stmt(stmt)
            sreg_reads |= facts.reads & sregs
            sreg_writes |= facts.writes & sregs

        ctx = RewriteContext(
            ilen=spec.ilen, speculate=speculate, regfiles=frozenset(spec.regfiles)
        )
        stmts = rewrite_stmts(stmts, ctx)

        # Defensive defaults for conditionally-assigned runtime fields.
        defaults: list[str] = []
        maybe_unset = self._conditionally_assigned(stmts) & live_out
        for field_name in sorted(maybe_unset):
            default = env.get(field_name, 0)
            if field_name == "next_pc":
                default = addr + spec.ilen
            if isinstance(default, (int, bool)):
                defaults.append(f"{field_name} = {int(default)}")

        trace = self._trace_tuple(instr, env, assigned, live_out)
        syscall = self._syscalls[instr.name]
        cached = False
        loads: tuple[RegKey, ...] = ()
        writes: frozenset[RegKey] = frozenset()
        if plan.options.regcache and not syscall:
            renamed = cache_registers(stmts, ctx.regfiles)
            if renamed is not None:
                stmts, loads, writes = renamed
                cached = True

        head: list[str] = []
        if speculate:
            head.append(f"__j = [('p', {addr})]")
            for sreg in sorted(sreg_writes):
                head.append(f"__j.append(('s', {sreg!r}, {sreg}))")
        head.extend(defaults)
        if syscall:
            # The handler may mutate registers/memory and may raise
            # ExitProgram: record the pc and trace entry first so a guest
            # exit leaves the interface consistent.
            head.append(f"__state.pc = {addr}")
            head.append(f"__trace.append({trace})")
        tail: list[str] = []
        if speculate:
            tail.append("__state.journal.append(__j)")
        if not syscall:
            tail.append(f"__trace.append({trace})")
        out = ast.parse("\n".join(head)).body + stmts + ast.parse("\n".join(tail)).body

        # Copy forwarding: the statements above still thread values
        # through per-operand temporaries; collapse single-use ones so a
        # typical ALU instruction becomes one Python statement.
        out = forward_copies(out, self._protected, self._pure)
        out = peephole_stmts(out)

        exit_consts, arm_consts = _next_pc_consts(out)
        names = {n.id for s in out for n in ast.walk(s) if isinstance(n, ast.Name)}
        texts = [ast.unparse(s) for s in out if not isinstance(s, ast.Pass)]
        split = 0
        if syscall:
            split = 1 + next(
                i for i, text in enumerate(texts) if text.startswith("__trace.append(")
            )
        trace_const = False
        if not syscall:
            # A compile-time-constant trace record can be hoisted out of
            # the instruction and batch-appended by the unit assembler.
            try:
                ast.literal_eval(trace)
                trace_const = True
            except (ValueError, SyntaxError):
                pass

        piece = Piece(
            head=tuple(line for text in texts[:split] for line in text.splitlines()),
            body=tuple(line for text in texts[split:] for line in text.splitlines()),
            cached=cached,
            loads=loads,
            writes=writes,
            sreg_reads=frozenset(sreg_reads),
            sreg_writes=frozenset(sreg_writes),
            regfiles=frozenset(names & ctx.regfiles),
            mem_used="__mem" in names,
            syscall=syscall,
            control=control,
            next_pc=next_pc,
            next_const=next_const,
            exit_consts=exit_consts,
            arm_consts=arm_consts,
            trace=trace,
            trace_const=trace_const,
            dce_dropped=dce_dropped,
        )
        self._piece_cache[key] = piece
        return piece

    def _conditionally_assigned(self, stmts: list[ast.stmt]) -> set[str]:
        sure: set[str] = set()
        conditional: set[str] = set()
        for stmt in stmts:
            facts = analyze_stmt(stmt)
            if isinstance(stmt, ast.If):
                conditional |= facts.writes - sure
            else:
                sure |= facts.writes
        return conditional - sure

    def _trace_tuple(
        self,
        instr: Instruction,
        env: dict[str, object],
        assigned: set[str],
        live_out: set[str],
    ) -> str:
        values: list[str] = []
        for field_name in self.plan.trace_fields:
            if field_name in env:
                values.append(repr(env[field_name]))
            elif field_name in assigned:
                values.append(field_name)
            else:
                values.append("None")
        inner = ", ".join(values)
        if len(values) == 1:
            inner += ","
        return f"({inner})"

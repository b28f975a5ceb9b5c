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
  a block, with dirty values flushed once at block exit
  (:class:`RegisterCache`);
* information hidden by the buildset is removed by the same dead-code
  elimination used for One/Step interfaces;
* translated blocks are memoized in a per-simulator code cache.
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


def _instr_writes_next_pc(instr: Instruction, post_actions: tuple[str, ...]) -> bool:
    for action in post_actions:
        for stmt in instr.action_code.get(action, ()):
            if "next_pc" in analyze_stmt(stmt).writes:
                return True
    return False


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


def _next_pc_arm_consts(stmts: list[ast.stmt]) -> frozenset[int]:
    """Constant values any arm of this instruction may give ``next_pc``.

    Collects direct constant assignments and the constant arms of
    conditional expressions.  Superblock formation uses this to tell a
    conditional branch (one arm is the textual fall-through, so the unit
    may continue across it with a guarded side exit) from an indirect
    jump, whose successor is not any compile-time constant.
    """
    consts: set[int] = set()
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
            arms = (
                (value.body, value.orelse)
                if isinstance(value, ast.IfExp)
                else (value,)
            )
            for arm in arms:
                if isinstance(arm, ast.Constant) and isinstance(arm.value, int):
                    consts.add(arm.value)
    return frozenset(consts)


def _instr_has_syscall(instr: Instruction, post_actions: tuple[str, ...]) -> bool:
    for action in post_actions:
        for stmt in instr.action_code.get(action, ()):
            if "__syscall" in analyze_stmt(stmt).effects:
                return True
    return False


class RegisterCache:
    """Caches register-file elements in locals across a block.

    A cached register ``R[5]`` lives in local ``__R_R_5``.  Reads load it
    on first use; writes mark it dirty; :meth:`flush` stores dirty values
    back.  Accesses with non-constant indices conservatively flush (and,
    for writes, invalidate) the whole file.
    """

    def __init__(self, regfiles: frozenset[str]) -> None:
        self.regfiles = regfiles
        self.loaded: set[tuple[str, int]] = set()
        self.dirty: set[tuple[str, int]] = set()

    @staticmethod
    def local(file: str, index: int) -> str:
        return f"__R_{file}_{index}"

    def _load_stmt(self, file: str, index: int) -> ast.stmt:
        return ast.parse(f"{self.local(file, index)} = {file}[{index}]").body[0]

    def _store_stmt(self, file: str, index: int) -> ast.stmt:
        return ast.parse(f"{file}[{index}] = {self.local(file, index)}").body[0]

    def flush(self, files: set[str] | None = None) -> list[ast.stmt]:
        """Stores for dirty registers (all files, or just ``files``)."""
        out = []
        for file, index in sorted(self.dirty):
            if files is None or file in files:
                out.append(self._store_stmt(file, index))
        if files is None:
            self.dirty.clear()
        else:
            self.dirty = {k for k in self.dirty if k[0] not in files}
        return out

    def spill(self) -> list[ast.stmt]:
        """Stores for dirty registers *without* clearing the dirty set.

        Used for superblock side exits: the stores commit current values
        on the exiting path, while the fall-through path keeps its cached
        locals (and the final flush) intact.
        """
        return [self._store_stmt(file, index) for file, index in sorted(self.dirty)]

    def invalidate(self, files: set[str] | None = None) -> None:
        if files is None:
            self.loaded.clear()
            self.dirty.clear()
        else:
            self.loaded = {k for k in self.loaded if k[0] not in files}
            self.dirty = {k for k in self.dirty if k[0] not in files}

    # -- statement transformation -------------------------------------------

    def transform(self, stmts: list[ast.stmt]) -> list[ast.stmt]:
        out: list[ast.stmt] = []
        for stmt in stmts:
            out.extend(self._transform_stmt(stmt))
        return out

    def _transform_stmt(self, stmt: ast.stmt) -> list[ast.stmt]:
        if isinstance(stmt, ast.If):
            return self._transform_if(stmt)
        prelude: list[ast.stmt] = []
        # Handle a direct register store target.
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
            if self._is_reg_subscript(target):
                file = target.value.id
                index = target.slice
                new_value, more = self._transform_expr(stmt.value)
                prelude.extend(more)
                if isinstance(index, ast.Constant):
                    key = (file, index.value)
                    if key not in self.loaded:
                        self.loaded.add(key)
                    self.dirty.add(key)
                    assign = ast.parse(
                        f"{self.local(file, index.value)} = 0"
                    ).body[0]
                    assign.value = new_value
                    return prelude + [ast.fix_missing_locations(assign)]
                # Non-constant store: flush + invalidate the file.
                prelude.extend(self.flush({file}))
                self.invalidate({file})
                new_index, more = self._transform_expr(index)
                prelude.extend(more)
                assign = ast.Assign(
                    [ast.Subscript(ast.Name(file, ast.Load()), new_index, ast.Store())],
                    new_value,
                )
                return prelude + [ast.fix_missing_locations(assign)]
        # Generic statement: rewrite contained loads.
        new_stmt, more = self._transform_reads_in_stmt(stmt)
        return more + [new_stmt]

    def _is_reg_subscript(self, node: ast.expr) -> bool:
        return (
            isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Name)
            and node.value.id in self.regfiles
        )

    def _reads_transformer(self, prelude: list[ast.stmt]) -> ast.NodeTransformer:
        cache = self

        class Reads(ast.NodeTransformer):
            def visit_Subscript(self, node: ast.Subscript):
                self.generic_visit(node)
                if not isinstance(node.ctx, ast.Load):
                    return node
                if not cache._is_reg_subscript(node):
                    return node
                file = node.value.id
                index = node.slice
                if isinstance(index, ast.Constant):
                    key = (file, index.value)
                    if key not in cache.loaded:
                        prelude.append(cache._load_stmt(file, index.value))
                        cache.loaded.add(key)
                    return ast.copy_location(
                        ast.Name(cache.local(file, index.value), ast.Load()), node
                    )
                # Non-constant read: dirty values must reach the list first.
                prelude.extend(cache.flush({file}))
                return node

        return Reads()

    def _transform_expr(self, expr: ast.expr) -> tuple[ast.expr, list[ast.stmt]]:
        prelude: list[ast.stmt] = []
        new_expr = ast.fix_missing_locations(
            self._reads_transformer(prelude).visit(expr)
        )
        return new_expr, prelude

    def _transform_reads_in_stmt(self, stmt: ast.stmt) -> tuple[ast.stmt, list[ast.stmt]]:
        prelude: list[ast.stmt] = []
        new_stmt = ast.fix_missing_locations(
            self._reads_transformer(prelude).visit(stmt)
        )
        return new_stmt, prelude

    def _transform_if(self, stmt: ast.If) -> list[ast.stmt]:
        # Hoist loads for every constant register access in either branch so
        # cached locals exist regardless of the path taken; writes inside
        # branches then dirty the local, and the final flush stores either
        # the new or the (reloaded) old value - both correct.
        prelude: list[ast.stmt] = []
        nonconst = False
        const_keys: list[tuple[str, int]] = []
        for node in ast.walk(stmt):
            if self._is_reg_subscript(node):
                index = node.slice
                if isinstance(index, ast.Constant):
                    const_keys.append((node.value.id, index.value))
                else:
                    nonconst = True
        if nonconst:
            # Bail out of caching around this statement entirely.
            prelude.extend(self.flush())
            self.invalidate()
            return prelude + [stmt]
        for key in const_keys:
            if key not in self.loaded:
                prelude.append(self._load_stmt(*key))
                self.loaded.add(key)

        cache = self

        class Rename(ast.NodeTransformer):
            def visit_Subscript(self, node: ast.Subscript):
                self.generic_visit(node)
                if cache._is_reg_subscript(node) and isinstance(
                    node.slice, ast.Constant
                ):
                    key = (node.value.id, node.slice.value)
                    if isinstance(node.ctx, ast.Store):
                        cache.dirty.add(key)
                        return ast.copy_location(
                            ast.Name(cache.local(*key), ast.Store()), node
                        )
                    return ast.copy_location(
                        ast.Name(cache.local(*key), ast.Load()), node
                    )
                return node

        new_if = ast.fix_missing_locations(Rename().visit(stmt))
        return prelude + [new_if]


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
        #: memoized decode-time front half of piece translation,
        #: keyed by (addr, word) — see :meth:`_instruction_core`
        self._piece_cache: dict[tuple[int, int], dict] = {}
        #: compile-time-constant exit targets of the most recent unit
        #: (consumed by the static block walk in :mod:`repro.check`)
        self.last_exit_targets: tuple[int, ...] = ()
        spec = plan.spec
        self._fold_funcs = dict(PURE_NAMESPACE)
        self._fold_funcs.update(spec.helpers)
        self._control = {
            instr.name: _instr_writes_next_pc(instr, plan.post_actions)
            for instr in spec.instructions
        }
        self._syscalls = {
            instr.name: _instr_has_syscall(instr, plan.post_actions)
            for instr in spec.instructions
        }

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
        plan = self.plan
        spec = plan.spec
        mem = sim.state.mem
        options = plan.options
        speculate = plan.buildset.speculation
        regcache = (
            RegisterCache(frozenset(spec.regfiles))
            if options.regcache
            else None
        )

        self._dce_dropped = 0
        self._last_cells = []
        pieces: list[list[ast.stmt]] = []
        trace_consts: list[str | None] = []
        #: per-piece guarded side exit (superblocks across conditionals)
        side_exits: list[dict | None] = []
        side_targets: set[int] = set()
        sreg_reads_all: set[str] = set()
        sreg_writes_all: set[str] = set()
        mem_used = False
        reg_files_used: set[str] = set()
        addr = start_pc
        count = 0
        block_count = 0  # instructions in the current basic block
        parts = 1  # basic blocks merged into this unit
        final_next_pc: object = None  # int const or "runtime"
        unroll_len = 0  # length of one iteration when self-loop unrolling
        ended_by_syscall = False
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
                last_exit = side_exits[-1]
                if last_exit is not None and last_exit["count"] == count:
                    # The conditional we just crossed falls through into
                    # untranslatable bytes: revert to a classic runtime
                    # exit so the guard costs nothing on real code paths.
                    side_exits[-1] = None
                    parts -= 1
                    final_next_pc = "runtime"
                break
            instr = spec.instructions[index]
            stmts, env, info = self._translate_instruction(
                sim, instr, addr, word, regcache, count, sreg_writes_all
            )
            pieces.append(stmts)
            trace_consts.append(info["trace_const"])
            side_exits.append(None)
            sreg_reads_all |= info["sreg_reads"]
            sreg_writes_all |= info["sreg_writes"]
            mem_used = mem_used or info["mem_used"]
            reg_files_used |= info["regfiles"]
            count += 1
            if self._syscalls[instr.name]:
                ended_by_syscall = True
                final_next_pc = env.get("next_pc", "runtime")
                break
            if info["control"]:
                next_const = info["next_const"]
                if (
                    options.superblock > 0
                    and isinstance(next_const, int)
                    and count < unit_budget
                ):
                    # Superblock formation: the transfer target is a
                    # compile-time constant, so translation continues into
                    # the successor block and the optimizers see one
                    # straight-line multi-block region.
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
                arm_consts = info["arm_consts"]
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
                    side_exits[-1] = {
                        "follow": follow,
                        "count": count,
                        "spill": regcache.spill() if regcache is not None else [],
                        "sregs": tuple(sorted(sreg_writes_all)),
                    }
                    side_targets |= arm_consts - {follow}
                    final_next_pc = follow
                    addr = follow
                    block_count = 0
                    parts += 1
                    continue
                final_next_pc = env.get("next_pc", "runtime")
                break
            block_count += 1
            next_const = env.get("next_pc")
            if not isinstance(next_const, int):
                final_next_pc = "runtime"
                break
            addr = next_const
            final_next_pc = next_const

        # -- assemble the function ------------------------------------------------
        flush_stmts = regcache.flush() if regcache is not None else []
        all_stmts = [s for piece in pieces for s in piece] + flush_stmts
        names_used = {
            node.id
            for stmt in all_stmts
            for node in ast.walk(stmt)
            if isinstance(node, ast.Name)
        }
        reg_files_bind = names_used & set(spec.regfiles)
        mem_used = mem_used or "__mem" in names_used

        name = f"_blk_{start_pc:x}"
        writer = SourceWriter()
        writer.line(f"def {name}(self, di):")
        writer.indent()
        writer.line("__state = self.state")
        if mem_used:
            writer.line("__mem = __state.mem")
        for file in sorted(reg_files_bind):
            writer.line(f"{file} = __state.rf[{file!r}]")
        for sreg in sorted(sreg_reads_all | sreg_writes_all):
            writer.line(f"{sreg} = __state.sr[{sreg!r}]")
        writer.line("__trace = di.trace")
        writer.line("__trace.clear()")

        # Instructions whose whole trace record folded to a constant have
        # the record hoisted out of the piece (it is the piece's final
        # statement) and appended in batches: one ``+=`` of a constant
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

        cells: list[tuple[str, list]] = []

        def _new_cell() -> str:
            cell_name = f"__chain_{len(cells)}"
            cells.append((cell_name, new_chain_cell()))
            return cell_name

        def _emit_side_exit(exit_info: dict) -> None:
            # Guarded exit for the non-fall-through arm of a crossed
            # conditional.  Mirrors the final chain epilogue: dirty
            # registers and special registers written so far are committed,
            # then the per-exit successor slots are tried; ``state.pc`` and
            # ``di.count`` are only materialized when control returns to
            # the dispatcher.
            _flush_trace()
            taken = exit_info["count"]
            writer.line(f"if next_pc != {exit_info['follow']}:")
            writer.indent()
            writer.stmts(exit_info["spill"])
            for sreg in exit_info["sregs"]:
                writer.line(f"__state.sr[{sreg!r}] = {sreg}")
            if chain:
                writer.line(f"__b = di.budget - {taken}")
                writer.line("di.budget = __b")
                c0 = _new_cell()
                c1 = _new_cell()
                for var in (c0, c1):
                    writer.line(f"__c = {var}")
                    writer.line("if __c[2] == next_pc and __c[1] <= __b:")
                    writer.indent()
                    writer.line("return __c[0]")
                    writer.dedent()
                writer.line("__state.pc = next_pc")
                writer.line(f"di.count = {taken}")
                writer.line("if __b > 0:")
                writer.indent()
                writer.line(f"return self._chain_resolve({c0}, {c1}, next_pc, __b)")
                writer.dedent()
                writer.line("return None")
            else:
                writer.line("__state.pc = next_pc")
                writer.line(f"di.count = {taken}")
                writer.line("return None")
            writer.dedent()

        for stmts, tconst, side_exit in zip(pieces, trace_consts, side_exits):
            if tconst is not None:
                writer.stmts(stmts[:-1])
                pending_trace.append(tconst)
            else:
                _flush_trace()
                writer.stmts(stmts)
            if side_exit is not None:
                _emit_side_exit(side_exit)
        _flush_trace()
        writer.stmts(flush_stmts)
        for sreg in sorted(sreg_writes_all):
            writer.line(f"__state.sr[{sreg!r}] = {sreg}")
        runtime_exit = final_next_pc == "runtime"
        if not chain:
            if runtime_exit:
                writer.line("__state.pc = next_pc")
            else:
                writer.line(f"__state.pc = {final_next_pc}")
            writer.line(f"di.count = {count}")
        else:
            # Chain epilogue: debit the dispatch budget, then try the
            # per-exit successor slot(s).  An unlinked cell fails the same
            # ``[1] <= __b`` test as a too-long successor, so the hot path
            # is a single comparison per slot.  The slow paths translate,
            # patch and register the edge.  Bookkeeping a chained transfer
            # never needs — the ``state.pc`` commit and ``di.count`` — is
            # deferred off the hot path: the successor's pc is baked into
            # its code, and :meth:`do_block` recovers the count from the
            # budget debit (``di.count`` is set here only when execution
            # actually returns to the dispatcher).
            writer.line(f"__b = di.budget - {count}")
            writer.line("di.budget = __b")
            if runtime_exit:
                c0 = _new_cell()
                c1 = _new_cell()
                for var in (c0, c1):
                    writer.line(f"__c = {var}")
                    writer.line("if __c[2] == next_pc and __c[1] <= __b:")
                    writer.indent()
                    writer.line("return __c[0]")
                    writer.dedent()
                writer.line("__state.pc = next_pc")
                writer.line(f"di.count = {count}")
                writer.line("if __b > 0:")
                writer.indent()
                writer.line(
                    f"return self._chain_resolve({c0}, {c1}, next_pc, __b)"
                )
                writer.dedent()
            else:
                c0 = _new_cell()
                writer.line(f"__c = {c0}")
                writer.line("if __c[1] <= __b:")
                writer.indent()
                writer.line("return __c[0]")
                writer.dedent()
                writer.line(f"__state.pc = {final_next_pc}")
                writer.line(f"di.count = {count}")
                writer.line("if __b > 0:")
                writer.indent()
                writer.line(
                    f"return self._chain_link(__c, {final_next_pc}, __b)"
                )
                writer.dedent()
        self._last_cells = cells
        self._last_block_len = count
        self._last_parts = parts
        self.last_exit_targets = self._exit_targets(
            final_next_pc, pieces, side_targets
        )
        return writer.source(), name

    @staticmethod
    def _exit_targets(final_next_pc, pieces, side_targets=frozenset()) -> tuple[int, ...]:
        """Compile-time-constant successor pcs of the unit just built."""
        targets: set[int] = set(side_targets)
        if isinstance(final_next_pc, int):
            targets.add(final_next_pc)
        elif pieces:
            # Runtime exit: collect the constant arms of the final
            # instruction (e.g. both sides of a conditional branch).
            for stmt in pieces[-1]:
                for node in ast.walk(stmt):
                    if (
                        isinstance(node, ast.Assign)
                        and len(node.targets) == 1
                        and isinstance(node.targets[0], ast.Name)
                        and node.targets[0].id == "next_pc"
                        and isinstance(node.value, ast.Constant)
                        and isinstance(node.value.value, int)
                    ):
                        targets.add(node.value.value)
        return tuple(sorted(targets))

    def _instruction_core(self, instr: Instruction, addr: int, word: int) -> dict:
        """The decode-time-deterministic front half of piece translation.

        Everything up to (and including) the shared rewrites depends only
        on ``(addr, word)`` and the plan, so it is memoized per translator:
        superblock formation re-visits the same instruction once per
        unrolled loop iteration, and constant folding dominates translation
        cost.  The statements are cached as source text — the register
        cache and the peephole passes mutate ASTs in place, so each use
        re-parses a fresh tree.  A changed memory word changes the key,
        which keeps the cache trivially coherent with self-modifying code.
        """
        key = (addr, word)
        cached = self._piece_cache.get(key)
        if cached is not None:
            return cached
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
        next_const = env.get("next_pc")
        is_control = (
            "next_pc" in assigned_names([TaggedStmt("x", s) for s in stmts])
            or (isinstance(next_const, int) and next_const != addr + spec.ilen)
        )
        if not isinstance(next_const, int):
            # Unconditional direct branches keep a runtime `next_pc = K`
            # statement (two writes defeat env promotion: the synthetic
            # fall-through plus their own), yet the target is a constant;
            # superblock formation needs to see through that.
            next_const = _static_const_next_pc(stmts)

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

        cached = {
            "src": "\n".join(ast.unparse(s) for s in stmts),
            "env": env,
            "sreg_reads": frozenset(sreg_reads),
            "sreg_writes": frozenset(sreg_writes),
            "next_const": next_const if isinstance(next_const, int) else None,
            "is_control": is_control,
            "defaults": tuple(defaults),
            "trace_values": self._trace_tuple(instr, env, assigned, live_out),
            "dce_dropped": dce_dropped,
        }
        self._piece_cache[key] = cached
        return cached

    def _translate_instruction(
        self,
        sim,
        instr: Instruction,
        addr: int,
        word: int,
        regcache: RegisterCache | None,
        position: int,
        sregs_so_far: set[str] = frozenset(),
    ):
        plan = self.plan
        speculate = plan.buildset.speculation
        core = self._instruction_core(instr, addr, word)
        stmts = ast.parse(core["src"]).body
        env = core["env"]
        sreg_writes = core["sreg_writes"]
        trace_values = core["trace_values"]
        self._dce_dropped += core["dce_dropped"]

        has_syscall = self._syscalls[instr.name]
        out: list[ast.stmt] = []

        if speculate:
            out.append(ast.parse(f"__j = [('p', {addr})]").body[0])
            for sreg in sorted(sreg_writes):
                out.append(ast.parse(f"__j.append(('s', {sreg!r}, {sreg}))").body[0])

        for default_line in core["defaults"]:
            out.append(ast.parse(default_line).body[0])

        if has_syscall:
            # Handler may mutate registers/memory and may raise ExitProgram:
            # flush cached state and record the trace entry and progress
            # count first so a guest exit leaves the interface consistent.
            if regcache is not None:
                out.extend(regcache.flush())
                regcache.invalidate()
            # Special registers written earlier in the unit live in
            # locals; the handler (and a guest exit unwinding past the
            # unit epilogue) must see them architecturally.
            for sreg in sorted(sregs_so_far):
                out.append(ast.parse(f"__state.sr[{sreg!r}] = {sreg}").body[0])
            out.append(ast.parse(f"__state.pc = {addr}").body[0])
            out.append(ast.parse(f"__trace.append({trace_values})").body[0])
            out.append(ast.parse(f"di.count = {position + 1}").body[0])

        body = regcache.transform(stmts) if regcache is not None else stmts
        out.extend(body)

        if speculate:
            out.append(ast.parse("__state.journal.append(__j)").body[0])
        if not has_syscall:
            out.append(ast.parse(f"__trace.append({trace_values})").body[0])

        # Copy forwarding: the statements above still thread values
        # through per-operand temporaries; collapse single-use ones so a
        # typical ALU instruction becomes one Python statement.
        spec = plan.spec
        protected = frozenset(
            set(spec.sregs) | set(spec.regfiles) | {"next_pc", "pc", "instr_bits"}
        )
        pure = plan.pure_names | frozenset(PURE_NAMESPACE)
        out = forward_copies(out, protected, pure)
        out = peephole_stmts(out)

        # A compile-time-constant trace record can be hoisted out of the
        # instruction and batch-appended by the unit assembler.
        trace_const = None
        if not has_syscall:
            try:
                ast.literal_eval(trace_values)
                trace_const = trace_values
            except (ValueError, SyntaxError):
                trace_const = None

        info = {
            "control": core["is_control"],
            "trace_const": trace_const,
            "next_const": core["next_const"],
            "arm_consts": _next_pc_arm_consts(out),
            "sreg_reads": core["sreg_reads"],
            "sreg_writes": sreg_writes,
            "mem_used": any(
                isinstance(n, ast.Name) and n.id == "__mem"
                for s in out
                for n in ast.walk(s)
            ),
            "regfiles": {
                n.id
                for s in out
                for n in ast.walk(s)
                if isinstance(n, ast.Name) and n.id in spec.regfiles
            },
        }
        out = [s for s in out if not isinstance(s, ast.Pass)]
        return out, env, info

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

"""Runtime wrapper around a generated simulator module.

A :class:`SynthesizedSimulator` owns the architectural state, binds the
generated entrypoints as methods, hosts the block code cache, dispatches
syscalls to the configured OS-emulation handler, and provides a generic
``run`` driver so tests and benchmarks can execute workloads without
caring which interface shape (One / Step / Block) was synthesized.
"""

from __future__ import annotations

import time
import types
from dataclasses import dataclass

from repro.arch.faults import ExitProgram
from repro.arch.state import ArchState
from repro.obs.events import CACHE_FLUSH
from repro.obs.probe import NULL_OBS
from repro.prof.spans import CHAIN_PATCH, EXECUTE, ROLLBACK, SYSCALL
from repro.synth.errors import SynthesisError


@dataclass
class RunResult:
    """Outcome of a :meth:`SynthesizedSimulator.run` call."""

    executed: int
    exited: bool
    exit_status: int | None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = f" status={self.exit_status}" if self.exited else ""
        return f"<RunResult executed={self.executed} exited={self.exited}{status}>"


class SynthesizedSimulator:
    """One executable instance of a synthesized functional simulator."""

    def __init__(
        self,
        generated,
        state: ArchState | None = None,
        syscall_handler=None,
        obs=None,
    ) -> None:
        self.generated = generated
        self.plan = generated.plan
        self.spec = generated.plan.spec
        self.buildset = generated.plan.buildset
        self.state = state if state is not None else self.spec.make_state()
        self.module_namespace = generated.namespace
        self.syscall_handler = syscall_handler
        #: per-guest-PC hit counts, written only by probes that exist
        #: when the module was synthesized with observe=True
        self._prof_hits: dict[int, int] = {}
        self.obs = obs if obs is not None else NULL_OBS
        self.entry_names = generated.entry_names
        #: per-entrypoint invocation counts, incremented only by probes
        #: that exist when the module was synthesized with observe=True
        #: (or by the instrumented do_block loop)
        self._obs_ep = {name: 0 for name in generated.entry_names}
        for name in generated.entry_names:
            fn = generated.namespace.get(name)
            if fn is not None:
                setattr(self, name, types.MethodType(fn, self))
        self._cache: dict[int, object] = {}
        self._translator = None
        if self.buildset.semantic_detail == "block":
            from repro.synth.translator import BlockTranslator

            self._translator = BlockTranslator(self.plan, obs=self.obs)
            #: chain edges into each cached unit: target pc -> {id: cell}
            self._chains: dict[int, dict[int, list]] = {}
        if self.obs.enabled:
            # Selected once, here, so an uninstrumented instance keeps the
            # class's original (probe-free) methods.
            self._instrument()
        self.di = self.new_dinst()

    # -- interface plumbing -----------------------------------------------------

    def new_dinst(self):
        """Create a dynamic-instruction record for this interface."""
        return self.generated.di_class()

    def _do_syscall(self, di) -> None:
        if self.syscall_handler is None:
            raise SynthesisError(
                f"{self.spec.name}: guest executed a syscall but no handler is "
                f"configured"
            )
        self.syscall_handler(self.state, di)

    def _instrument(self) -> None:
        """Bind the instrumented dispatch loop and span-timed wrappers.

        Each wrapped method runs inside a span named after its layer, and
        its elapsed time is credited to ``guest.foreign_ns``: chain
        patching and syscalls run nested inside a translated unit's timed
        window, and the dispatch loop deducts that host-side work so
        units are charged only for executing guest code.
        """
        prof = self.obs.prof
        begin, end = prof.spans.begin, prof.spans.end
        guest = prof.guest
        ns = time.perf_counter_ns

        def timed(name: str, method):
            def wrapper(*args):
                t0 = ns()
                begin(name)
                try:
                    return method(*args)
                finally:
                    end()
                    guest.foreign_ns += ns() - t0

            return wrapper

        self.run = timed(EXECUTE, self.run)
        self._do_syscall = timed(SYSCALL, self._do_syscall)
        self.rollback = timed(ROLLBACK, self.rollback)
        if self._translator is not None:
            self.do_block = self._do_block_instrumented
            self._chain_link = timed(CHAIN_PATCH, self._chain_link)

    # -- block-mode support --------------------------------------------------------

    def do_block(self, di) -> None:
        """Execute one translation unit (generated lazily, memoized).

        With chaining enabled, a translated unit returns its successor's
        function when the successor is linked and fits the remaining
        ``di.budget``; the loop below is the trampoline that keeps
        execution inside generated code until the chain breaks.  Direct
        callers (e.g. timing models) that never set ``di.budget`` keep
        classic one-unit-per-call semantics: the budget stays at zero, so
        every unit declines to chain.
        """
        pc = self.state.pc
        fn = self._cache.get(pc)
        if fn is None:
            fn = self._translator.translate(self, pc)
            self._install_block(pc, fn)
        budget = di.budget
        if 0 < budget < fn.__block_len__:
            # Final partial unit of a bounded run: translate (uncached,
            # unchained) at most ``budget`` instructions so the executed
            # count is exact.  Bypasses the counting wrapper: truncated
            # units are an accounting artifact, not real translations.
            self._translator._translate(self, pc, limit=budget)(self, di)
            di.budget = budget - di.count
            return
        nxt = fn(self, di)
        while nxt is not None:
            nxt = nxt(self, di)

    def _do_block_instrumented(self, di) -> None:
        """Instrumented variant of :meth:`do_block` (``obs`` enabled).

        Counts cache hits and misses (a chained transfer counts as the
        hit it replaces, plus ``chained``) and charges each translation
        unit's wall-clock time and executed instruction count to its
        guest entry PC in ``obs.prof.guest``, including every chained hop
        the trampoline takes.  A unit that raises (guest exit, syscall
        unwinding) is not charged: one partial unit per run is below
        measurement noise.
        """
        pc = self.state.pc
        fn = self._cache.get(pc)
        stats = self._translator.cache_stats
        if fn is None:
            stats.misses += 1
            fn = self._translator.translate(self, pc)
            self._install_block(pc, fn)
        else:
            stats.hits += 1
        self._obs_ep["do_block"] += 1
        guest = self.obs.prof.guest
        ns = time.perf_counter_ns
        budget = di.budget
        if 0 < budget < fn.__block_len__:
            part = self._translator._translate(self, pc, limit=budget)
            t0 = ns()
            part(self, di)
            guest.add_unit_time(pc, ns() - t0, di.count)
            di.budget = budget - di.count
            return
        # Host-side work nested in the unit (chain patching, successor
        # translation, syscalls) accumulates into ``foreign_ns``; the
        # delta is deducted so the unit is charged only for guest code.
        t0 = ns()
        f0 = guest.foreign_ns
        nxt = fn(self, di)
        guest.add_unit_time(pc, ns() - t0 - (guest.foreign_ns - f0), di.count)
        while nxt is not None:
            stats.hits += 1
            stats.chained += 1
            hop_pc = nxt.__block_pc__
            t0 = ns()
            f0 = guest.foreign_ns
            cur = nxt(self, di)
            guest.add_unit_time(
                hop_pc, ns() - t0 - (guest.foreign_ns - f0), di.count,
                chained=True,
            )
            nxt = cur

    def _install_block(self, pc: int, fn) -> None:
        """Insert a translated unit into the code cache."""
        cache = self._cache
        cache[pc] = fn
        if self.obs.enabled:
            self._translator.cache_stats.blocks = len(cache)
            self.obs.prof.guest.register_unit(
                pc, fn.__block_len__, fn.__block_parts__
            )

    def _chain_link(self, cell: list, target: int, budget: int):
        """Patch ``cell`` to transfer directly to the unit at ``target``.

        Slow path of the generated chain epilogue: looks up (translating
        on a miss) the successor, records the edge so a flush can sever
        it, and returns the successor's function when it fits the
        remaining budget — the trampoline then calls it directly.
        """
        fn = self._cache.get(target)
        if fn is None:
            if self.obs.enabled:
                self._translator.cache_stats.misses += 1
            fn = self._translator.translate(self, target)
            self._install_block(target, fn)
        old = cell[2]
        if old != target:
            if old != -1:
                registry = self._chains.get(old)
                if registry is not None:
                    registry.pop(id(cell), None)
            cell[2] = target
            self._chains.setdefault(target, {})[id(cell)] = cell
            self._translator.cache_stats.chain_links += 1
        cell[0] = fn
        length = fn.__block_len__
        cell[1] = length
        return fn if length <= budget else None

    def _chain_resolve(self, c0: list, c1: list, target: int, budget: int):
        """Pick a successor slot for a runtime-computed exit and link it.

        The first slot is sticky (it keeps the first target it ever saw,
        typically the hot loop edge); other targets churn the second.
        """
        cell = c0 if (c0[2] == target or c0[2] == -1) else c1
        return self._chain_link(cell, target, budget)

    def flush_code_cache(self) -> None:
        """Drop every translated block (e.g. after loading new code)."""
        if self._translator is not None:
            from repro.synth.translator import reset_chain_cell

            stats = self._translator.cache_stats
            stats.flushes += 1
            stats.blocks = 0
            self.obs.events.emit(CACHE_FLUSH, dropped=len(self._cache))
            unlinked = 0
            for registry in self._chains.values():
                for cell in registry.values():
                    reset_chain_cell(cell)
                    unlinked += 1
            stats.chain_unlinks += unlinked
            self._chains.clear()
        self._cache.clear()

    def block_source(self, pc: int) -> str:
        """Source of the translated block at ``pc`` (for inspection/tests)."""
        fn = self._cache.get(pc)
        if fn is None:
            fn = self._translator.translate(self, pc)
            self._install_block(pc, fn)
        return fn.__block_source__

    # -- speculation -------------------------------------------------------------------

    def rollback(self, count: int = 1) -> int:
        """Undo the last ``count`` speculatively executed instructions."""
        if not self.buildset.speculation:
            raise SynthesisError(
                f"buildset {self.buildset.name!r} was synthesized without "
                f"speculation support"
            )
        return self.state.rollback(count)

    def commit(self, count: int = 1) -> int:
        """Retire undo records for the oldest ``count`` instructions."""
        return self.state.commit(count)

    # -- generic driver ------------------------------------------------------------------

    def run(self, max_instructions: int) -> RunResult:
        """Execute up to ``max_instructions``, stopping early on guest exit."""
        detail = self.buildset.semantic_detail
        di = self.di
        executed = 0
        try:
            if detail == "block":
                do_block = self.do_block
                # With chaining, every completed unit debits ``di.budget``,
                # so progress is read back from the budget rather than
                # accumulated per hop inside the trampoline (``di.count``
                # only holds the *last* unit's count, which is exactly
                # what a partial syscall exit needs).
                budgeted = self.plan.options.chain
                remaining = 0
                while executed < max_instructions:
                    di.count = 0
                    remaining = max_instructions - executed
                    di.budget = remaining
                    do_block(di)
                    executed += remaining - di.budget if budgeted else di.count
            elif detail == "one":
                entry = getattr(self, self.entry_names[0])
                while executed < max_instructions:
                    entry(di)
                    executed += 1
            else:
                entries = [getattr(self, name) for name in self.entry_names]
                while executed < max_instructions:
                    for entry in entries:
                        entry(di)
                    executed += 1
        except ExitProgram as exc:
            if detail == "block":
                # Completed chained units debited the budget; the unit the
                # guest exited from set ``di.count`` before its handler ran.
                if self.plan.options.chain:
                    executed += (remaining - di.budget) + di.count
                else:
                    executed += di.count
            else:
                executed += 1
            return RunResult(executed, True, exc.status)
        finally:
            if detail == "block":
                # A stale budget would let a later direct do_block call
                # chain past its caller's one-unit expectation.
                di.budget = 0
        return RunResult(executed, False, None)

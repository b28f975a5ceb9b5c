"""Traced run: spans around calls into each layer, and per-layer metrics.

The hooks replace public functions and methods of the simulator at class
level for the duration of one traced pass and put the originals back
afterwards.  The program under test is never edited, and the untraced
runs execute exactly its own code.

Spans go to a :class:`repro.prof.Profiler`, whose span tree keeps count,
total and self time for every path and whose capped event list is
written once, at the end, with ``repro.prof.export.write_chrome_trace``
(open it in https://ui.perfetto.dev).  Per-instruction layers (the
timing model) make millions of spans, so only the first ``SPAN_CAP``
are kept as events; every span, kept or not, counts in the tree.  Every
layer span nests under one of the benchmark's phase spans
(``cells.SETUP``, ``cells.COLD``, ``cells.WARM``), so the first element
of a tree path says which kind of run caused the work.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from statistics import median
from time import perf_counter_ns

from cells import COLD, WARM, Api, RunRecord, run_workload
from repro.adl import load_isa
from repro.prof import Profiler
from repro.synth import synthesize
from repro.synth.runtime import SynthesizedSimulator
from repro.synth.synthesizer import GeneratedSimulator
from repro.synth.translator import BlockTranslator
from repro.timing import BimodalPredictor, Cache, InOrderPipelineModel
from repro.timing.classify import InstructionClassifier

SPAN_CAP = 100_000

#: (class, method, span name) for every class-level hook
METHOD_HOOKS = (
    (GeneratedSimulator, "make", "synth.make"),
    (BlockTranslator, "translate", "translator.translate"),
    (SynthesizedSimulator, "run", "runtime.run"),
    (SynthesizedSimulator, "do_block", "runtime.do_block"),
    (SynthesizedSimulator, "rollback", "arch.rollback"),
    (SynthesizedSimulator, "commit", "arch.commit"),
    (InOrderPipelineModel, "consume", "timing.consume"),
    (Cache, "access", "timing.cache_access"),
    (BimodalPredictor, "update", "timing.predictor_update"),
    (InstructionClassifier, "kind", "timing.classify"),
)


@dataclass
class Tally:
    """What the span tree does not hold: results of some hooked calls."""

    #: duration (ns) of every ``translate`` call
    unit_ns: list[int] = field(default_factory=list)
    #: guest instructions in the translated units
    unit_instrs: int = 0
    #: instructions undone by ``rollback``
    rolled_back: int = 0


def traced(spans, name: str, fn, on_result=None):
    """``fn`` inside a span; ``on_result(result, ns)`` sees each result."""

    begin, end = spans.begin, spans.end
    if on_result is None:
        def wrapper(*args, **kwargs):
            begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                end()
    else:
        def wrapper(*args, **kwargs):
            begin(name)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                stop = perf_counter_ns()
                end()
            on_result(result, stop - start)
            return result

    wrapper.__wrapped__ = fn
    return wrapper


class TracedHandler:
    """A timing wrapper passed in as ``syscall_handler``."""

    def __init__(self, spans, handler) -> None:
        self.spans = spans
        self.handler = handler

    def __call__(self, state, di) -> None:
        self.spans.begin("sysemu.syscall")
        try:
            self.handler(state, di)
        finally:
            self.spans.end()


@contextmanager
def layer_hooks(spans, tally: Tally):
    """Install every hook; yields the traced :class:`cells.Api`."""

    def on_unit(fn, ns):
        tally.unit_ns.append(ns)
        tally.unit_instrs += fn.__block_len__

    def on_rollback(rolled, ns):
        tally.rolled_back += rolled

    special = {"translator.translate": on_unit, "arch.rollback": on_rollback}
    saved = [(cls, attr, cls.__dict__[attr]) for cls, attr, _ in METHOD_HOOKS]
    try:
        for cls, attr, name in METHOD_HOOKS:
            setattr(cls, attr, traced(spans, name, cls.__dict__[attr],
                                      special.get(name)))
        yield Api(
            load_isa=traced(spans, "adl.load_isa", load_isa),
            synthesize=traced(spans, "synth.synthesize", synthesize),
            handler=lambda handler: TracedHandler(spans, handler),
        )
    finally:
        for cls, attr, original in saved:
            setattr(cls, attr, original)


def measure_layers(workload, cells) -> tuple[tuple[RunRecord, RunRecord], dict,
                                             Profiler]:
    """One untraced pass, then one traced pass over the same cells.

    Each pass sets up once and runs every cell once.  Returns both run
    records, the per-layer metrics of the traced pass, and its profiler.
    """
    plain = run_workload(workload, cells, 0, 1)
    prof = Profiler(max_events=SPAN_CAP)
    tally = Tally()
    with layer_hooks(prof.spans, tally) as api:
        traced_run = run_workload(workload, cells, 0, 1, api, prof.spans)
    overhead = traced_run.wall_s / plain.wall_s - 1
    metrics = layer_metrics(SpanTotals(prof.spans), tally, traced_run, overhead)
    return (plain, traced_run), metrics, prof


# -- per-layer metrics -------------------------------------------------------------


class SpanTotals:
    """Count, total and self time of a span tree, by phase and span name."""

    def __init__(self, spans) -> None:
        #: (phase, name) -> [count, total_ns, self_ns]
        self.rows: dict[tuple[str, str], list[int]] = {}
        for path, node in spans.paths():
            row = self.rows.setdefault((path[0], path[-1]), [0, 0, 0])
            row[0] += node.count
            row[1] += node.total_ns
            row[2] += node.self_ns

    def _sum(self, column: int, name: str | None, prefix: str,
             phase: str | None) -> int:
        return sum(
            row[column] for (ph, nm), row in self.rows.items()
            if (phase is None or ph == phase)
            and (name is None or nm == name) and nm.startswith(prefix)
        )

    def count(self, name=None, prefix="", phase=None) -> int:
        return self._sum(0, name, prefix, phase)

    def total_s(self, name=None, prefix="", phase=None) -> float:
        return self._sum(1, name, prefix, phase) / 1e9

    def self_s(self, name=None, prefix="", phase=None) -> float:
        return self._sum(2, name, prefix, phase) / 1e9


def _tail(values: list[int]) -> tuple[float, float]:
    """Highest percentile with ten or more values beyond it: (pct, value)."""
    if not values:
        return 0.0, 0.0
    ordered = sorted(values)
    if len(ordered) <= 10:
        return 100.0, float(ordered[-1])
    return 100.0 * (len(ordered) - 10) / len(ordered), float(ordered[-11])


def layer_metrics(t: SpanTotals, tally: Tally, run: RunRecord,
                  overhead: float) -> dict:
    """Every per-layer metric of one traced pass, as (value, unit)."""
    executed = run.executed
    translate_s = t.total_s("translator.translate")
    units = t.count("translator.translate")
    instrs_translated = tally.unit_instrs
    cold_s = t.total_s(COLD)
    # The organizations' own loops drive the generated entrypoints
    # directly under the benchmark's per-run span, so that span's self
    # time is runtime work too.
    runtime_self = (t.self_s(prefix="runtime.") + t.self_s(COLD)
                    + t.self_s(WARM))
    dispatches = t.count("runtime.do_block")
    tail_pct, tail_ns = _tail(tally.unit_ns)
    reports = [rec.report for rec in run.cells.values()
               if rec.report is not None]
    instrs = sum(r.instructions for r in reports)
    cycles = sum(r.cycles for r in reports)
    return {
        "adl.load_s": (t.total_s("adl.load_isa"), "s"),
        "synth.synthesize_s": (t.total_s("synth.synthesize"), "s"),
        "synth.make_s": (t.total_s("synth.make"), "s"),
        "synth.source_kb": (run.source_kb, "KiB"),
        "translator.translate_s": (translate_s, "s"),
        "translator.units": (units, "count"),
        "translator.warm_units": (
            t.count("translator.translate", phase=WARM), "count"),
        "translator.instrs_translated": (instrs_translated, "count"),
        "translator.ms_per_instr": (
            translate_s * 1e3 / instrs_translated if instrs_translated else 0.0,
            "ms"),
        "translator.unit_ms_p50": (
            median(tally.unit_ns) / 1e6 if tally.unit_ns else 0.0, "ms"),
        "translator.unit_ms_tail": (tail_ns / 1e6, "ms"),
        "translator.unit_tail_pct": (tail_pct, "%"),
        "translator.payback": (
            executed / instrs_translated if instrs_translated else 0.0,
            "ratio"),
        "translator.share": (
            t.total_s("translator.translate", phase=COLD) / cold_s
            if cold_s else 0.0, "ratio"),
        "runtime.self_s": (runtime_self, "s"),
        "runtime.ns_per_instr": (
            runtime_self * 1e9 / executed if executed else 0.0, "ns"),
        "runtime.dispatches": (dispatches, "count"),
        "runtime.instrs_per_dispatch": (
            executed / dispatches if dispatches else 0.0, "ratio"),
        "sysemu.calls": (t.count("sysemu.syscall"), "count"),
        "sysemu.s": (t.total_s("sysemu.syscall"), "s"),
        "arch.rollbacks": (t.count("arch.rollback"), "count"),
        "arch.rolled_back_instrs": (tally.rolled_back, "count"),
        "arch.rollback_s": (t.total_s("arch.rollback"), "s"),
        "arch.commit_s": (t.total_s("arch.commit"), "s"),
        "arch.pages": (sum(rec.pages for rec in run.cells.values()), "count"),
        "timing.s": (t.self_s(prefix="timing."), "s"),
        "timing.calls": (t.count(prefix="timing."), "count"),
        "timing.cycles": (cycles, "count"),
        "timing.ipc": (instrs / cycles if cycles else 0.0, "ratio"),
        "timing.icache_misses": (sum(r.icache_misses for r in reports), "count"),
        "timing.dcache_misses": (sum(r.dcache_misses for r in reports), "count"),
        "timing.mispredicts": (
            sum(r.branch_mispredicts for r in reports), "count"),
        "timing.mismatches": (sum(r.mismatches for r in reports), "count"),
        "guest.instructions": (executed, "count"),
        "trace.overhead": (overhead, "ratio"),
    }

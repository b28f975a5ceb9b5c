"""Functional-first organization (paper §II-B).

"The functional simulator executes instructions and produces a stream of
information about their execution which is then consumed by the timing
simulator."  We drive a Block-detail functional simulator and feed its
per-instruction trace records into the in-order pipeline model.  The
interface needs only the Decode informational level — exactly the
``block_decode`` buildset.
"""

from __future__ import annotations

from repro.arch.faults import ExitProgram
from repro.obs.probe import NULL_OBS
from repro.obs.report import record_timing_stats
from repro.prof.spans import TIMING
from repro.synth.synthesizer import GeneratedSimulator
from repro.timing.pipeline import InOrderPipelineModel, TimingReport


class FunctionalFirstSimulator:
    """Trace-producing functional simulator + trace-consuming timing model."""

    def __init__(
        self,
        generated: GeneratedSimulator,
        syscall_handler=None,
        timing: InOrderPipelineModel | None = None,
        obs=None,
    ) -> None:
        if generated.plan.buildset.semantic_detail != "block":
            raise ValueError(
                "functional-first expects a block-detail interface "
                "(one call per basic block producing a trace)"
            )
        self.obs = obs if obs is not None else NULL_OBS
        self.sim = generated.make(syscall_handler=syscall_handler, obs=self.obs)
        self.timing = timing or InOrderPipelineModel(generated.spec)
        fields = generated.plan.trace_fields
        index = {name: position for position, name in enumerate(fields)}
        missing = {"pc", "instr_bits", "next_pc"} - set(index)
        if missing:
            raise ValueError(f"interface hides required fields: {missing}")
        self._pc = index["pc"]
        self._bits = index["instr_bits"]
        self._next = index["next_pc"]
        self._ea = index.get("effective_addr")
        self._taken = index.get("branch_taken")
        # Construction-time selection, as everywhere: the profiled twin
        # wraps each block's trace consumption in a TIMING span.
        self._consume = (
            self._consume_trace_profiled
            if self.obs.enabled
            else self._consume_trace
        )

    @property
    def state(self):
        return self.sim.state

    def _consume_trace(self, trace) -> None:
        timing = self.timing
        for record in trace:
            timing.consume(
                record[self._pc],
                record[self._bits],
                record[self._next],
                record[self._ea] if self._ea is not None else None,
                record[self._taken] if self._taken is not None else None,
            )

    def _consume_trace_profiled(self, trace) -> None:
        with self.obs.prof.spans.span(TIMING):
            self._consume_trace(trace)

    def run(self, max_instructions: int) -> TimingReport:
        """Run until guest exit or the instruction budget is spent."""
        report = TimingReport("functional-first")
        sim = self.sim
        consume = self._consume
        di = sim.di
        executed = 0
        try:
            while executed < max_instructions:
                di.count = 0
                sim.do_block(di)
                executed += di.count
                consume(di.trace)
        except ExitProgram as exc:
            consume(di.trace)
            report.exit_status = exc.status
        if self.obs.enabled:
            record_timing_stats(self.obs, "functional_first", self.timing)
        return self.timing.fill_report(report)

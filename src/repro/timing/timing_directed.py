"""Timing-directed organization (paper §II-C).

"As instructions flow through the microarchitecture, the timing simulator
asks the functional simulator to execute particular elements of each
instruction's behaviour."  We drive the seven Step-detail interface calls
(fetch, decode, operand fetch, execute, memory, writeback, exception) one
at a time, charging cycles per stage — the timing simulator controls when
each semantic step of the instruction happens.
"""

from __future__ import annotations

from repro.arch.faults import ExitProgram
from repro.obs.probe import NULL_OBS
from repro.obs.report import record_timing_stats
from repro.prof.spans import TIMING as TIMING_SPAN
from repro.synth.synthesizer import GeneratedSimulator
from repro.timing.classify import BRANCH, LOAD, MUL, STORE, InstructionClassifier
from repro.timing.pipeline import TimingReport, default_caches
from repro.timing.branch import BimodalPredictor


class TimingDirectedSimulator:
    """Pipeline that invokes individual instruction steps at its own pace."""

    def __init__(
        self,
        generated: GeneratedSimulator,
        syscall_handler=None,
        state=None,
        mispredict_penalty: int = 6,
        mul_latency: int = 4,
        obs=None,
    ) -> None:
        if generated.plan.buildset.semantic_detail != "step":
            raise ValueError("timing-directed requires a Step-detail interface")
        self.obs = obs if obs is not None else NULL_OBS
        self.sim = generated.make(
            state=state, syscall_handler=syscall_handler, obs=self.obs
        )
        self.entries = [getattr(self.sim, n) for n in self.sim.entry_names]
        self.classifier = InstructionClassifier(generated.spec)
        self.icache, self.dcache = default_caches()
        self.predictor = BimodalPredictor()
        self.mispredict_penalty = mispredict_penalty
        self.mul_latency = mul_latency
        self.cycles = 0
        self.instructions = 0
        self.mispredicts = 0

    @property
    def state(self):
        return self.sim.state

    def step_instruction(self) -> None:
        """Drive one instruction through the seven interface calls."""
        di = self.sim.di
        (fetch, decode, operands, execute, memory, writeback, exception) = (
            self.entries
        )
        # Fetch: timing decides when the fetch happens and pays the I-cache.
        fetch(di)
        self.cycles += self.icache.access(di.pc)
        # Decode + operand fetch: one cycle each in this simple pipe.
        decode(di)
        self.cycles += 1
        operands(di)
        kind = self.classifier.kind(di.instr_bits)
        # Execute.
        execute(di)
        self.cycles += self.mul_latency if kind == MUL else 1
        # Memory: the timing model issues the access when the D-cache
        # port is free; here that's immediately, but the *control* is ours.
        memory(di)
        if kind in (LOAD, STORE):
            self.cycles += self.dcache.access(di.effective_addr, kind == STORE)
        # Writeback happens when the timing model says so.
        writeback(di)
        exception(di)
        if kind == BRANCH:
            taken = bool(di.branch_taken)
            if not self.predictor.update(di.pc, taken):
                self.cycles += self.mispredict_penalty
                self.mispredicts += 1
        self.instructions += 1

    def run(self, max_instructions: int) -> TimingReport:
        """Drive the organization; a TIMING span brackets the whole drive."""
        with self.obs.prof.spans.span(TIMING_SPAN):
            report = TimingReport("timing-directed")
            try:
                while self.instructions < max_instructions:
                    self.step_instruction()
            except ExitProgram as exc:
                self.instructions += 1
                report.exit_status = exc.status
            report.instructions = self.instructions
            report.cycles = self.cycles
            report.branch_mispredicts = self.mispredicts
            report.icache_misses = self.icache.stats.misses
            report.dcache_misses = self.dcache.stats.misses
            if self.obs.enabled:
                record_timing_stats(self.obs, "timing_directed", self)
            return report

"""Timing-first organization (paper §II-D).

"The timing simulator performs functional behaviour which is then checked
by the functional simulator; when there is a mismatch, the timing
simulator's pipeline is flushed and its architectural state is reloaded
from the functional simulator."

The timing side here is an integrated model (it executes instructions
itself); the checker is a One/Min functional simulator running one
instruction behind.  A fault-injection hook lets tests demonstrate the
organization's selling point: timing-model functional bugs surface as
counted, recoverable mismatches rather than silent corruption.
"""

from __future__ import annotations

from repro.arch.faults import ExitProgram
from repro.obs.events import TIMING_MISMATCH
from repro.obs.probe import NULL_OBS
from repro.obs.report import record_timing_stats
from repro.prof.spans import TIMING as TIMING_SPAN
from repro.synth.synthesizer import GeneratedSimulator
from repro.timing.pipeline import InOrderPipelineModel, TimingReport


class TimingFirstSimulator(InOrderPipelineModel):
    """Integrated timing model checked by a decoupled functional model.

    Like :class:`~repro.timing.integrated.IntegratedSimulator`, the
    organization is the pipeline model itself (multiply latency 3), plus
    a flush penalty per checker mismatch.
    """

    def __init__(
        self,
        timing_generated: GeneratedSimulator,
        checker_generated: GeneratedSimulator,
        syscall_handler_factory,
        inject_bug_every: int | None = None,
        obs=None,
    ) -> None:
        # Two independent simulators with independent OS emulators: the
        # paper's organization keeps completely separate state and
        # resynchronizes on mismatch.
        super().__init__(timing_generated.spec, mul_latency=3)
        self.obs = obs if obs is not None else NULL_OBS
        self.timing_sim = timing_generated.make(
            syscall_handler=syscall_handler_factory(), obs=self.obs
        )
        self.checker_sim = checker_generated.make(
            syscall_handler=syscall_handler_factory()
        )
        self.inject_bug_every = inject_bug_every
        self.mismatches = 0

    @property
    def state(self):
        return self.timing_sim.state

    def load(self, loader) -> None:
        """Apply a loader callable to both simulators' states."""
        loader(self.timing_sim.state)
        loader(self.checker_sim.state)

    def step_instruction(self) -> None:
        timing = self.timing_sim
        checker = self.checker_sim
        di = timing.di
        timing.do_in_one(di)
        self.consume(di.pc, di.instr_bits, di.next_pc, di.effective_addr,
                     di.branch_taken)
        if (
            self.inject_bug_every
            and self.instructions % self.inject_bug_every == 0
        ):
            # Deliberate timing-model functional bug (paper: "bugs can be
            # tolerated"): corrupt a register before the check runs.
            regfile = next(iter(timing.state.rf.values()))
            regfile[5] ^= 0x1000
        # The checker executes the same instruction on its own state...
        checker.do_in_one(checker.di)
        # ...and the timing model's architectural state is validated
        # against it ("the timing model directly queries architectural
        # state in the functional model").
        if (
            timing.state.pc != checker.state.pc
            or timing.state.rf != checker.state.rf
            or timing.state.sr != checker.state.sr
        ):
            self.mismatches += 1
            if self.obs.enabled:
                self.obs.counters.inc("timing_first.mismatches")
                self.obs.events.emit(
                    TIMING_MISMATCH,
                    pc=timing.state.pc,
                    instruction=self.instructions,
                )
            # Pipeline flush + state reload from the functional model.
            timing.state.copy_architectural_state_from(checker.state)
            self.cycles += 10  # flush penalty

    def run(self, max_instructions: int) -> TimingReport:
        """Drive the organization; a TIMING span brackets the whole drive."""
        with self.obs.prof.spans.span(TIMING_SPAN):
            report = TimingReport("timing-first")
            try:
                while self.instructions < max_instructions:
                    self.step_instruction()
            except ExitProgram as exc:
                report.exit_status = exc.status
            report.mismatches = self.mismatches
            if self.obs.enabled:
                record_timing_stats(self.obs, "timing_first", self)
            return self.fill_report(report)

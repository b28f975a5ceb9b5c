"""Speculative functional-first organization (paper §II-E).

"All execution ... is considered speculative, and when the timing
simulator detects that the functional simulator's execution has differed
in any way from the timing simulator's ... it can command the functional
simulator to undo its previous behavior and continue down another path."

The substrate for the paper's motivating case (timing-dependent memory
ordering between threads) is a multiprocessor; per the substitution rule
we model the *interface consequence* instead: a deterministic divergence
schedule stands in for detected memory-order violations, forcing the
functional simulator to roll back its speculative tail and re-execute.
Final architectural state must be (and is, see tests) unaffected —
which is precisely the property the rollback interface must provide.
"""

from __future__ import annotations

from repro.arch.faults import ExitProgram
from repro.obs.events import ROLLBACK
from repro.obs.probe import NULL_OBS
from repro.obs.report import record_timing_stats
from repro.prof.spans import TIMING as TIMING_SPAN
from repro.synth.synthesizer import GeneratedSimulator
from repro.timing.pipeline import InOrderPipelineModel, TimingReport


class SpeculativeFunctionalFirstSimulator:
    """Run-ahead functional simulator with rollback on divergence."""

    def __init__(
        self,
        generated: GeneratedSimulator,
        syscall_handler=None,
        timing: InOrderPipelineModel | None = None,
        window: int = 16,
        diverge_every: int = 0,
        diverge_depth: int = 4,
        obs=None,
    ) -> None:
        if not generated.plan.buildset.speculation:
            raise ValueError(
                "speculative functional-first requires a speculation-enabled "
                "interface"
            )
        if generated.plan.buildset.semantic_detail != "one":
            raise ValueError("expected a One-detail speculative interface")
        self.obs = obs if obs is not None else NULL_OBS
        self.sim = generated.make(syscall_handler=syscall_handler, obs=self.obs)
        self.timing = timing or InOrderPipelineModel(generated.spec)
        self.window = window
        self.diverge_every = diverge_every
        self.diverge_depth = diverge_depth
        self.rollbacks = 0
        self.rolled_back_instructions = 0
        self._since_diverge = 0

    @property
    def state(self):
        return self.sim.state

    def run(self, max_instructions: int) -> TimingReport:
        """Drive the organization; a TIMING span brackets the whole drive."""
        with self.obs.prof.spans.span(TIMING_SPAN):
            report = TimingReport("speculative-functional-first")
            sim = self.sim
            di = sim.di
            committed = 0
            speculative = 0
            try:
                while committed + speculative < max_instructions:
                    try:
                        sim.do_in_one(di)
                    finally:  # the exiting instruction is charged too
                        self.timing.consume(
                            di.pc,
                            di.instr_bits,
                            di.next_pc,
                            getattr(di, "effective_addr", None),
                            getattr(di, "branch_taken", None),
                        )
                    speculative += 1
                    self._since_diverge += 1
                    if (
                        self.diverge_every
                        and self._since_diverge >= self.diverge_every
                        and speculative > 0
                    ):
                        # Timing model detected divergence: undo the tail and
                        # re-execute it down the (identical) corrected path.
                        depth = min(self.diverge_depth, speculative)
                        sim.rollback(depth)
                        speculative -= depth
                        self.rollbacks += 1
                        self.rolled_back_instructions += depth
                        self._since_diverge = 0
                        if self.obs.enabled:
                            # Depth histogram: one counter per rollback depth.
                            self.obs.counters.inc("rollback.count")
                            self.obs.counters.inc(f"rollback.depth.{depth}")
                            self.obs.events.emit(
                                ROLLBACK, depth=depth, committed=committed
                            )
                    if speculative > self.window:
                        commit = speculative - self.window
                        sim.commit(commit)
                        committed += commit
                        speculative -= commit
            except ExitProgram as exc:
                report.exit_status = exc.status
                committed += speculative
            report = self.timing.fill_report(report)
            report.organization = "speculative-functional-first"
            report.rollbacks = self.rollbacks
            report.rolled_back_instructions = self.rolled_back_instructions
            if self.obs.enabled:
                record_timing_stats(self.obs, "spec_functional_first", self.timing)
            return report

"""Integrated organization (paper §II-A).

"The integrated organization uses only a single simulator which
intermingles the functional and timing aspects ... and thus does not have
a separate functional simulator nor an interface."  We model it as one
loop that executes functionally and accounts cycles inline — useful as
the baseline row of the Figure 1 demonstration and as the timing side of
timing-first.
"""

from __future__ import annotations

from repro.arch.faults import ExitProgram
from repro.obs.probe import NULL_OBS
from repro.obs.report import record_timing_stats
from repro.synth.synthesizer import GeneratedSimulator
from repro.timing.pipeline import InOrderPipelineModel, TimingReport


class IntegratedSimulator(InOrderPipelineModel):
    """Functional execution and cycle accounting intermingled in one loop.

    The organization *is* the pipeline model: each executed instruction
    is charged by the inherited :meth:`consume`.  A multiply costs 3
    cycles here (the model's default is 4), which the Figure 1 numbers
    were recorded with.
    """

    def __init__(self, generated: GeneratedSimulator, syscall_handler=None,
                 obs=None):
        if generated.plan.buildset.semantic_detail != "one":
            raise ValueError("integrated baseline uses a One-detail build")
        super().__init__(generated.spec, mul_latency=3)
        self.obs = obs if obs is not None else NULL_OBS
        self.sim = generated.make(syscall_handler=syscall_handler, obs=self.obs)

    @property
    def state(self):
        return self.sim.state

    def run(self, max_instructions: int) -> TimingReport:
        report = TimingReport("integrated")
        sim = self.sim
        di = sim.di
        try:
            while self.instructions < max_instructions:
                sim.do_in_one(di)
                self.consume(di.pc, di.instr_bits, di.next_pc,
                             di.effective_addr, di.branch_taken)
        except ExitProgram as exc:
            report.exit_status = exc.status
        if self.obs.enabled:
            record_timing_stats(self.obs, "integrated", self)
        return self.fill_report(report)

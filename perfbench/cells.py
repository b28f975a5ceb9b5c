"""Workloads of the repository benchmark: cells, set-up, cold and warm runs.

A *cell* is one (ISA, runner, kernel) triple.  A *runner* is either a
bare Block simulator or one of the timing organizations, each built from
synthesized interfaces through the public API only:

==========================  =============================================
runner                      what runs
==========================  =============================================
``block_min``               ``SynthesizedSimulator.run`` on ``block_min``
``functional_first``        ``FunctionalFirstSimulator`` on ``block_decode``
``integrated``              ``IntegratedSimulator`` on ``one_all``
``timing_directed``         ``TimingDirectedSimulator`` on ``step_all``
``spec_functional_first``   ``SpeculativeFunctionalFirstSimulator`` on
                            ``one_decode_spec``, diverging periodically
``timing_first``            ``TimingFirstSimulator``: ``one_all`` checked
                            by ``one_min``
==========================  =============================================

Every workload is a closed loop in one thread: a cell's next run starts
when the previous one has returned.  The seed picks each kernel's ``n``
within a band around its scaled ``bench_n`` and the order of the cells;
the simulator sees only the assembled images.
"""

from __future__ import annotations

import gc
import math
import random
import time
from dataclasses import dataclass, field
from statistics import median

from repro.adl import load_isa
from repro.isa.base import get_bundle
from repro.prof.spans import NULL_SPANS
from repro.synth import synthesize
from repro.sysemu.loader import load_image
from repro.sysemu.syscalls import OSEmulator
from repro.timing import (
    BimodalPredictor,
    FunctionalFirstSimulator,
    InOrderPipelineModel,
    IntegratedSimulator,
    SpeculativeFunctionalFirstSimulator,
    TimingDirectedSimulator,
    TimingFirstSimulator,
    default_caches,
)
from repro.workloads import SUITE, assemble_kernel

ISAS = ("alpha", "arm", "ppc")
#: the six Table II kernels
KERNELS = ("checksum", "fib", "sieve", "strsearch", "bitcount", "memcopy")
#: an instruction budget no kernel reaches, so every run ends at guest
#: exit and ``do_block`` never takes its truncated-unit path
BUDGET = 10**12
#: speculative functional-first rolls back ``DIVERGE_DEPTH`` instructions
#: every ``DIVERGE_EVERY``: the schedule the repository's Figure 1 benchmark
#: runs this organization with (``benchmarks/test_fig1_organizations.py``)
DIVERGE_EVERY = 89
DIVERGE_DEPTH = 3
#: the seed draws each kernel's ``n`` from this band around the scaled size;
#: on ``block_cold``, where translation time does not grow with ``n``,
#: ``cold_mips`` moves with ``n``: over ten seeds a 0.8-1.2 band alone
#: moved it with a standard deviation of 3-6%
N_BAND = (0.9, 1.1)
#: the outermost span of each phase of a run, under which every layer's
#: spans nest when the run is traced
SETUP, COLD, WARM = "bench.setup", "bench.cold", "bench.warm"
#: seconds :func:`host_loop` takes on the reference host (a quiet 2-vCPU
#: VM, CPython 3.11.7); see :func:`_timed`
REFERENCE_LOOP_S = 0.009


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: which runners it uses, at what size."""

    name: str
    runners: tuple[str, ...]
    #: multiplies each kernel's ``bench_n``
    scale: float
    #: timed reruns from a snapshot after each cell's first run
    warm_reruns: int
    why: str


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "block_cold",
            ("block_min",),
            scale=0.5,
            warm_reruns=3,
            why="fresh block_min per kernel, run to exit, then rerun warm: "
            "translation dominates the first run, so it carries any "
            "translator change",
        ),
        # Bare block_min reruns are timed by block_cold; translating them
        # here as well would make each run of this workload last about a
        # minute, and the benchmark's runs must fit a fixed time budget.
        Workload(
            "block_warm",
            ("functional_first",),
            scale=0.75,
            warm_reruns=3,
            why="block_decode under functional-first, rerun from a snapshot "
            "with a full code cache: translated code, chaining, Memory and "
            "trace records into the timing model",
        ),
        Workload(
            "timing_orgs",
            ("integrated", "timing_directed", "spec_functional_first",
             "timing_first"),
            scale=0.15,
            warm_reruns=1,
            why="the four One/Step timing organizations: codegen-heavy "
            "set-up, timing model, undo log and rollback; no translation",
        ),
    )
}

@dataclass(frozen=True)
class Cell:
    isa: str
    runner: str
    kernel: str
    n: int
    image: object = field(repr=False, compare=False)
    expected: int = field(repr=False, compare=False)

    @property
    def label(self) -> str:
        return f"{self.isa}/{self.runner}/{self.kernel}"


@dataclass
class Outcome:
    """What one run to exit produced."""

    exited: bool
    #: guest instructions retired (re-executed speculation not counted)
    instructions: int
    #: simulated statistics; a warm rerun must reproduce them exactly
    stats: tuple
    #: the timing model's report, for runners that have one
    report: object = None


def _as_is(handler):
    return handler


@dataclass(frozen=True)
class Api:
    """Entry points the benchmark calls directly (wrapped when traced)."""

    load_isa: object = load_isa
    synthesize: object = synthesize
    #: wraps each OS emulator before it becomes a ``syscall_handler``
    handler: object = _as_is


def make_cells(workload: Workload, seed: int, isas=ISAS, kernels=KERNELS,
               scale: float = 1.0) -> list[Cell]:
    """The seeded inputs: each kernel's ``n``, then the cell order."""
    rng = random.Random(seed)
    sizes = {}
    for kernel in kernels:
        base = SUITE[kernel].bench_n * workload.scale * scale
        sizes[kernel] = max(2, round(base * rng.uniform(*N_BAND)))
    cells = []
    for isa in isas:
        for kernel in kernels:
            spec = SUITE[kernel]
            n = sizes[kernel]
            image = assemble_kernel(isa, spec, n)
            expected = spec.reference(n) & 0xFFFFFFFF
            for runner in workload.runners:
                cells.append(Cell(isa, runner, kernel, n, image, expected))
    rng.shuffle(cells)
    return cells


# -- runners -------------------------------------------------------------------


class Runner:
    """One fresh simulator instance for one cell, loaded and snapshotted."""

    #: the interfaces this runner is built from
    interfaces: tuple[str, ...] = ()

    def __init__(self, cell: Cell, gens: dict, api: Api) -> None:
        self.cell = cell
        self.bundle = get_bundle(cell.isa)
        self.api = api
        self.sim = self._build(gens)
        self.snapshots = [state.snapshot() for state in self.states()]

    def _handler(self):
        return self.api.handler(OSEmulator(self.bundle.abi))

    def _load(self, state) -> None:
        load_image(state, self.cell.image, self.bundle.abi)

    def _build(self, gens):
        raise NotImplementedError

    def states(self) -> tuple:
        return (self.sim.state,)

    def run(self) -> Outcome:
        raise NotImplementedError

    def rewind(self) -> None:
        """Restore the loaded state; timing runners also get a new model."""
        for state, snap in zip(self.states(), self.snapshots):
            state.restore(snap)

    def result_word(self) -> int:
        return self.sim.state.mem.read_u32(self.cell.image.symbol("result"))

    def pages(self) -> int:
        return sum(state.mem.pages_allocated() for state in self.states())


class BlockRunner(Runner):
    interfaces = ("block_min",)

    def _build(self, gens):
        sim = gens["block_min"].make(syscall_handler=self._handler())
        self._load(sim.state)
        return sim

    def run(self) -> Outcome:
        result = self.sim.run(BUDGET)
        return Outcome(result.exited, result.executed,
                       (result.executed, result.exit_status))


class OrgRunner(Runner):
    """A timing organization; ``self.sim`` is the organization object."""

    org_class: type
    org_kwargs: dict = {}

    def _build(self, gens):
        org = self.org_class(gens[self.interfaces[0]],
                             syscall_handler=self._handler(), **self.org_kwargs)
        self._load(org.state)
        return org

    def run(self) -> Outcome:
        report = self.sim.run(BUDGET)
        stats = (
            report.instructions, report.cycles, report.branch_mispredicts,
            report.icache_misses, report.dcache_misses, report.mismatches,
            report.rollbacks, report.rolled_back_instructions,
            report.exit_status,
        )
        retired = report.instructions - report.rolled_back_instructions
        return Outcome(report.exit_status is not None, retired, stats, report)

    def rewind(self) -> None:
        super().rewind()
        self.fresh_timing()

    def fresh_timing(self) -> None:
        # Integrated, timing-directed and timing-first keep their timing
        # model in the organization object itself; none has a reset
        # method, so a rerun rebuilds those parts as __init__ does.
        org = self.sim
        org.icache, org.dcache = default_caches()
        org.predictor = BimodalPredictor()
        org.cycles = org.instructions = org.mispredicts = 0


class FunctionalFirstRunner(OrgRunner):
    interfaces = ("block_decode",)
    org_class = FunctionalFirstSimulator

    def fresh_timing(self) -> None:
        self.sim.timing = InOrderPipelineModel(self.sim.sim.spec)


class IntegratedRunner(OrgRunner):
    interfaces = ("one_all",)
    org_class = IntegratedSimulator


class TimingDirectedRunner(OrgRunner):
    interfaces = ("step_all",)
    org_class = TimingDirectedSimulator


class SpecFunctionalFirstRunner(OrgRunner):
    interfaces = ("one_decode_spec",)
    org_class = SpeculativeFunctionalFirstSimulator
    org_kwargs = {"diverge_every": DIVERGE_EVERY,
                  "diverge_depth": DIVERGE_DEPTH}

    def fresh_timing(self) -> None:
        org = self.sim
        org.timing = InOrderPipelineModel(org.sim.spec)
        org.rollbacks = org.rolled_back_instructions = 0
        # the divergence schedule restarts too, so a rerun rolls back at
        # the same points as the first run
        org._since_diverge = 0


class TimingFirstRunner(OrgRunner):
    interfaces = ("one_all", "one_min")

    def _build(self, gens):
        org = TimingFirstSimulator(gens["one_all"], gens["one_min"],
                                   self._handler)
        org.load(self._load)
        return org

    def states(self) -> tuple:
        return (self.sim.timing_sim.state, self.sim.checker_sim.state)

    def fresh_timing(self) -> None:
        super().fresh_timing()
        self.sim.mismatches = 0


RUNNERS = {
    "block_min": BlockRunner,
    "functional_first": FunctionalFirstRunner,
    "integrated": IntegratedRunner,
    "timing_directed": TimingDirectedRunner,
    "spec_functional_first": SpecFunctionalFirstRunner,
    "timing_first": TimingFirstRunner,
}


# -- one workload run ------------------------------------------------------------


class CellFailure(Exception):
    """A cell ran but its outcome is wrong."""


@dataclass
class CellRecord:
    """Samples of one cell over every attempt in a run, in reference seconds.

    A reference second is a host second scaled to the reference host's
    speed (see :func:`_timed`).
    """

    cell: Cell
    cold_s: list[float] = field(default_factory=list)
    warm_s: list[float] = field(default_factory=list)
    instructions: int = 0
    report: object = None
    pages: int = 0


@dataclass
class RunRecord:
    """Everything one workload run measured, before it becomes metrics."""

    #: set-up times in reference seconds
    setup_s: list[float] = field(default_factory=list)
    cells: dict[str, CellRecord] = field(default_factory=dict)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    #: guest instructions over every run of every cell, cold and warm
    executed: int = 0
    #: kilobytes of generated module source (from the last set-up)
    source_kb: float = 0.0
    wall_s: float = 0.0
    #: every timed sample as it was taken: (phase, what, host seconds,
    #: host_loop seconds just before it)
    samples: list[tuple] = field(default_factory=list)

    def spec_to_exit_s(self) -> float:
        return median(self.setup_s) + sum(
            median(rec.cold_s) for rec in self.cells.values() if rec.cold_s
        )

    def mips(self, attr: str) -> float:
        """Geomean over cells of instructions / median seconds."""
        logs = [
            math.log(rec.instructions / median(getattr(rec, attr)) / 1e6)
            for rec in self.cells.values()
            if getattr(rec, attr) and rec.instructions
        ]
        return math.exp(sum(logs) / len(logs)) if logs else 0.0


def set_up(cells: list[Cell], api: Api) -> tuple[dict, list]:
    """From ``.lis`` files to loaded simulators for every cell.

    Returns the synthesized modules by ISA and, per cell, a runner or the
    exception that building it raised.
    """
    isas = sorted({cell.isa for cell in cells})
    gens: dict[str, dict] = {}
    for isa in isas:
        spec = api.load_isa(get_bundle(isa).description_paths())
        names = sorted({
            iface for cell in cells if cell.isa == isa
            for iface in RUNNERS[cell.runner].interfaces
        })
        gens[isa] = {name: api.synthesize(spec, name) for name in names}
    runners = [build_runner(c, gens[c.isa], api) for c in cells]
    return gens, runners


def build_runner(cell: Cell, gens: dict, api: Api):
    try:
        return RUNNERS[cell.runner](cell, gens, api)
    except Exception as exc:  # counted against the cell by run_cell
        return exc


def host_loop() -> float:
    """Host seconds a fixed pure-Python loop takes: the host's speed now."""
    start = time.perf_counter()
    table = {}
    word = 0
    for i in range(30_000):
        word = (word * 1103515245 + 12345) & 0xFFFFFFFF
        table[word & 255] = i
    return time.perf_counter() - start


def _timed(run: RunRecord, spans, phase: str, what: str, fn):
    """``fn()`` timed; returns its result and its time in reference seconds.

    A shared host changes speed by up to 2x over seconds to minutes, and
    every time in a run moves with it.  :func:`host_loop`, timed just
    before each sample, moves largely the same way, so each sample is
    scaled by ``REFERENCE_LOOP_S`` over the loop's time.  The loop is
    benchmark code: a change to the simulator cannot change it.  The raw
    samples are kept in ``run.samples``.
    """
    # Start every sample from a collected heap, so garbage left by the
    # previous one is not collected on this one's clock.
    gc.collect()
    loop_s = host_loop()
    spans.begin(phase)
    try:
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
    finally:
        spans.end()
    run.samples.append((phase, what, elapsed, loop_s))
    return result, elapsed * REFERENCE_LOOP_S / loop_s


def _check(runner: Runner, outcome: Outcome, first: Outcome | None) -> None:
    cell = runner.cell
    if not outcome.exited:
        raise CellFailure(f"{cell.label}: guest did not exit")
    got = runner.result_word()
    if got != cell.expected:
        raise CellFailure(
            f"{cell.label} n={cell.n}: result {got:#x} != reference "
            f"{cell.expected:#x}"
        )
    if first is not None and outcome.stats != first.stats:
        raise CellFailure(
            f"{cell.label}: warm statistics {outcome.stats} differ from "
            f"cold {first.stats}"
        )


def run_cell(runner, record: CellRecord, run: RunRecord,
             reruns: int, spans=NULL_SPANS) -> None:
    """First run on a fresh instance, then ``reruns`` warm reruns.

    Any exception or wrong outcome fails the cell; the run goes on.
    """
    run.attempted += 1
    try:
        if isinstance(runner, Exception):
            raise runner
        label = runner.cell.label
        first, cold = _timed(run, spans, COLD, label, runner.run)
        _check(runner, first, None)
        pages = runner.pages()
        warm = []
        executed = first.instructions
        for _ in range(reruns):
            runner.rewind()
            outcome, elapsed = _timed(run, spans, WARM, label, runner.run)
            _check(runner, outcome, first)
            warm.append(elapsed)
            executed += outcome.instructions
    except Exception as exc:  # every failure is counted, none aborts the run
        run.failures.append(f"{record.cell.label}: {type(exc).__name__}: {exc}")
        return
    record.cold_s.append(cold)
    record.warm_s.extend(warm)
    record.instructions = first.instructions
    record.report = first.report
    record.pages = pages
    run.executed += executed


def run_workload(
    workload: Workload,
    cells: list[Cell],
    seconds: float,
    setup_reps: int,
    api: Api = Api(),
    spans=NULL_SPANS,
    setup_seconds: float = 0.0,
) -> RunRecord:
    """Set up, then run cells until ``seconds`` pass.

    Set-up repeats at least ``setup_reps`` times and until
    ``setup_seconds`` have passed.  Every cell runs at least once; after
    the first pass the loop goes on round the same cell order, each
    attempt on a fresh instance, until the time is spent.  ``seconds=0``
    and ``setup_reps=1`` make exactly one set-up and one pass.
    """
    run = RunRecord()
    run.cells = {cell.label: CellRecord(cell) for cell in cells}
    wall = time.perf_counter()
    while (len(run.setup_s) < setup_reps
           or time.perf_counter() - wall < setup_seconds):
        (gens, runners), elapsed = _timed(
            run, spans, SETUP, workload.name, lambda: set_up(cells, api))
        run.setup_s.append(elapsed)
    run.source_kb = sum(
        len(gen.source) for by_name in gens.values() for gen in by_name.values()
    ) / 1024
    start = time.perf_counter()
    index = 0
    while index < len(cells) or time.perf_counter() - start < seconds:
        cell = cells[index % len(cells)]
        if index < len(runners):
            runner = runners[index]
            runners[index] = None  # release each instance once it has run
        else:
            runner = build_runner(cell, gens[cell.isa], api)
        run_cell(runner, run.cells[cell.label], run, workload.warm_reruns,
                 spans)
        index += 1
    run.wall_s = time.perf_counter() - wall
    return run

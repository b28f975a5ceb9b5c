"""Integration tests: the five decoupled organizations of Figure 1."""

import pytest

from repro.isa.base import get_bundle
from repro.obs import make_observability
from repro.prof.spans import TIMING as TIMING_SPAN
from repro.synth import synthesize
from repro.sysemu.loader import load_image
from repro.sysemu.syscalls import OSEmulator
from repro.timing import (
    FunctionalFirstSimulator,
    IntegratedSimulator,
    SamplingSimulator,
    SpeculativeFunctionalFirstSimulator,
    TimingDirectedSimulator,
    TimingFirstSimulator,
)
from repro.timing.classify import (
    ALU,
    BRANCH,
    LOAD,
    STORE,
    SYSCALL,
    InstructionClassifier,
)
from repro.workloads import SUITE, assemble_kernel

ISA = "alpha"
KERNEL = SUITE["sieve"]

_CACHE = {}


def gen(buildset, isa=ISA):
    key = (isa, buildset)
    if key not in _CACHE:
        _CACHE[key] = synthesize(get_bundle(isa).load_spec(), buildset)
    return _CACHE[key]


@pytest.fixture()
def loaded_image():
    return assemble_kernel(ISA, KERNEL, KERNEL.test_n)


@pytest.fixture()
def expected():
    return KERNEL.reference(KERNEL.test_n) & 0xFFFFFFFF


def handler():
    return OSEmulator(get_bundle(ISA).abi)


ORGANIZATIONS = (
    "integrated",
    "functional-first",
    "timing-directed",
    "timing-first",
    "speculative-functional-first",
)


def organization(name, image, obs=None):
    """One of the five organizations, loaded with ``image``."""
    if name == "timing-first":
        sim = TimingFirstSimulator(gen("one_all"), gen("one_min"), handler,
                                   obs=obs)
        sim.load(lambda st: load_image(st, image, get_bundle(ISA).abi))
        return sim
    if name == "integrated":
        sim = IntegratedSimulator(gen("one_all"), handler(), obs=obs)
    elif name == "functional-first":
        sim = FunctionalFirstSimulator(gen("block_decode"), handler(), obs=obs)
    elif name == "timing-directed":
        sim = TimingDirectedSimulator(gen("step_all"), handler(), obs=obs)
    else:
        sim = SpeculativeFunctionalFirstSimulator(
            gen("one_decode_spec"), handler(), diverge_every=97, obs=obs
        )
    load_image(sim.state, image, get_bundle(ISA).abi)
    return sim


class TestClassifier:
    def test_kinds(self):
        spec = get_bundle(ISA).load_spec()
        classifier = InstructionClassifier(spec)
        bundle = get_bundle(ISA)
        asm = bundle.make_assembler()

        def word(src):
            return int.from_bytes(asm.assemble(src).segments[0][1][:4], "little")

        assert classifier.kind(word("ldq $1, 0($2)")) == LOAD
        assert classifier.kind(word("stq $1, 0($2)")) == STORE
        assert classifier.kind(word("beq $1, .+8")) == BRANCH
        assert classifier.kind(word("addq $1, $2, $3")) == ALU
        assert classifier.kind(word("call_pal 0x83")) == SYSCALL


class TestFunctionalFirst:
    def test_runs_and_counts_cycles(self, loaded_image, expected):
        ff = FunctionalFirstSimulator(gen("block_decode"), syscall_handler=handler())
        load_image(ff.state, loaded_image, get_bundle(ISA).abi)
        report = ff.run(10_000_000)
        assert report.exit_status is not None
        assert report.cycles > report.instructions  # stalls exist
        assert ff.state.mem.read_u32(loaded_image.symbol("result")) == expected

    def test_requires_block_interface(self):
        with pytest.raises(ValueError, match="block"):
            FunctionalFirstSimulator(gen("one_all"))

    def test_min_interface_insufficient(self):
        # Min detail hides effective addresses; FF still works (pc/bits/next
        # are always visible) but for this check we assert the constructor
        # accepts it — the address feed is simply absent.
        ff = FunctionalFirstSimulator(gen("block_min"), syscall_handler=handler())
        assert ff._ea is None


class TestTimingDirected:
    def test_runs_with_step_control(self, loaded_image, expected):
        td = TimingDirectedSimulator(gen("step_all"), syscall_handler=handler())
        load_image(td.state, loaded_image, get_bundle(ISA).abi)
        report = td.run(10_000_000)
        assert report.exit_status is not None
        assert td.state.mem.read_u32(loaded_image.symbol("result")) == expected
        assert report.cycles >= 3 * report.instructions  # multi-cycle pipe

    def test_requires_step_interface(self):
        with pytest.raises(ValueError, match="Step"):
            TimingDirectedSimulator(gen("one_all"))


class TestTimingFirst:
    def test_clean_run_has_no_mismatches(self, loaded_image, expected):
        tf = TimingFirstSimulator(gen("one_all"), gen("one_min"), handler)
        tf.load(lambda st: load_image(st, loaded_image, get_bundle(ISA).abi))
        report = tf.run(10_000_000)
        assert report.mismatches == 0
        assert tf.state.mem.read_u32(loaded_image.symbol("result")) == expected

    def test_injected_bugs_are_caught_and_corrected(self, loaded_image, expected):
        tf = TimingFirstSimulator(
            gen("one_all"), gen("one_min"), handler, inject_bug_every=500
        )
        tf.load(lambda st: load_image(st, loaded_image, get_bundle(ISA).abi))
        report = tf.run(10_000_000)
        assert report.mismatches >= report.instructions // 500
        # the checker keeps the run architecturally correct
        assert (
            tf.checker_sim.state.mem.read_u32(loaded_image.symbol("result"))
            == expected
        )


class TestSpeculativeFunctionalFirst:
    def test_rollbacks_do_not_corrupt_state(self, loaded_image, expected):
        sff = SpeculativeFunctionalFirstSimulator(
            gen("one_decode_spec"),
            syscall_handler=handler(),
            diverge_every=97,
            diverge_depth=4,
        )
        load_image(sff.state, loaded_image, get_bundle(ISA).abi)
        report = sff.run(10_000_000)
        assert report.rollbacks > 0
        assert report.rolled_back_instructions == report.rollbacks * 4
        assert sff.state.mem.read_u32(loaded_image.symbol("result")) == expected

    def test_requires_speculative_interface(self):
        with pytest.raises(ValueError, match="speculation"):
            SpeculativeFunctionalFirstSimulator(gen("one_decode"))

    def test_journal_stays_bounded(self, loaded_image):
        sff = SpeculativeFunctionalFirstSimulator(
            gen("one_decode_spec"), syscall_handler=handler(), window=8
        )
        load_image(sff.state, loaded_image, get_bundle(ISA).abi)
        sff.run(1000)
        assert len(sff.state.journal) <= 9


class TestSampling:
    def test_alternates_and_finishes(self, loaded_image, expected):
        sampler = SamplingSimulator(
            gen("step_all"),
            gen("block_min"),
            syscall_handler=handler(),
            detail_window=100,
            fastforward_window=400,
        )
        load_image(sampler.state, loaded_image, get_bundle(ISA).abi)
        report = sampler.run(10_000_000)
        assert report.exit_status is not None
        assert report.detailed_instructions > 0
        assert report.fastforward_instructions > report.detailed_instructions
        assert sampler.state.mem.read_u32(loaded_image.symbol("result")) == expected

    def test_detailed_cpi_estimate_positive(self, loaded_image):
        sampler = SamplingSimulator(
            gen("step_all"), gen("block_min"), syscall_handler=handler()
        )
        load_image(sampler.state, loaded_image, get_bundle(ISA).abi)
        report = sampler.run(10_000_000)
        assert report.estimated_cpi > 1.0


class TestIntegrated:
    def test_runs(self, loaded_image, expected):
        integrated = IntegratedSimulator(gen("one_all"), syscall_handler=handler())
        load_image(integrated.state, loaded_image, get_bundle(ISA).abi)
        report = integrated.run(10_000_000)
        assert report.exit_status is not None
        assert integrated.state.mem.read_u32(loaded_image.symbol("result")) == expected


class TestCrossOrganizationAgreement:
    def test_cycle_counts_agree_between_equivalent_models(self, loaded_image):
        """Integrated and functional-first use the same cycle math, so on
        the same program they must produce identical cycle counts."""
        ff = FunctionalFirstSimulator(gen("block_decode"), syscall_handler=handler())
        load_image(ff.state, loaded_image, get_bundle(ISA).abi)
        r1 = ff.run(10_000_000)

        integrated = IntegratedSimulator(gen("one_all"), syscall_handler=handler())
        load_image(integrated.state, loaded_image, get_bundle(ISA).abi)
        r2 = integrated.run(10_000_000)
        assert r1.instructions == r2.instructions
        assert abs(r1.cycles - r2.cycles) <= 70

    def test_timing_first_is_the_integrated_model_plus_flushes(
        self, loaded_image
    ):
        """Timing-first's timing side is the integrated model: clean, it
        reports integrated's exact statistics; with injected bugs, only
        the 10-cycle flush per mismatch is added."""

        def stats(report):
            return (report.instructions, report.cycles,
                    report.branch_mispredicts, report.icache_misses,
                    report.dcache_misses)

        def timing_first(**kwargs):
            tf = TimingFirstSimulator(gen("one_all"), gen("one_min"), handler,
                                      **kwargs)
            tf.load(lambda st: load_image(st, loaded_image, get_bundle(ISA).abi))
            return tf.run(10_000_000)

        integrated = IntegratedSimulator(gen("one_all"), syscall_handler=handler())
        load_image(integrated.state, loaded_image, get_bundle(ISA).abi)
        base = integrated.run(10_000_000)

        clean = timing_first()
        assert clean.mismatches == 0
        assert stats(clean) == stats(base)

        buggy = timing_first(inject_bug_every=700)
        assert buggy.mismatches > 0
        assert buggy.instructions == base.instructions
        assert buggy.cycles == base.cycles + 10 * buggy.mismatches

    def test_all_organizations_retire_the_same_instructions(self, loaded_image):
        """The exiting instruction is retired once by every organization."""
        retired = set()
        for name in ORGANIZATIONS:
            report = organization(name, loaded_image).run(10_000_000)
            assert report.exit_status is not None
            retired.add(report.instructions - report.rolled_back_instructions)
        assert len(retired) == 1

    @pytest.mark.parametrize("name", ORGANIZATIONS)
    def test_profiled_run_records_a_timing_span(self, name, loaded_image):
        obs = make_observability()
        organization(name, loaded_image, obs=obs).run(10_000_000)
        assert TIMING_SPAN in obs.prof.spans.tree()

"""Unit tests for the measurement harness."""

import sys

import pytest

from repro.harness import (
    INTERFACE_GRID,
    HostOpMeter,
    bench_environment,
    count_adl_lines,
    hostops_per_instruction,
    measure_buildset,
    render_table,
    table1,
)
from repro.harness.loc import IsaCharacteristics
from repro.isa.base import get_bundle
from repro.synth import synthesize
from repro.sysemu.loader import load_image
from repro.sysemu.syscalls import OSEmulator
from repro.workloads import SUITE, assemble_kernel


class TestLoc:
    def test_count_excludes_comments_and_blanks(self, tmp_path):
        path = tmp_path / "x.lis"
        path.write_text(
            "// comment\n\nfield a u64;\n/* block\ncomment */\nfield b u64;\n"
        )
        assert count_adl_lines(str(path)) == 2

    def test_inline_comment_line_still_counts(self, tmp_path):
        path = tmp_path / "x.lis"
        path.write_text("field a u64; // trailing\n")
        assert count_adl_lines(str(path)) == 1

    def test_table1_measures_all_isas(self):
        rows = table1()
        assert [c.isa for c in rows] == ["alpha", "arm", "ppc"]
        for c in rows:
            assert c.isa_description_lines > 100
            assert 0 < c.lines_per_buildset < 20

    def test_characteristics_single_isa(self):
        c = IsaCharacteristics.measure("alpha")
        assert c.buildsets == 12


class TestInterfaceGrid:
    def test_twelve_interfaces(self):
        assert len(INTERFACE_GRID) == 12

    def test_grid_covers_paper_axes(self):
        semantics = {row[1] for row in INTERFACE_GRID}
        infos = {row[2] for row in INTERFACE_GRID}
        specs = {row[3] for row in INTERFACE_GRID}
        assert semantics == {"Block", "One", "Step"}
        assert infos == {"Min", "Decode", "All"}
        assert specs == {"Yes", "No"}

    def test_grid_buildsets_exist_everywhere(self):
        from repro.isa.base import get_bundle

        for isa in ("alpha", "arm", "ppc"):
            spec = get_bundle(isa).load_spec()
            for buildset, *_ in INTERFACE_GRID:
                assert buildset in spec.buildsets, (isa, buildset)


class TestMeasurement:
    def test_measure_buildset_smoke(self):
        m = measure_buildset("alpha", "one_min", kernels=("fib",), scale=0.05)
        assert m.mips > 0
        assert m.instructions > 0
        block = measure_buildset("alpha", "block_min", kernels=("fib",),
                                 scale=0.05)
        assert block.cold_s > 0 and block.cold_mips > 0
        # the cold run pays for translation, the warm reruns do not
        assert block.cold_mips < block.mips

    def test_bench_environment_keys(self):
        env = bench_environment()
        assert set(env) == {"python", "cpu_count", "git_commit", "scale", "reps"}

    def test_hostops_smoke(self):
        first, second = (
            hostops_per_instruction("alpha", "one_min", kernels=("fib",), scale=0.2)
            for _ in range(2)
        )
        assert 50 < first < 5000
        assert first == second  # executed bytecode is deterministic


def _warm_rerun_hostops(buildset: str) -> float:
    """Host ops/instr of a metered rerun of alpha sieve (scale 0.3)."""
    bundle = get_bundle("alpha")
    generated = synthesize(bundle.load_spec(), buildset)
    kernel = SUITE["sieve"]
    image = assemble_kernel("alpha", kernel, int(kernel.test_n * 0.3))
    sim = generated.make(syscall_handler=OSEmulator(bundle.abi))
    load_image(sim.state, image, bundle.abi)
    snapshot = sim.state.snapshot()
    assert sim.run(50_000_000).exited
    sim.state.restore(snapshot)
    sim.syscall_handler = OSEmulator(bundle.abi)
    with HostOpMeter() as meter:
        result = sim.run(50_000_000)
    assert result.exited
    return meter.ops / result.executed


class TestHostOpMeter:
    def test_warm_block_calls_cost_less_than_one_calls(self):
        # Translated units are charged for the bytecode they run, not
        # their whole static length: side exits that leave a superblock
        # early must not make batching look expensive.
        assert _warm_rerun_hostops("block_min") < _warm_rerun_hostops("one_min")

    def test_restores_installed_tracer(self):
        def tracer(frame, event, arg):
            return None

        previous = sys.gettrace()
        sys.settrace(tracer)
        try:
            with HostOpMeter():
                assert sys.gettrace() is not tracer
            assert sys.gettrace() is tracer
        finally:
            sys.settrace(previous)

    def test_counts_only_generated_code(self):
        with HostOpMeter() as meter:
            sum(range(1000))
            sorted(str(n) for n in range(100))
        assert meter.ops == 0


class TestRenderTable:
    def test_alignment_and_content(self):
        text = render_table("T", ["name", "v"], [["row", 1.5], ["loooong", 2]])
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[2]
        assert "1.50" in text and "loooong" in text

    def test_empty_rows(self):
        text = render_table("T", ["a"], [])
        assert "a" in text

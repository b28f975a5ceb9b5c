"""Superblock formation and direct block chaining (toy ISA).

Covers the translation-unit shapes (`docs/performance.md`), the exact
``run()`` accounting contract under chaining, and the interplay with
code-cache flushing.
"""

import pytest

from repro.synth import SynthOptions, synthesize

from tests.synth import toyasm

#: both optimizations off; the classic one-basic-block translator
OFF = SynthOptions(chain=False, superblock=0)


@pytest.fixture(scope="module")
def gen(toy_spec):
    return synthesize(toy_spec, "block_min")


@pytest.fixture(scope="module")
def gen_off(toy_spec):
    return synthesize(toy_spec, "block_min", OFF)


def run_program(gen, words, max_instrs=10_000):
    sim = gen.make(syscall_handler=toyasm.exit_handler())
    toyasm.load_words(sim.state, words)
    result = sim.run(max_instrs)
    return sim, result


class TestSuperblockFormation:
    def test_constant_branch_crossed(self, gen):
        # JAL's target is a compile-time constant: the unit continues
        # there, skipping the dead word in between.
        sim = gen.make()
        toyasm.load_words(
            sim.state,
            [
                toyasm.addi(1, 0, 1),   # 0x00
                toyasm.jal(1),          # 0x04: goto 0x0c
                toyasm.addi(9, 0, 9),   # 0x08: skipped
                toyasm.addi(2, 0, 2),   # 0x0c
                toyasm.sys(),           # 0x10
            ],
        )
        sim.block_source(0)
        assert sim._cache[0].__block_len__ == 4  # 0x08 never translated

    def test_conditional_fallthrough_guarded_side_exit(self, gen):
        # A conditional whose not-taken arm is the fall-through crosses
        # it; the taken arm becomes a guarded side exit.
        sim = gen.make()
        toyasm.load_words(
            sim.state,
            [
                toyasm.addi(1, 0, 1),   # 0x00
                toyasm.beq(1, 0, 3),    # 0x04: if R1==0 goto 0x18
                toyasm.addi(2, 0, 2),   # 0x08: fall-through, crossed
                toyasm.sys(),           # 0x0c
            ],
        )
        source = sim.block_source(0)
        assert sim._cache[0].__block_len__ == 4
        assert "if next_pc != 8:" in source

    def test_side_exit_settles_partial_count(self, gen):
        # Taking the guarded arm must report only the instructions
        # actually executed, not the unit's full length.
        words = [
            toyasm.addi(1, 0, 1),   # 0x00
            toyasm.beq(1, 1, 3),    # 0x04: always taken, goto 0x18
            toyasm.addi(2, 0, 2),   # 0x08: crossed but never executed
            toyasm.sys(),           # 0x0c
            toyasm.sys(),           # 0x10
            toyasm.addi(3, 0, 7),   # 0x18: R3 = exit status
            toyasm.sys(),           # 0x1c
        ]
        sim, result = run_program(gen, words)
        assert result.exited and result.exit_status == 7
        assert result.executed == 4  # addi, beq, addi, sys
        assert sim.state.rf["R"][2] == 0  # the crossed arm never ran

    def test_self_loop_unrolled(self, gen, gen_off):
        # The SUM_LOOP body (3 instructions at 0x08) branches back to
        # itself: the superblock unroller widens that unit well past one
        # iteration, where the classic translator stops at the back-edge.
        sim = gen.make(syscall_handler=toyasm.exit_handler())
        toyasm.load_words(sim.state, toyasm.SUM_LOOP)
        sim.run(10_000)
        sim_off = gen_off.make(syscall_handler=toyasm.exit_handler())
        toyasm.load_words(sim_off.state, toyasm.SUM_LOOP)
        sim_off.run(10_000)
        assert sim_off._cache[0x08].__block_len__ == 3
        unrolled = sim._cache[0x08].__block_len__
        assert unrolled > 3
        # every unrolled back-edge guards a return to the loop head, and
        # once another iteration no longer fits the budget the loop's
        # fall-through arm is crossed into the epilogue instead
        source = sim._cache[0x08].__block_source__
        assert source.count("if next_pc != 8:") >= 2
        assert "if next_pc != 20:" in source

    def test_crossing_reverted_when_fallthrough_undecodable(self, gen):
        # A conditional right before non-code bytes: the attempted
        # crossing must be undone, leaving the classic runtime exit with
        # no guard (the side exit would duplicate spills for nothing).
        sim = gen.make()
        toyasm.load_words(
            sim.state,
            [toyasm.addi(1, 0, 1), toyasm.beq(1, 0, 3), 0x30 << 26],
        )
        source = sim.block_source(0)
        assert sim._cache[0].__block_len__ == 2
        assert "if next_pc !=" not in source

    def test_superblock_budget_respected(self, toy_spec):
        gen = synthesize(toy_spec, "block_min", SynthOptions(superblock=4))
        sim = gen.make()
        toyasm.load_words(sim.state, toyasm.SUM_LOOP)
        sim.block_source(0x08)
        assert sim._cache[0x08].__block_len__ <= 4


class TestChaining:
    def test_exits_link_to_successors(self, gen):
        sim, result = run_program(gen, toyasm.SUM_LOOP)
        assert result.exit_status == toyasm.SUM_LOOP_RESULT
        cells = [
            cell
            for fn in sim._cache.values()
            for cell in fn.__chain_cells__
        ]
        linked = [cell for cell in cells if cell[2] != -1]
        assert linked, "no exit was ever patched to its successor"
        assert sim._chains  # the in-edge registry mirrors the links

    def test_no_chain_units_carry_no_residue(self, gen_off):
        sim, result = run_program(gen_off, toyasm.SUM_LOOP)
        assert result.exit_status == toyasm.SUM_LOOP_RESULT
        for pc, fn in sim._cache.items():
            assert "__chain" not in fn.__block_source__, hex(pc)
            assert "di.budget" not in fn.__block_source__, hex(pc)

    @pytest.mark.parametrize("options", [None, OFF], ids=["chain", "classic"])
    def test_run_stops_at_exact_instruction_count(self, toy_spec, options):
        gen = synthesize(toy_spec, "block_min", options)
        for budget in (1, 2, 5, 13, toyasm.SUM_LOOP_INSTRS - 1):
            sim = gen.make(syscall_handler=toyasm.exit_handler())
            toyasm.load_words(sim.state, toyasm.SUM_LOOP)
            result = sim.run(budget)
            assert not result.exited
            assert result.executed == budget

    def test_exit_reports_exact_total(self, gen):
        _, result = run_program(gen, toyasm.SUM_LOOP)
        assert result.exited and result.exit_status == toyasm.SUM_LOOP_RESULT
        assert result.executed == toyasm.SUM_LOOP_INSTRS

    def test_resume_after_budget_stop(self, gen):
        # Stopping mid-superblock truncates the final unit; resuming must
        # pick up where it left off with nothing lost or double-counted.
        sim = gen.make(syscall_handler=toyasm.exit_handler())
        toyasm.load_words(sim.state, toyasm.SUM_LOOP)
        first = sim.run(7)
        rest = sim.run(10_000)
        assert rest.exited and rest.exit_status == toyasm.SUM_LOOP_RESULT
        assert first.executed + rest.executed == toyasm.SUM_LOOP_INSTRS


class TestCacheInterplay:
    def test_flush_mid_run_continues_correctly(self, gen):
        sim = gen.make(syscall_handler=toyasm.exit_handler())
        toyasm.load_words(sim.state, toyasm.SUM_LOOP)
        first = sim.run(10)
        incoming = [cell for registry in sim._chains.values()
                    for cell in registry.values()]
        assert incoming
        sim.flush_code_cache()
        assert not sim._cache and not sim._chains
        for cell in incoming:  # no stale unit is ever re-entered
            assert cell[2] == -1
            assert cell[1] > 10**9  # CHAIN_NEVER: fits no real budget
        rest = sim.run(10_000)
        assert rest.exited and rest.exit_status == toyasm.SUM_LOOP_RESULT
        assert first.executed + rest.executed == toyasm.SUM_LOOP_INSTRS


class TestDifferential:
    BLOCK_BUILDSETS = ("block_min", "block_all", "block_min_spec")

    @pytest.mark.parametrize("buildset", BLOCK_BUILDSETS)
    def test_on_off_state_equivalence(self, toy_spec, buildset):
        sims = []
        for options in (None, OFF):
            gen = synthesize(toy_spec, buildset, options)
            sim, result = run_program(gen, toyasm.SUM_LOOP)
            sims.append((sim, result))
        (sim_on, res_on), (sim_off, res_off) = sims
        assert res_on.exit_status == res_off.exit_status
        assert res_on.executed == res_off.executed
        assert sim_on.state.rf == sim_off.state.rf
        assert sim_on.state.sr == sim_off.state.sr
        assert (
            sim_on.state.mem.read_u32(0x200) == sim_off.state.mem.read_u32(0x200)
        )

    def test_one_and_step_modules_byte_identical(self, toy_spec):
        # The optimizations are block-translator features; the static
        # One/Step module sources must not depend on them at all.
        for buildset in ("one_min", "one_all", "step_all"):
            on = synthesize(toy_spec, buildset)
            off = synthesize(toy_spec, buildset, OFF)
            assert on.source == off.source, buildset

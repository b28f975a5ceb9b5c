"""End-to-end tests of the synthesizer across every interface shape."""

import pytest

from repro.arch.faults import IllegalInstruction
from repro.harness.hostops import HostOpMeter
from repro.synth import SynthOptions, SynthesisError, synthesize
from repro.synth.translator import MAX_BLOCK

from tests.synth import toyasm

ALL_BUILDSETS = [
    "one_all",
    "one_min",
    "one_all_spec",
    "step_all",
    "block_min",
    "block_all",
    "block_min_spec",
]


@pytest.fixture(scope="module")
def generators(toy_spec):
    return {name: synthesize(toy_spec, name) for name in ALL_BUILDSETS}


def run_program(gen, words, max_instrs=10_000):
    sim = gen.make(syscall_handler=toyasm.exit_handler())
    toyasm.load_words(sim.state, words)
    result = sim.run(max_instrs)
    return sim, result


class TestBasicExecution:
    @pytest.mark.parametrize("buildset", ALL_BUILDSETS)
    def test_sum_loop_runs_everywhere(self, generators, buildset):
        sim, result = run_program(generators[buildset], toyasm.SUM_LOOP)
        assert result.exited
        assert result.exit_status == toyasm.SUM_LOOP_RESULT
        assert sim.state.mem.read_u64(0x200) == toyasm.SUM_LOOP_RESULT
        assert result.executed == toyasm.SUM_LOOP_INSTRS

    @pytest.mark.parametrize("buildset", ALL_BUILDSETS)
    def test_final_states_identical(self, generators, buildset):
        """The paper's rotating-interface validation, in miniature."""
        reference, _ = run_program(generators["one_all"], toyasm.SUM_LOOP)
        sim, _ = run_program(generators[buildset], toyasm.SUM_LOOP)
        # pc after a guest exit is interface-dependent (the exiting syscall
        # never commits); registers and memory must match exactly.
        assert sim.state.rf == reference.state.rf
        assert sim.state.sr == reference.state.sr
        assert dict(sim.state.mem.iter_nonzero_pages()) == dict(
            reference.state.mem.iter_nonzero_pages()
        )

    def test_illegal_instruction_raises(self, generators):
        sim = generators["one_all"].make()
        sim.state.mem.write_u32(0, 0x3E << 26)  # unassigned opcode
        with pytest.raises(IllegalInstruction):
            sim.run(1)

    def test_illegal_instruction_raises_in_block_mode(self, generators):
        sim = generators["block_min"].make()
        sim.state.mem.write_u32(0, 0x3E << 26)  # unassigned opcode
        with pytest.raises(IllegalInstruction):
            sim.run(1)

    def test_missing_syscall_handler_is_an_error(self, generators):
        sim = generators["one_all"].make()
        toyasm.load_words(sim.state, [toyasm.sys()])
        with pytest.raises(SynthesisError):
            sim.run(1)

    def test_unknown_buildset_rejected(self, toy_spec):
        with pytest.raises(SynthesisError, match="no buildset"):
            synthesize(toy_spec, "nope")

    def test_run_stops_at_max_instructions(self, generators):
        sim = generators["one_all"].make(syscall_handler=toyasm.exit_handler())
        toyasm.load_words(sim.state, toyasm.SUM_LOOP)
        result = sim.run(5)
        assert not result.exited
        assert result.executed == 5


class TestInterfaceInformation:
    def test_one_all_reports_operand_values(self, generators):
        sim = generators["one_all"].make()
        toyasm.load_words(sim.state, [toyasm.addi(1, 0, 42)])
        sim.do_in_one(sim.di)
        assert sim.di.pc == 0
        assert sim.di.next_pc == 4
        assert sim.di.dest_val == 42
        assert sim.di.dest1_id == 1
        assert sim.di.fault == 0

    def test_one_min_record_has_no_operand_slots(self, generators):
        di = generators["one_min"].make().new_dinst()
        assert not hasattr(di, "dest_val")
        assert not hasattr(di, "src1_id")
        assert hasattr(di, "pc") and hasattr(di, "next_pc")

    def test_effective_address_visible_at_all(self, generators):
        sim = generators["one_all"].make()
        sim.state.rf["R"][2] = 0x1000
        toyasm.load_words(sim.state, [toyasm.ldw(1, 2, 0x20)])
        sim.state.mem.write_u64(0x1020, 99)
        sim.do_in_one(sim.di)
        assert sim.di.effective_addr == 0x1020
        assert sim.di.dest_val == 99

    def test_branch_fields(self, generators):
        sim = generators["one_all"].make()
        toyasm.load_words(sim.state, [toyasm.beq(0, 0, 7)])
        sim.do_in_one(sim.di)
        assert sim.di.branch_taken == 1
        assert sim.di.next_pc == 4 + 7 * 4
        assert sim.state.pc == 4 + 7 * 4

    def test_block_trace_records(self, generators):
        gen = generators["block_all"]
        sim = gen.make()
        toyasm.load_words(sim.state, [toyasm.addi(1, 0, 5), toyasm.beq(0, 0, 3)])
        sim.do_block(sim.di)
        assert sim.di.count == 2
        assert len(sim.di.trace) == 2
        fields = gen.plan.trace_fields
        rec0 = dict(zip(fields, sim.di.trace[0]))
        rec1 = dict(zip(fields, sim.di.trace[1]))
        assert rec0["pc"] == 0 and rec0["next_pc"] == 4
        assert rec0["dest_val"] == 5 and rec0["dest1_id"] == 1
        assert rec1["pc"] == 4 and rec1["next_pc"] == 4 + 4 + 3 * 4
        assert rec1["branch_taken"] == 1

    def test_block_min_trace_is_narrow(self, generators):
        gen = generators["block_min"]
        sim = gen.make()
        toyasm.load_words(sim.state, [toyasm.addi(1, 0, 5), toyasm.beq(0, 0, 3)])
        sim.do_block(sim.di)
        assert len(sim.di.trace[0]) == 5  # pc, phys_pc, instr_bits, next_pc, fault


class TestGeneratedShape:
    """The paper's Figures 3/4: hidden fields become locals, visible
    fields become record stores, dead information disappears."""

    def test_min_has_no_record_stores_for_hidden_fields(self, toy_spec):
        src = synthesize(toy_spec, "one_min").source
        assert "di.src1_val" not in src
        assert "di.effective_addr" not in src
        assert "di.next_pc = next_pc" in src  # always-visible minimum

    def test_all_stores_visible_fields(self, toy_spec):
        src = synthesize(toy_spec, "one_all").source
        assert "di.src1_val = src1_val" in src
        assert "di.effective_addr = effective_addr" in src

    def test_dce_removes_unused_operand_read(self, toy_spec):
        # JR binds src2 via the branch class but never uses it; with Min
        # visibility the read must vanish.
        src = synthesize(toy_spec, "one_min").source
        jr_index = next(
            i for i, ins in enumerate(toy_spec.instructions) if ins.name == "JR"
        )
        body = src.split(f"def _b_{jr_index}(")[1].split("\ndef ")[0]
        assert "src2_val" not in body
        # but with All visibility the value is interface information:
        src_all = synthesize(toy_spec, "one_all").source
        body_all = src_all.split(f"def _b_{jr_index}(")[1].split("\ndef ")[0]
        assert "src2_val" in body_all

    def test_dce_can_be_disabled(self, toy_spec):
        src = synthesize(
            toy_spec, "one_min", SynthOptions(dce=False)
        ).source
        jr_index = next(
            i for i, ins in enumerate(toy_spec.instructions) if ins.name == "JR"
        )
        body = src.split(f"def _b_{jr_index}(")[1].split("\ndef ")[0]
        assert "src2_val" in body

    def test_dce_off_still_correct(self, toy_spec):
        gen = synthesize(toy_spec, "one_min", SynthOptions(dce=False))
        sim, result = run_program(gen, toyasm.SUM_LOOP)
        assert result.exit_status == toyasm.SUM_LOOP_RESULT

    def test_speculation_adds_journal_code(self, toy_spec):
        src = synthesize(toy_spec, "one_all_spec").source
        assert "__j" in src and "journal.append" in src
        src_plain = synthesize(toy_spec, "one_all").source
        assert "journal.append" not in src_plain


class TestBlockTranslation:
    def test_code_cache_reused(self, generators):
        sim = generators["block_min"].make(syscall_handler=toyasm.exit_handler())
        toyasm.load_words(sim.state, toyasm.SUM_LOOP)
        sim.run(10_000)
        # loop head translated once despite 10 iterations
        assert 0x08 in sim._cache
        assert len(sim._cache) <= 4

    def test_flush_code_cache(self, generators):
        sim = generators["block_min"].make(syscall_handler=toyasm.exit_handler())
        toyasm.load_words(sim.state, toyasm.SUM_LOOP)
        sim.run(10_000)
        sim.flush_code_cache()
        assert not sim._cache

    def test_blocks_end_at_control_transfer(self, generators):
        sim = generators["block_min"].make()
        toyasm.load_words(
            sim.state,
            [toyasm.addi(1, 0, 1), toyasm.beq(0, 0, 2), toyasm.addi(2, 0, 2)],
        )
        sim.do_block(sim.di)
        assert sim.di.count == 2  # addi + beq; the branch ends the block

    def test_register_caching_in_source(self, generators):
        sim = generators["block_min"].make()
        toyasm.load_words(
            sim.state, [toyasm.addi(1, 0, 1), toyasm.add(2, 1, 1), toyasm.beq(0, 0, 0)]
        )
        src = sim.block_source(0)
        # R[1] written by addi and read twice by add: one cached local,
        # a single flush store at block end.
        assert src.count("R[1] =") == 1
        assert "__R_R_1" in src

    def test_regcache_can_be_disabled(self, toy_spec):
        gen = synthesize(toy_spec, "block_min", SynthOptions(regcache=False))
        sim = gen.make(syscall_handler=toyasm.exit_handler())
        toyasm.load_words(sim.state, toyasm.SUM_LOOP)
        result = sim.run(10_000)
        assert result.exit_status == toyasm.SUM_LOOP_RESULT
        src = sim.block_source(0x08)
        assert "__R_R_" not in src

    def test_long_straightline_block_capped(self, generators):
        sim = generators["block_min"].make()
        toyasm.load_words(sim.state, [toyasm.addi(1, 1, 1)] * 40)
        sim.do_block(sim.di)
        assert sim.di.count == MAX_BLOCK == 32


class TestSpeculation:
    def test_rollback_restores_state(self, generators):
        gen = generators["one_all_spec"]
        sim = gen.make(syscall_handler=toyasm.exit_handler())
        toyasm.load_words(sim.state, toyasm.SUM_LOOP)
        snap = sim.state.snapshot()
        sim.run(7)
        assert sim.rollback(7) == 7
        after = sim.state.snapshot()
        assert after.rf == snap.rf
        assert after.pc == snap.pc
        assert after.sr == snap.sr

    def test_rollback_block_mode(self, generators):
        gen = generators["block_min_spec"]
        sim = gen.make(syscall_handler=toyasm.exit_handler())
        toyasm.load_words(sim.state, toyasm.SUM_LOOP)
        snap = sim.state.snapshot()
        result = sim.run(9)
        executed = result.executed
        assert sim.rollback(executed) == executed
        assert sim.state.snapshot().rf == snap.rf
        assert sim.state.pc == snap.pc

    def test_partial_rollback_then_reexecute(self, generators):
        gen = generators["one_all_spec"]
        sim = gen.make(syscall_handler=toyasm.exit_handler())
        toyasm.load_words(sim.state, toyasm.SUM_LOOP)
        sim.run(10)
        sim.rollback(4)
        result = sim.run(10_000)
        assert result.exit_status == toyasm.SUM_LOOP_RESULT

    def test_commit_bounds_journal(self, generators):
        gen = generators["one_all_spec"]
        sim = gen.make(syscall_handler=toyasm.exit_handler())
        toyasm.load_words(sim.state, toyasm.SUM_LOOP)
        sim.run(10)
        assert len(sim.state.journal) == 10
        sim.commit(6)
        assert len(sim.state.journal) == 4

    def test_rollback_without_speculation_rejected(self, generators):
        sim = generators["one_all"].make()
        with pytest.raises(SynthesisError):
            sim.rollback()

    def test_memory_write_rolls_back(self, generators):
        gen = generators["one_all_spec"]
        sim = gen.make()
        sim.state.mem.write_u64(0x200, 111)
        sim.state.rf["R"][3] = 42
        toyasm.load_words(sim.state, [toyasm.stw(3, 0, 0x200)])
        sim.do_in_one(sim.di)
        assert sim.state.mem.read_u64(0x200) == 42
        sim.rollback()
        assert sim.state.mem.read_u64(0x200) == 111


class TestStepInterface:
    def test_individual_steps_drive_one_instruction(self, generators):
        gen = generators["step_all"]
        sim = gen.make()
        toyasm.load_words(sim.state, [toyasm.addi(1, 0, 9)])
        di = sim.di
        sim.step_fetch(di)
        assert di.pc == 0 and di.instr_bits == toyasm.addi(1, 0, 9)
        sim.step_decode(di)
        sim.step_operands(di)
        sim.step_execute(di)
        assert di.dest_val == 9
        sim.step_memory(di)
        sim.step_writeback(di)
        assert sim.state.rf["R"][1] == 9
        assert sim.state.pc == 0  # pc not committed until the last step
        sim.step_exception(di)
        assert sim.state.pc == 4

    def test_timing_simulator_controls_writeback_time(self, generators):
        """Semantic detail = control: delay writeback past another read."""
        gen = generators["step_all"]
        sim = gen.make()
        toyasm.load_words(sim.state, [toyasm.addi(1, 0, 9)])
        di = sim.di
        sim.step_fetch(di)
        sim.step_decode(di)
        sim.step_operands(di)
        sim.step_execute(di)
        # The timing model can observe state *before* writeback happens.
        assert sim.state.rf["R"][1] == 0
        sim.step_writeback(di)
        assert sim.state.rf["R"][1] == 9


class TestProfileMode:
    """Host-op metering (:class:`repro.harness.hostops.HostOpMeter`)."""

    @staticmethod
    def metered_run(gen):
        sim = gen.make(syscall_handler=toyasm.exit_handler())
        toyasm.load_words(sim.state, toyasm.SUM_LOOP)
        with HostOpMeter() as meter:
            result = sim.run(10_000)
        return result, meter.ops

    def test_hostops_counted(self, generators):
        _result, ops = self.metered_run(generators["one_min"])
        assert ops > 0

    def test_all_costs_more_than_min(self, generators):
        costs = {}
        for name in ("one_min", "one_all"):
            result, ops = self.metered_run(generators[name])
            costs[name] = ops / result.executed
        assert costs["one_all"] > costs["one_min"]

    def test_profile_mode_preserves_semantics(self, generators):
        result, ops = self.metered_run(generators["step_all"])
        assert result.exit_status == toyasm.SUM_LOOP_RESULT
        assert ops > 0

"""Unit tests for the block translator's register cache and block shaping."""

import ast

import pytest

from repro.adl import load_isa
from repro.synth import SynthOptions, synthesize
from repro.synth import translator as translator_module
from repro.synth.translator import cache_registers

from tests.conftest import TOY_BUILDSETS_LIS, TOY_LIS
from tests.synth import toyasm


def parse(source):
    return ast.parse(source).body


def render(stmts):
    return "\n".join(ast.unparse(s) for s in stmts)


def rename(source):
    return cache_registers(parse(source), frozenset({"R"}))


#: toy.lis plus two instructions whose register index comes from a register
INDIRECT_LIS = """
class rindirect;
operand rindirect src1 R(ra);
operand rindirect src2 R(rb);
operand rindirect dest1 R(rc);

instruction RGET format rform : rindirect { match opcode == 0x20; }
action RGET@evaluate = %{ dest_val = R[src1_val & 31] %}

instruction RPUT format rform : rindirect { match opcode == 0x21; }
action RPUT@evaluate = %{
  R[src1_val & 31] = src2_val
  dest_val = src2_val
%}
"""


def rget(rd, ra):
    return toyasm.rform(0x20, ra, 0, rd)


def rput(ra, rb, rd):
    return toyasm.rform(0x21, ra, rb, rd)


#: R5 = 18 through registers named at run time; exits with R5
INDIRECT_PROGRAM = [
    toyasm.addi(3, 0, 1),  # 0x00: R3 = 1
    toyasm.addi(1, 0, 5),  # 0x04: R1 = 5, a dirty local
    toyasm.addi(2, 0, 9),  # 0x08: R2 = 9
    rget(4, 3),  # 0x0c: R4 = R[R3] = 5 — reads the stored local
    rput(3, 2, 6),  # 0x10: R[R3] = R2, so R1 = 9 behind the cache
    toyasm.add(5, 1, 1),  # 0x14: R5 = R1 + R1 = 18 — must reload R1
    toyasm.sys(),  # 0x18
]


class TestRegisterCache:
    @pytest.fixture(scope="class")
    def spec(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("indirect") / "toy_indirect.lis"
        with open(TOY_LIS) as base:
            path.write_text(base.read() + INDIRECT_LIS)
        return load_isa([str(path), TOY_BUILDSETS_LIS])

    def run(self, spec, options=None):
        sim = synthesize(spec, "block_min", options).make(
            syscall_handler=toyasm.exit_handler(result_reg=5)
        )
        toyasm.load_words(sim.state, INDIRECT_PROGRAM)
        return sim, sim.run(1000)

    def test_first_read_inserts_load(self):
        out, loads, writes = rename("x = R[3] + 1")
        assert render(out) == "x = __R_R_3 + 1"
        assert loads == (("R", 3),)
        assert not writes

    def test_second_read_reuses_local(self):
        out, loads, _writes = rename("x = R[3]\ny = R[3]")
        assert render(out) == "x = __R_R_3\ny = __R_R_3"
        assert loads == (("R", 3),)

    def test_write_dirties_without_store(self):
        out, loads, writes = rename("R[4] = v")
        assert render(out) == "__R_R_4 = v"
        assert loads == ()
        assert writes == {("R", 4)}

    def test_flush_emits_stores_for_dirty_only(self, toy_spec):
        sim = synthesize(toy_spec, "block_min").make()
        toyasm.load_words(sim.state, [toyasm.add(2, 1, 1), toyasm.beq(0, 0, 0)])
        source = sim.block_source(0)
        assert "R[2] = __R_R_2" in source  # written: stored at the exit
        assert "R[1] =" not in source  # only read: never stored

    def test_read_after_write_sees_new_value(self):
        out, loads, _writes = rename("R[5] = a\nz = R[5]")
        assert render(out) == "__R_R_5 = a\nz = __R_R_5"
        assert loads == ()

    def test_read_before_write_in_one_assignment_loads(self):
        out, loads, writes = rename("R[6] = R[6] + 1")
        assert render(out) == "__R_R_6 = __R_R_6 + 1"
        assert loads == (("R", 6),)
        assert writes == {("R", 6)}

    def test_if_hoists_loads_and_marks_dirty(self):
        # A conditional write may not happen, so the local must start out
        # holding the register's value on both paths.
        out, loads, writes = rename("if c:\n    R[6] = R[7] + 1")
        assert render(out) == "if c:\n    __R_R_6 = __R_R_7 + 1"
        assert set(loads) == {("R", 6), ("R", 7)}
        assert writes == {("R", 6)}

    def test_nonconstant_index_is_not_renamed(self):
        assert rename("R[2] = a\nx = R[i]") is None
        assert rename("R[j] = 5") is None

    def test_nonconstant_read_flushes_dirty(self, spec):
        sim, result = self.run(spec)
        assert result.exit_status == 18
        assert sim.state.rf["R"][4] == 5
        pieces = sim._translator._piece_cache
        assert not pieces[(0x0C, rget(4, 3))].cached
        assert pieces[(0x08, toyasm.addi(2, 0, 9))].cached
        lines = sim.block_source(0).splitlines()
        read = next(i for i, line in enumerate(lines) if "R[R[3] & 31]" in line)
        assert lines.index("    R[1] = __R_R_1") < read

    def test_nonconstant_write_invalidates(self, spec):
        sim, result = self.run(spec)
        assert not sim._translator._piece_cache[(0x10, rput(3, 2, 6))].cached
        lines = sim.block_source(0).splitlines()
        write = max(i for i, line in enumerate(lines) if "R[R[3] & 31] =" in line)
        assert lines.index("    __R_R_1 = R[1]") > write
        plain, plain_result = self.run(spec, SynthOptions(regcache=False))
        assert result.exit_status == plain_result.exit_status == 18
        assert sim.state.rf == plain.state.rf
        assert sim.state.sr == plain.state.sr

    def test_non_regfile_subscripts_untouched(self):
        out, loads, writes = rename("x = other[3]")
        assert render(out) == "x = other[3]"
        assert loads == () and not writes


class TestTranslateOnce:
    def test_each_instruction_is_translated_once(self, toy_spec, monkeypatch):
        # Self-loop unrolling repeats the loop body's three instructions
        # many times over in one unit; each distinct (addr, word) must
        # still run the per-instruction pipeline only once.
        calls = []
        forward_copies = translator_module.forward_copies

        def counting(*args):
            calls.append(args)
            return forward_copies(*args)

        monkeypatch.setattr(translator_module, "forward_copies", counting)
        sim = synthesize(toy_spec, "block_min").make(
            syscall_handler=toyasm.exit_handler()
        )
        toyasm.load_words(sim.state, toyasm.SUM_LOOP)
        result = sim.run(10_000)
        assert result.exit_status == toyasm.SUM_LOOP_RESULT
        assert sim._cache[0x08].__block_len__ == 256
        assert len(calls) == len(sim._translator._piece_cache) == 7

    def test_bounded_replay_translates_nothing(self, toy_spec, monkeypatch):
        # Windows of 5 end inside the 256-instruction self-loop unit, so
        # every window's last unit is a truncated one; replaying the same
        # windows from a snapshot must reuse them all.
        translations = []
        translate = translator_module.BlockTranslator._translate

        def counting(self, sim, start_pc, limit=None):
            translations.append((start_pc, limit))
            return translate(self, sim, start_pc, limit)

        monkeypatch.setattr(
            translator_module.BlockTranslator, "_translate", counting
        )
        sim = synthesize(toy_spec, "block_min").make(
            syscall_handler=toyasm.exit_handler()
        )
        toyasm.load_words(sim.state, toyasm.SUM_LOOP)
        snap = sim.state.snapshot()

        def windows():
            results = [sim.run(5)]
            while not results[-1].exited:
                results.append(sim.run(5))
            return [(r.executed, r.exit_status) for r in results]

        first = windows()
        assert any(limit is not None for _pc, limit in translations)
        assert sum(executed for executed, _ in first) == toyasm.SUM_LOOP_INSTRS
        translations.clear()
        sim.state.restore(snap)
        assert windows() == first
        assert translations == []


class TestBlockShaping:
    @pytest.fixture(scope="class")
    def gen(self, toy_spec):
        return synthesize(toy_spec, "block_min")

    def test_fallthrough_blocks_chain_across_straightline_code(self, gen):
        sim = gen.make()
        toyasm.load_words(
            sim.state,
            [toyasm.addi(1, 0, 1)] * 5 + [toyasm.beq(0, 0, 0)],
        )
        sim.do_block(sim.di)
        assert sim.di.count == 6  # all six in one translated block

    def test_block_reuse_across_loop_iterations(self, gen):
        sim = gen.make(syscall_handler=toyasm.exit_handler())
        toyasm.load_words(sim.state, toyasm.SUM_LOOP)
        sim.run(10_000)
        # the loop body block was translated once, then replayed
        assert len(sim._cache) <= 4

    def test_constant_folding_embeds_immediates(self, gen):
        sim = gen.make()
        toyasm.load_words(sim.state, [toyasm.addi(1, 0, 42), toyasm.beq(0, 0, 0)])
        source = sim.block_source(0)
        assert "42" in source
        assert "instr_bits" not in source  # decode fully resolved

    def test_taken_branch_target_constant(self, gen):
        sim = gen.make()
        toyasm.load_words(sim.state, [toyasm.jal(3)])
        source = sim.block_source(0)
        # JAL target = 4 + 3*4 = 16, folded to a constant next_pc; the
        # link-register write survives folding (it is architectural).
        assert "next_pc = 16" in source
        assert "lr = 4" in source
        assert "__state.sr['lr'] = lr" in source

    def test_syscall_ends_block_and_flushes_first(self, gen, toy_spec):
        sim = gen.make()
        toyasm.load_words(
            sim.state, [toyasm.addi(1, 0, 5), toyasm.sys(), toyasm.addi(2, 0, 6)]
        )
        source = sim.block_source(0)
        body = source.split("_do_syscall")[0]
        assert "R[1] = " in body  # dirty register flushed before the trap
        assert "di.count = 2" in source  # block ends at the syscall

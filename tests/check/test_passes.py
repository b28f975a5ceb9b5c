"""Every CHK code catches its defect class.

Each test takes a *clean* synthesized module, injects the one defect
the code exists to catch (by mutating the generated source), and
asserts the checker reports exactly that code.  Together with the
clean-sweep tests in test_runner.py this pins both directions: no
false negatives on seeded bugs, no false positives on real modules.
"""

import pytest

from repro.check import check_generated
from repro.check.model import ModuleModel
from repro.check.passes import check_monotonicity

from .conftest import codes_of


def replaced(generated, old, new, count=1):
    source = generated.source
    assert old in source, f"fixture drift: {old!r} not in generated source"
    return source.replace(old, new, count)


class TestEngineCHK000:
    def test_unparsable_module_is_a_finding(self, gen_one_all):
        result = check_generated(gen_one_all, "def broken(:\n")
        assert codes_of(result) == ["CHK000"]
        assert result.exit_code == 1

    def test_crashing_pass_is_a_finding_not_a_crash(self, gen_one_all, monkeypatch):
        import repro.check.runner as runner

        def boom(model):
            raise RuntimeError("pass exploded")

        monkeypatch.setattr(
            runner, "MODULE_PASSES", (boom,) + tuple(runner.MODULE_PASSES)
        )
        result = check_generated(gen_one_all)
        assert "CHK000" in codes_of(result)
        assert any("pass exploded" in d.message for d in result.diagnostics)


class TestVisibilityContract:
    def test_chk001_hidden_store_into_record(self, gen_one_all_spec):
        source = replaced(
            gen_one_all_spec,
            "di.next_pc = next_pc",
            "di.next_pc = next_pc\n    di.sneaky = next_pc",
        )
        result = check_generated(gen_one_all_spec, source)
        assert codes_of(result) == ["CHK001"]

    def test_chk001_hidden_field_as_record_slot(self, gen_one_min):
        # give the Min record a slot for a field Min hides
        source = replaced(
            gen_one_min, "'fault'", "'fault', 'effective_addr'"
        )
        result = check_generated(gen_one_min, source)
        assert "CHK001" in codes_of(result)

    def test_chk002_visible_field_never_stored(self, gen_one_all):
        source = replaced(gen_one_all, "    di.dest_val = dest_val\n", "\n")
        result = check_generated(gen_one_all, source)
        assert codes_of(result) == ["CHK002"]

    def test_chk002_visible_field_without_slot(self, gen_one_all):
        source = replaced(gen_one_all, "'dest_val', ", "")
        result = check_generated(gen_one_all, source)
        assert "CHK002" in codes_of(result)

    def test_chk003_double_store(self, gen_one_all):
        source = replaced(
            gen_one_all,
            "di.dest_val = dest_val",
            "di.dest_val = dest_val\n    di.dest_val = dest_val",
        )
        result = check_generated(gen_one_all, source)
        assert codes_of(result) == ["CHK003"]

    def test_chk003_entry_and_body_both_store(self, gen_one_all):
        # the entry already stores pc; a body storing it again is a
        # second store on the same interface call
        source = replaced(
            gen_one_all,
            "di.next_pc = next_pc",
            "di.next_pc = next_pc\n    di.pc = pc",
        )
        result = check_generated(gen_one_all, source)
        assert "CHK003" in codes_of(result)


class TestDCESoundness:
    def test_chk010_memory_write_eliminated(self, gen_one_all):
        source = replaced(
            gen_one_all, "    __mem.write(effective_addr, 8, src2_val)\n", "\n"
        )
        result = check_generated(gen_one_all, source)
        assert codes_of(result) == ["CHK010"]

    def test_chk010_regfile_store_eliminated(self, gen_one_min):
        source = replaced(gen_one_min, "    R[dest1_id] = dest_val\n", "\n")
        result = check_generated(gen_one_min, source)
        assert "CHK010" in codes_of(result)

    def test_chk010_pc_commit_eliminated(self, gen_one_all):
        source = replaced(gen_one_all, "    __state.pc = next_pc\n", "\n")
        result = check_generated(gen_one_all, source)
        assert codes_of(result) == ["CHK010"]

    def test_chk011_dead_hidden_computation_survives(self, gen_one_min):
        source = replaced(
            gen_one_min,
            "__state.pc = next_pc",
            "effective_addr = 12345\n    __state.pc = next_pc",
        )
        result = check_generated(gen_one_min, source)
        assert codes_of(result) == ["CHK011"]
        assert result.exit_code == 0  # warning severity: wasteful, not wrong

    def test_chk011_fires_when_dce_is_disabled(self, toy_spec):
        """The ablation knob proves the check measures DCE effectiveness."""
        from repro.synth import SynthOptions, synthesize

        generated = synthesize(toy_spec, "one_min", SynthOptions(dce=False))
        result = check_generated(generated)
        assert "CHK011" in codes_of(result)


class TestSpeculationCoverage:
    def test_chk020_memory_write_without_undo_entry(self, gen_one_all_spec):
        source = replaced(
            gen_one_all_spec,
            "    __j.append(('m', effective_addr, 8, "
            "__mem.read(effective_addr, 8)))\n",
            "\n",
        )
        result = check_generated(gen_one_all_spec, source)
        assert codes_of(result) == ["CHK020"]

    def test_chk020_regfile_store_without_undo_entry(self, gen_one_all_spec):
        source = replaced(
            gen_one_all_spec,
            "    __j.append(('r', 'R', dest1_id, R[dest1_id]))\n",
            "\n",
        )
        result = check_generated(gen_one_all_spec, source)
        assert codes_of(result) == ["CHK020"]

    def test_chk021_publication_eliminated(self, gen_one_all_spec):
        source = replaced(
            gen_one_all_spec, "    __state.journal.append(__j)\n", "\n"
        )
        result = check_generated(gen_one_all_spec, source)
        assert codes_of(result) == ["CHK021"]

    def test_chk021_journal_machinery_in_nonspec_module(
        self, gen_one_all, gen_one_all_spec
    ):
        # a non-speculative module containing the speculative sibling's
        # journal plumbing is residue
        result = check_generated(gen_one_all, gen_one_all_spec.source)
        assert "CHK021" in codes_of(result)


class TestMonotonicity:
    def test_chk030_extra_store_in_lower_detail_module(
        self, gen_one_min, gen_one_all
    ):
        # make Min store a field All does not store for that instruction
        source = replaced(
            gen_one_min,
            "__state.pc = next_pc",
            "di.branch_taken = 0\n    __state.pc = next_pc",
        )
        mutated = ModuleModel.build(gen_one_min, source)
        clean = ModuleModel.build(gen_one_all)
        diags = check_monotonicity([mutated, clean])
        assert {d.code for d in diags} == {"CHK030"}

    def test_chk030_slot_missing_from_higher_detail_module(
        self, gen_one_min, gen_one_all
    ):
        # the higher-detail sibling losing a slot the Min module has
        # breaks the Min ⊆ All nesting of record layouts
        source = replaced(gen_one_all, "'fault', ", "")
        clean = ModuleModel.build(gen_one_min)
        mutated = ModuleModel.build(gen_one_all, source)
        diags = check_monotonicity([clean, mutated])
        assert any(
            d.code == "CHK030" and "slot" in d.message for d in diags
        )

    def test_clean_siblings_are_monotonic(
        self, gen_one_min, gen_one_all, gen_step_all
    ):
        models = [
            ModuleModel.build(g)
            for g in (gen_one_min, gen_one_all, gen_step_all)
        ]
        assert check_monotonicity(models) == []


class TestZeroOverheadResidue:
    def test_chk040_probe_residue_in_observe_off_module(
        self, gen_one_all, gen_observe
    ):
        # the observe-on sibling's source claimed by an observe-off
        # module is exactly the residue the promise forbids
        result = check_generated(gen_one_all, gen_observe.source)
        assert "CHK040" in codes_of(result)

    def test_chk040_trace_probe_residue_in_trace_off_module(self, gen_one_all):
        # a guest-PC trace probe alone, without the _obs_ep counter, is
        # still residue in an observe-off module
        source = replaced(
            gen_one_all,
            "__state.pc = next_pc",
            "__state.pc = next_pc\n    self._prof_hits[0] = 1",
        )
        result = check_generated(gen_one_all, source)
        assert codes_of(result) == ["CHK040"]

    def test_chk040_accepts_probes_in_trace_on_module(self, gen_observe):
        # observe=True emits the guest-PC trace probes too
        assert "_prof_hits" in gen_observe.source
        assert "CHK040" not in codes_of(check_generated(gen_observe))


class TestAttribution:
    """Findings point at both the generated line and the .lis construct."""

    def test_diagnostics_carry_generated_location(self, gen_one_all):
        source = replaced(gen_one_all, "    di.dest_val = dest_val\n", "\n")
        result = check_generated(gen_one_all, source)
        (diag,) = [d for d in result.diagnostics if d.code == "CHK002"]
        assert diag.gen_loc is not None
        assert diag.gen_loc.filename == "<synth toy/one_all>"
        assert diag.gen_loc.line > 0

    def test_diagnostics_carry_spec_location(self, gen_one_all):
        source = replaced(gen_one_all, "    di.dest_val = dest_val\n", "\n")
        result = check_generated(gen_one_all, source)
        (diag,) = [d for d in result.diagnostics if d.code == "CHK002"]
        assert diag.loc is not None
        assert diag.loc.filename.endswith("toy.lis")

    def test_rendered_text_shows_both_locations(self, gen_one_all):
        from repro.check import render_text

        source = replaced(gen_one_all, "    di.dest_val = dest_val\n", "\n")
        text = render_text(check_generated(gen_one_all, source))
        assert "toy.lis" in text
        assert "[generated: <synth toy/one_all>:" in text


@pytest.mark.parametrize(
    "code",
    [
        "CHK000", "CHK001", "CHK002", "CHK003", "CHK010", "CHK011",
        "CHK020", "CHK021", "CHK030", "CHK040",
    ],
)
def test_code_is_registered(code):
    from repro.check import CODES
    from repro.diag import REGISTRY

    assert code in CODES
    assert REGISTRY[code] is CODES[code]

"""Static walk of runtime-translated units (CHK050-CHK052, CHK040).

Both directions, mirroring ``tests/check/test_passes.py``: the shipping
translator's units walk clean, and each code catches its defect class —
injected either by mutating a genuinely translated unit or via a
hand-built :class:`UnitInfo`.
"""

import pytest

from repro.check.blockwalk import (
    UnitInfo,
    check_translated_units,
    check_unit,
    walk_units,
)
from repro.isa.base import get_bundle
from repro.synth import SynthOptions, synthesize
from repro.workloads import SUITE, assemble_kernel


@pytest.fixture(scope="module")
def alpha_walk():
    """Translated units of alpha/block_min over the checksum kernel."""
    bundle = get_bundle("alpha")
    spec = bundle.load_spec()
    generated = synthesize(spec, "block_min")
    image = assemble_kernel("alpha", SUITE["checksum"], 4)
    return walk_units(generated, image, bundle.abi)


def codes_of(diags):
    return sorted({d.code for d in diags})


class TestWalk:
    def test_walk_reaches_multiple_units(self, alpha_walk):
        assert len(alpha_walk) > 3
        assert all(unit.length >= 1 for unit in alpha_walk)
        assert all(
            isinstance(t, int) for unit in alpha_walk for t in unit.exit_targets
        )

    def test_superblocks_actually_form(self, alpha_walk):
        # the walk must exercise the interesting shapes, or the checks
        # below prove nothing
        assert any(unit.length > 8 for unit in alpha_walk)
        assert any(unit.cells > 0 for unit in alpha_walk)

    def test_shipping_units_check_clean(self, alpha_walk):
        diags = [
            d
            for unit in alpha_walk
            for d in check_unit(unit, "alpha", chain=True, observe=False)
        ]
        assert not diags, [d.message for d in diags]

    def test_full_isa_sweep_is_clean(self):
        spec = get_bundle("alpha").load_spec()
        diags = check_translated_units("alpha", spec)
        assert not diags, [d.message for d in diags]

    def test_chain_off_units_check_clean_as_chain_off(self):
        bundle = get_bundle("alpha")
        spec = bundle.load_spec()
        generated = synthesize(spec, "block_min", SynthOptions(chain=False))
        image = assemble_kernel("alpha", SUITE["checksum"], 4)
        for unit in walk_units(generated, image, bundle.abi):
            assert not check_unit(unit, "alpha", chain=False, observe=False)


class TestDefectInjection:
    """Each code fires on exactly the defect it exists to catch."""

    def mutate(self, unit, **changes):
        import dataclasses

        return dataclasses.replace(unit, **changes)

    def pick_superblock(self, walk):
        return next(u for u in walk if u.length > 2 and u.cells > 0)

    def test_dropped_trace_record_is_chk051(self, alpha_walk):
        unit = self.pick_superblock(alpha_walk)
        source = unit.source.replace("__trace.append", "__notrace.append", 1)
        bad = self.mutate(unit, source=source)
        assert "CHK051" in codes_of(check_unit(bad, "t", chain=True, observe=False))

    def test_wrong_length_is_chk051(self, alpha_walk):
        unit = self.pick_superblock(alpha_walk)
        bad = self.mutate(unit, length=unit.length + 1)
        codes = codes_of(check_unit(bad, "t", chain=True, observe=False))
        assert "CHK051" in codes

    def test_unparseable_unit_is_chk050(self, alpha_walk):
        bad = self.mutate(alpha_walk[0], source="def f(:")
        assert codes_of(check_unit(bad, "t", chain=True, observe=False)) == ["CHK050"]

    def test_count_above_length_is_chk050(self, alpha_walk):
        unit = self.pick_superblock(alpha_walk)
        source = unit.source.replace(
            f"di.count = {unit.length}", f"di.count = {unit.length + 7}"
        )
        if source == unit.source:
            pytest.skip("unit's epilogue does not store its full count")
        bad = self.mutate(unit, source=source)
        assert "CHK050" in codes_of(check_unit(bad, "t", chain=True, observe=False))

    def test_missing_count_store_is_chk050(self):
        bad = UnitInfo(
            pc=0,
            source="def _blk_0(self, di):\n    pass",
            length=0,
            cells=0,
            exit_targets=(),
        )
        assert "CHK050" in codes_of(check_unit(bad, "t", chain=True, observe=False))

    def test_budget_overdebit_is_chk050(self, alpha_walk):
        unit = self.pick_superblock(alpha_walk)
        source = unit.source.replace(
            f"di.budget - {unit.length}", f"di.budget - {unit.length + 9}"
        )
        if source == unit.source:
            pytest.skip("unit's epilogue does not debit its full length")
        bad = self.mutate(unit, source=source)
        assert "CHK050" in codes_of(check_unit(bad, "t", chain=True, observe=False))

    def test_chain_slot_mismatch_is_chk052(self, alpha_walk):
        unit = self.pick_superblock(alpha_walk)
        bad = self.mutate(unit, cells=unit.cells + 1)
        assert "CHK052" in codes_of(check_unit(bad, "t", chain=True, observe=False))

    def test_chain_residue_when_off_is_chk052(self, alpha_walk):
        unit = self.pick_superblock(alpha_walk)
        assert "CHK052" in codes_of(check_unit(unit, "t", chain=False, observe=False))

    def test_obs_residue_when_off_is_chk040(self, alpha_walk):
        unit = alpha_walk[0]
        bad = self.mutate(unit, source=unit.source + "\n    __o = self.obs")
        codes = codes_of(check_unit(bad, "t", chain=True, observe=False))
        assert "CHK040" in codes

    def test_prof_residue_when_trace_off_is_chk040(self, alpha_walk):
        unit = alpha_walk[0]
        bad = self.mutate(
            unit, source=unit.source + "\n    self._prof_hits[0] = 1"
        )
        codes = codes_of(check_unit(bad, "t", chain=True, observe=False))
        assert "CHK040" in codes

    def test_prof_reference_is_allowed_when_trace_on(self, alpha_walk):
        unit = alpha_walk[0]
        probed = self.mutate(
            unit, source=unit.source + "\n    self._prof_hits[0] = 1"
        )
        codes = codes_of(check_unit(probed, "t", chain=True, observe=True))
        assert "CHK040" not in codes

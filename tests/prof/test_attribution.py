"""End-to-end attribution: a profiled Block run names its hot loop.

The acceptance criterion for the profiling layer is behavioural, not
structural: on a kernel dominated by one self-loop, the hot-block
table's top entry must be that loop's guest PC range — with the chain
slow path's nested translation time *deducted*, so the entry block
(which merely chains into everything else) does not masquerade as hot.
"""

import pytest

from repro.isa.base import get_bundle
from repro.obs import make_observability
from repro.prof.spans import CHAIN_PATCH, EXECUTE, TRANSLATE
from repro.synth import SynthOptions, synthesize
from repro.workloads.suite import run_kernel


def _profiled(kernel):
    """One profiled run on alpha/block_min (superblocks + chaining on)."""
    generated = synthesize(
        get_bundle("alpha").load_spec(),
        "block_min",
        SynthOptions(observe=True),
    )
    obs = make_observability()
    run = run_kernel(generated, "alpha", kernel, obs=obs)
    assert run.correct
    return obs, run


@pytest.fixture(scope="module")
def profiled_fib():
    return _profiled("fib")


@pytest.fixture(scope="module")
def profiled_sieve():
    return _profiled("sieve")


class TestHotBlockAttribution:
    def test_top_entry_is_the_loop(self, profiled_fib):
        obs, run = profiled_fib
        hot = obs.prof.guest.hot_blocks(ilen=4)
        assert hot, "profiled run recorded no units"
        top = hot[0]
        # The hottest unit by host time is the unit that executed the
        # most guest instructions — the fib loop, not the entry block.
        by_instructions = max(hot, key=lambda row: row["instructions"])
        assert top["pc"] == by_instructions["pc"]
        assert top["instructions"] > run.executed / 2
        assert top["share"] > 0.5
        # Superblock provenance rode along: the self-loop was unrolled
        # into a multi-part unit (PR 4's side tables).
        assert top["parts"] > 1
        assert top["end"] == top["pc"] + top["length"] * 4

    def test_entry_block_is_not_billed_for_downstream_translation(
        self, profiled_fib
    ):
        # Without the foreign-time deduction the entry unit at the image
        # origin absorbs the whole chain slow path (translating its
        # successors) and shows up with a majority share.
        obs, _ = profiled_fib
        rows = {row["pc"]: row for row in obs.prof.guest.hot_blocks(ilen=4)}
        entry = rows.get(0x1000)
        if entry is None:
            pytest.skip("entry PC not a unit head under this layout")
        assert entry["share"] < 0.3

    def test_executions_are_charged_per_chained_hop(
        self, profiled_fib, profiled_sieve
    ):
        # A chained hop exits without setting ``di.count``; on sieve,
        # charging it that stale count credited units with more
        # instructions than the run executed.
        for obs, run in (profiled_fib, profiled_sieve):
            stats = obs.prof.guest.units.values()
            # The unit that raises ExitProgram aborts mid-execution, so
            # its partial count is never charged; everything else must be.
            attributed = sum(s.instructions for s in stats)
            assert run.executed * 0.95 < attributed <= run.executed
            assert any(s.chained_calls > 0 for s in stats)

    def test_span_tree_nests_translate_under_execute(self, profiled_fib):
        obs, _ = profiled_fib
        tree = obs.prof.spans.tree()
        execute = tree[EXECUTE]
        assert execute["count"] == 1
        children = execute.get("children", {})
        # translation happens inside the run: directly on a cache miss,
        # or nested under a chain-patch slow path.
        nested = set(children)
        if CHAIN_PATCH in children:
            nested |= set(children[CHAIN_PATCH].get("children", {}))
        assert TRANSLATE in nested
        assert obs.prof.spans.events  # raw events feed the Chrome trace
        assert obs.prof.spans.events_dropped == 0


class TestOneSwitch:
    def test_plain_observability_always_profiles(self):
        """A plain ``make_observability()`` handle profiles: Block runs
        record spans and per-unit guest time, and an observe-on One
        module fills the per-PC hit counters."""
        spec = get_bundle("alpha").load_spec()
        obs = make_observability()
        block = synthesize(spec, "block_min")
        assert run_kernel(block, "alpha", "fib", obs=obs).correct
        spans = {path[-1] for path, _node in obs.prof.spans.paths()}
        assert {TRANSLATE, EXECUTE} <= spans
        units = obs.prof.guest.units.values()
        assert sum(stat.instructions for stat in units) > 0
        assert sum(stat.ns for stat in units) > 0

        one = synthesize(spec, "one_min", SynthOptions(observe=True))
        assert run_kernel(one, "alpha", "fib", obs=obs).correct
        assert obs.prof.guest.pc_hits

"""Unit tests for guest attribution: unit timing and probe hits."""

from repro.prof.guest import NULL_GUEST, GuestProfiler, NullGuestProfiler


class TestGuestProfiler:
    def test_register_then_charge(self):
        g = GuestProfiler()
        g.register_unit(0x1000, length=8, parts=2)
        g.add_unit_time(0x1000, 500, executed=8)
        g.add_unit_time(0x1000, 300, executed=8, chained=True)
        stat = g.units[0x1000]
        assert stat.ns == 800
        assert stat.calls == 2
        assert stat.instructions == 16
        assert stat.chained_calls == 1
        assert stat.length == 8 and stat.parts == 2

    def test_charge_before_register_creates_the_unit(self):
        # A unit can execute (via a chained transfer) before install-time
        # registration catches up; re-registration then fills the shape.
        g = GuestProfiler()
        g.add_unit_time(0x2000, 100, executed=4)
        assert g.units[0x2000].length == 0
        g.register_unit(0x2000, length=4, parts=1)
        assert g.units[0x2000].length == 4
        assert g.units[0x2000].ns == 100  # accumulated time survives

    def test_hot_blocks_ordering_share_and_limit(self):
        g = GuestProfiler()
        g.register_unit(0x1000, 4)
        g.register_unit(0x2000, 4)
        g.register_unit(0x3000, 4)
        g.add_unit_time(0x1000, 100, 4)
        g.add_unit_time(0x2000, 700, 4)
        g.add_unit_time(0x3000, 200, 4)
        hot = g.hot_blocks()
        assert [row["pc"] for row in hot] == [0x2000, 0x3000, 0x1000]
        assert hot[0]["share"] == 0.7
        assert abs(sum(row["share"] for row in hot) - 1.0) < 1e-9
        assert [row["pc"] for row in g.hot_blocks(limit=1)] == [0x2000]

    def test_hot_blocks_pc_range_uses_ilen(self):
        g = GuestProfiler()
        g.register_unit(0x1000, length=3)
        g.add_unit_time(0x1000, 10, 3)
        assert g.hot_blocks(ilen=4)[0]["end"] == 0x100C
        assert g.hot_blocks(ilen=2)[0]["end"] == 0x1006

    def test_hot_pcs_merges_hit_counts(self):
        g = GuestProfiler()
        g.add_pc_hits({0x10: 5, 0x20: 1, 0x30: 3})
        g.add_pc_hits({0x10: 2, 0x20: 2})
        rows = g.hot_pcs()
        assert rows[0] == {"pc": 0x10, "hits": 7}
        assert rows[1] == {"pc": 0x20, "hits": 3}  # ties break by pc
        assert rows[2] == {"pc": 0x30, "hits": 3}
        assert len(g.hot_pcs(limit=2)) == 2

    def test_clear_resets_foreign_time_too(self):
        g = GuestProfiler()
        g.add_unit_time(0x1000, 10, 1)
        g.add_pc_hits({1: 1})
        g.foreign_ns = 123
        g.clear()
        assert not g.units and not g.pc_hits
        assert g.foreign_ns == 0


class TestNullGuestProfiler:
    def test_inert(self):
        n = NullGuestProfiler()
        n.register_unit(1, 2)
        n.add_unit_time(1, 10, 1)
        n.add_pc_hits({1: 1})
        n.clear()
        assert n.units == {}
        assert n.hot_blocks() == []
        assert n.hot_pcs() == []
        assert n.foreign_ns == 0
        assert not n.enabled
        assert not NULL_GUEST.enabled

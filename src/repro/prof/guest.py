"""Guest attribution: which guest code costs host time.

Two complementary sources feed one :class:`GuestProfiler`:

* **unit timing** (Block interfaces) — the instrumented dispatch loop
  times each translated unit's execution and charges it to the unit's
  guest PC, together with the unit's superblock/chain provenance
  (``__block_len__``/``__block_parts__`` attached by the translator);
* **probe hits** (One/Step interfaces) — modules synthesized with
  ``SynthOptions(observe=True)`` count executions per guest PC in
  ``sim._prof_hits``; :func:`record_sim_profile` folds them in.
"""

from __future__ import annotations


class UnitStat:
    """Accumulated cost of one translated unit (or one guest PC)."""

    __slots__ = ("pc", "length", "parts", "ns", "calls", "instructions",
                 "chained_calls")

    def __init__(self, pc: int, length: int = 0, parts: int = 1) -> None:
        self.pc = pc
        self.length = length
        self.parts = parts
        self.ns = 0
        self.calls = 0
        self.instructions = 0
        self.chained_calls = 0

    def as_dict(self, ilen: int = 4) -> dict:
        return {
            "pc": self.pc,
            "end": self.pc + self.length * ilen,
            "length": self.length,
            "parts": self.parts,
            "ns": self.ns,
            "calls": self.calls,
            "instructions": self.instructions,
            "chained_calls": self.chained_calls,
        }


class GuestProfiler:
    """Per-unit and per-PC host-time attribution for one run."""

    __slots__ = ("units", "pc_hits", "foreign_ns")

    enabled = True

    def __init__(self) -> None:
        #: translated-unit stats keyed by the unit's entry PC
        self.units: dict[int, UnitStat] = {}
        #: per-guest-PC execution counts from synthesized probes
        self.pc_hits: dict[int, int] = {}
        #: time spent in host-side work (chain patching, successor
        #: translation, syscalls) nested *inside* a unit's timed window;
        #: the instrumented dispatch loop subtracts the delta so a cold
        #: unit is not billed for translating everything downstream of it
        self.foreign_ns = 0

    # -- recording ---------------------------------------------------------

    def register_unit(self, pc: int, length: int, parts: int = 1) -> None:
        """Declare a translated unit's shape (called at install time)."""
        stat = self.units.get(pc)
        if stat is None:
            self.units[pc] = UnitStat(pc, length, parts)
        else:
            stat.length = length
            stat.parts = parts

    def add_unit_time(
        self, pc: int, ns: int, executed: int, chained: bool = False
    ) -> None:
        """Charge one execution of the unit at ``pc``."""
        stat = self.units.get(pc)
        if stat is None:
            stat = self.units[pc] = UnitStat(pc)
        stat.ns += ns
        stat.calls += 1
        stat.instructions += executed
        if chained:
            stat.chained_calls += 1

    def add_pc_hits(self, hits: dict) -> None:
        """Fold per-PC execution counts (synthesized probes) in."""
        mine = self.pc_hits
        for pc, count in hits.items():
            mine[pc] = mine.get(pc, 0) + count

    # -- reading -----------------------------------------------------------

    def hot_blocks(self, limit: int | None = None, ilen: int = 4) -> list[dict]:
        """Translated units by descending host time, with share of total."""
        total = sum(stat.ns for stat in self.units.values()) or 1
        rows = sorted(self.units.values(), key=lambda s: (-s.ns, s.pc))
        if limit is not None:
            rows = rows[:limit]
        out = []
        for stat in rows:
            row = stat.as_dict(ilen)
            row["share"] = stat.ns / total
            out.append(row)
        return out

    def hot_pcs(self, limit: int | None = None) -> list[dict]:
        """Guest PCs by descending probe hit count."""
        rows = [
            {"pc": pc, "hits": count}
            for pc, count in sorted(
                self.pc_hits.items(), key=lambda item: (-item[1], item[0])
            )
        ]
        return rows if limit is None else rows[:limit]

    def clear(self) -> None:
        self.units.clear()
        self.pc_hits.clear()
        self.foreign_ns = 0


class NullGuestProfiler:
    """Disabled twin: accepts every call, records nothing."""

    __slots__ = ()

    enabled = False
    units: dict = {}
    pc_hits: dict = {}
    foreign_ns = 0

    def register_unit(self, pc, length, parts=1) -> None:
        pass

    def add_unit_time(self, pc, ns, executed, chained=False) -> None:
        pass

    def add_pc_hits(self, hits) -> None:
        pass

    def hot_blocks(self, limit=None, ilen=4) -> list:
        return []

    def hot_pcs(self, limit=None) -> list:
        return []

    def clear(self) -> None:
        pass


#: shared no-op instance
NULL_GUEST = NullGuestProfiler()

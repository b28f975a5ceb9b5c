"""Structured event tracing into a fixed-capacity ring buffer.

Events capture the *mechanisms* behind the paper's numbers — block
translations, code-cache flushes, speculation rollbacks,
syscall traps, timing-first checker mismatches — without unbounded
memory growth: the ring holds the most recent ``capacity`` events and
counts what it overwrote.
"""

from __future__ import annotations

from dataclasses import dataclass

# Canonical event kinds emitted by the instrumented layers.
BLOCK_TRANSLATE = "block_translate"
CACHE_FLUSH = "cache_flush"
ROLLBACK = "rollback"
SYSCALL = "syscall"
TIMING_MISMATCH = "timing_mismatch"


@dataclass(frozen=True)
class Event:
    """One trace event: a kind plus free-form integer/str fields."""

    seq: int
    kind: str
    fields: tuple[tuple[str, object], ...]

    def as_dict(self) -> dict:
        out: dict = {"seq": self.seq, "kind": self.kind}
        out.update(self.fields)
        return out


class EventRing:
    """Overwriting ring buffer of :class:`Event` records.

    Wrapping is not silent: every overwritten event increments
    :attr:`dropped`, which :func:`repro.obs.report.collect` surfaces as
    the ``events.dropped`` counter so a truncated trace is visible in
    both the text and JSON stats renderings.
    """

    __slots__ = ("capacity", "_buf", "_next", "emitted", "dropped")

    enabled = True

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._buf: list[Event | None] = [None] * capacity
        self._next = 0
        self.emitted = 0
        #: events overwritten because the ring was full
        self.dropped = 0

    def emit(self, kind: str, **fields) -> None:
        event = Event(self.emitted, kind, tuple(sorted(fields.items())))
        slot = self._next
        if self._buf[slot] is not None:
            self.dropped += 1
        self._buf[slot] = event
        self._next = (slot + 1) % self.capacity
        self.emitted += 1

    def snapshot(self) -> list[Event]:
        """Retained events, oldest first."""
        ordered = self._buf[self._next :] + self._buf[: self._next]
        return [e for e in ordered if e is not None]

    def clear(self) -> None:
        self._buf = [None] * self.capacity
        self._next = 0
        self.emitted = 0
        self.dropped = 0

    def __len__(self) -> int:
        return min(self.emitted, self.capacity)


class NullEventRing:
    """Disabled ring: accepts every emit, retains nothing."""

    __slots__ = ()

    enabled = False
    capacity = 0
    emitted = 0
    dropped = 0

    def emit(self, kind: str, **fields) -> None:
        pass

    def snapshot(self) -> list[Event]:
        return []

    def clear(self) -> None:
        pass

    def __len__(self) -> int:
        return 0


#: shared no-op instance
NULL_EVENTS = NullEventRing()

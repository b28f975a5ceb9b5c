"""The instrumentation facade threaded through every layer.

One :class:`Observability` instance is shared by a simulator, its OS
emulator and any timing organization wrapped around it, so a whole run
aggregates into one counter set, one event ring and one profiler.
``obs.enabled`` is the only runtime instrumentation switch: an enabled
handle always carries a live :class:`repro.prof.Profiler`.  ``NULL_OBS``
is the single shared disabled instance; layers accept ``obs=None`` and
substitute it, then branch **once** (at construction or synthesis time)
on ``obs.enabled`` to select their uninstrumented fast paths.

Probe points in the stack (see docs/observability.md for the catalog):

===========================  ==================================================
layer                        probes
===========================  ==================================================
synth/codegen (generated)    per-entrypoint invocation counts (``_obs_ep``),
                             per-guest-PC hit counts (``_prof_hits``),
                             DCE-eliminated statement counts (static metadata)
synth/translator             block translation time/length, per-block DCE,
                             translate spans
synth/runtime                instrumented ``do_block`` loop (code-cache
                             hit/miss, per-unit guest time), execute /
                             chain_patch / syscall / rollback spans,
                             cache-flush events
sysemu/syscalls              per-syscall counters + trap events
timing/*                     cache and predictor stats, mismatch events,
                             rollback depth histogram
===========================  ==================================================
"""

from __future__ import annotations

from repro.obs.counters import NULL_COUNTERS, Counters
from repro.obs.events import NULL_EVENTS, EventRing
from repro.prof.profiler import NULL_PROF, Profiler


class Observability:
    """Live counters, event ring and profiler shared across one run."""

    __slots__ = ("counters", "events", "prof")

    enabled = True

    def __init__(self, ring_capacity: int = 4096) -> None:
        self.counters = Counters()
        self.events = EventRing(ring_capacity)
        self.prof = Profiler()

    def clear(self) -> None:
        self.counters.clear()
        self.events.clear()
        self.prof.clear()


class _NullObservability:
    """Disabled facade: null counters, events and profiler."""

    __slots__ = ("counters", "events", "prof")

    enabled = False

    def __init__(self) -> None:
        self.counters = NULL_COUNTERS
        self.events = NULL_EVENTS
        self.prof = NULL_PROF

    def clear(self) -> None:
        pass


#: the shared disabled instance every layer defaults to
NULL_OBS = _NullObservability()


def make_observability(enabled: bool = True, ring_capacity: int = 4096):
    """An :class:`Observability` when enabled, else the shared null."""
    return Observability(ring_capacity) if enabled else NULL_OBS

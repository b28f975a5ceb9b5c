"""Observability: counters, event tracing and reporting for the stack.

The subsystem follows the same principle as the simulators it watches:
the *enabled* and *disabled* variants are selected up front (at
synthesis or construction time), not tested per event.  A simulator
built without observability contains no probe bytecode at all, and the
runtime binds its unobserved fast paths — being off costs nothing.

Layers:

* :mod:`repro.obs.counters` — hierarchical named counters;
* :mod:`repro.obs.events` — fixed-capacity ring buffer of structured
  trace events (block translations, cache flushes, rollbacks, syscalls,
  timing mismatches);
* :mod:`repro.obs.probe` — the :class:`Observability` facade handed to
  every layer, plus the shared null instance;
* :mod:`repro.obs.report` — aggregation into one stats tree and its
  text/JSON renderings.
"""

from repro.obs.counters import NULL_COUNTERS, Counters, NullCounters
from repro.obs.events import NULL_EVENTS, Event, EventRing, NullEventRing
from repro.obs.probe import NULL_OBS, Observability, make_observability
from repro.obs.report import (
    collect,
    record_generated_stats,
    record_sim_stats,
    record_timing_stats,
    render_json,
    render_text,
)

__all__ = [
    "Counters",
    "Event",
    "EventRing",
    "NULL_COUNTERS",
    "NULL_EVENTS",
    "NULL_OBS",
    "NullCounters",
    "NullEventRing",
    "Observability",
    "collect",
    "make_observability",
    "record_generated_stats",
    "record_sim_stats",
    "record_timing_stats",
    "render_json",
    "render_text",
]

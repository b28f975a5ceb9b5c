"""Profiling and tracing: where the host's time goes, per guest cause.

The observability subsystem (:mod:`repro.obs`) counts *how often*
mechanisms fire; this sibling answers *how long they take* and *which
guest code is hot* — the attribution the paper's Tables II/III argue
from.  It rides on the same switch: an enabled ``obs`` always carries a
live :class:`Profiler` as ``obs.prof`` and the disabled ``NULL_OBS``
carries the shared :data:`NULL_PROF`.  The instrumented variants are
selected at synthesis/construction time, never tested per event, and
``repro check``'s residue pass proves the off state leaves no bytecode
behind.

Layers:

* :mod:`repro.prof.spans` — nested wall-clock span tracing
  (translate / execute / chain_patch / syscall / rollback /
  timing_model) aggregated into a self/total span tree;
* :mod:`repro.prof.guest` — guest attribution: per-translated-unit
  timing and synthesized per-PC probes;
* :mod:`repro.prof.export` — Chrome Trace Event JSON, folded stacks
  for ``flamegraph.pl``, report documents and text rendering.
"""

from repro.prof.export import (
    chrome_trace,
    folded_stacks,
    profile_document,
    render_profile_text,
    write_chrome_trace,
)
from repro.prof.guest import (
    NULL_GUEST,
    GuestProfiler,
    NullGuestProfiler,
)
from repro.prof.profiler import NULL_PROF, NullProfiler, Profiler, record_sim_profile
from repro.prof.spans import (
    CHAIN_PATCH,
    EXECUTE,
    NULL_SPANS,
    ROLLBACK,
    SYSCALL,
    TIMING,
    TRANSLATE,
    NullSpanTracer,
    SpanNode,
    SpanTracer,
)

__all__ = [
    "CHAIN_PATCH",
    "EXECUTE",
    "GuestProfiler",
    "NULL_GUEST",
    "NULL_PROF",
    "NULL_SPANS",
    "NullGuestProfiler",
    "NullProfiler",
    "NullSpanTracer",
    "Profiler",
    "ROLLBACK",
    "SYSCALL",
    "SpanNode",
    "SpanTracer",
    "TIMING",
    "TRANSLATE",
    "chrome_trace",
    "folded_stacks",
    "profile_document",
    "record_sim_profile",
    "render_profile_text",
    "write_chrome_trace",
]

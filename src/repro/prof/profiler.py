"""The profiling facade: spans + guest attribution behind one handle.

One :class:`Profiler` is shared by a run's components, exactly like the
:class:`~repro.obs.probe.Observability` facade it rides on: every
enabled ``obs`` carries one as ``obs.prof``.  Layers branch **once** —
at synthesis or construction time — on ``obs.enabled`` to select their
instrumented variants; the shared :data:`NULL_PROF` twin makes the
disabled path free.
"""

from __future__ import annotations

from repro.prof.guest import NULL_GUEST, GuestProfiler
from repro.prof.spans import NULL_SPANS, SpanTracer


class Profiler:
    """Live span tracer + guest profiler for one run."""

    __slots__ = ("spans", "guest", "meta")

    enabled = True

    def __init__(self, max_events: int | None = None) -> None:
        self.spans = (
            SpanTracer() if max_events is None else SpanTracer(max_events=max_events)
        )
        self.guest = GuestProfiler()
        #: free-form run metadata stamped into exports (isa, buildset, ...)
        self.meta: dict = {}

    def clear(self) -> None:
        self.spans.clear()
        self.guest.clear()
        self.meta.clear()


class NullProfiler:
    """Disabled facade: null spans, null guest profiler."""

    __slots__ = ()

    enabled = False
    spans = NULL_SPANS
    guest = NULL_GUEST
    meta: dict = {}

    def clear(self) -> None:
        pass


#: the shared disabled instance every layer defaults to
NULL_PROF = NullProfiler()


def record_sim_profile(prof, sim) -> None:
    """Fold one simulator's synthesized-probe hit counts into ``prof``.

    Call once per simulator instance after its run (mirrors
    :func:`repro.obs.report.record_sim_stats`).  Only modules generated
    with ``SynthOptions(observe=True)`` populate ``sim._prof_hits``.
    """
    hits = getattr(sim, "_prof_hits", None)
    if hits:
        prof.guest.add_pc_hits(hits)
        hits.clear()

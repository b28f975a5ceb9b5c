"""Aggregation of observability data and its text/JSON renderings.

The stats document is one JSON-serializable dict::

    {
      "counters": {<nested tree from dotted counter names>},
      "events":   {"emitted": N, "dropped": N, "recent": [{...}, ...]}
    }

The ``record_*`` helpers fold component-held statistics (code-cache
stats on the block translator, per-entrypoint counts on the runtime,
static DCE metadata on the build plan, cache/predictor stats on timing
models) into the shared counter set, so one :func:`collect` call renders
everything a run touched.
"""

from __future__ import annotations

import json

#: how many trailing events a collected document includes by default
RECENT_EVENTS = 32


def record_sim_stats(obs, sim) -> None:
    """Fold one :class:`SynthesizedSimulator`'s statistics into ``obs``.

    Call once per simulator instance, after its run.  Adds per-entrypoint
    invocation counts and (block interfaces) code-cache statistics.
    """
    counters = obs.counters
    for name, count in sim._obs_ep.items():
        if count:
            counters.inc(f"entrypoints.{name}", count)
    translator = getattr(sim, "_translator", None)
    if translator is not None:
        stats = translator.cache_stats
        counters.inc("code_cache.hits", stats.hits)
        counters.inc("code_cache.misses", stats.misses)
        counters.inc("code_cache.flushes", stats.flushes)
        counters.inc("code_cache.blocks", stats.blocks)
        counters.inc("code_cache.chain.links", stats.chain_links)
        counters.inc("code_cache.chain.unlinks", stats.chain_unlinks)
        counters.inc("code_cache.chain.chained", stats.chained)


def record_generated_stats(obs, generated) -> None:
    """Fold synthesis-time (static) metadata into ``obs``.

    Currently: per-action statement totals and DCE-eliminated counts
    gathered while the module was generated.  Call once per
    :class:`GeneratedSimulator`.
    """
    counters = obs.counters
    for action, (total, eliminated) in sorted(generated.plan.dce_stats.items()):
        counters.inc(f"dce.{action}.stmts", total)
        counters.inc(f"dce.{action}.eliminated", eliminated)


def record_timing_stats(obs, organization: str, model) -> None:
    """Fold a timing model's cache/predictor statistics into ``obs``.

    ``model`` is anything carrying ``icache``/``dcache``/``predictor``
    attributes (an :class:`InOrderPipelineModel` or a whole
    organization object).  Values are stored as gauges under the
    organization's name, so re-recording after a longer run overwrites
    rather than double-counts.
    """
    counters = obs.counters
    prefix = f"timing.{organization}"
    for label in ("icache", "dcache"):
        cache = getattr(model, label, None)
        if cache is None:
            continue
        counters.put(f"{prefix}.{label}.hits", cache.stats.hits)
        counters.put(f"{prefix}.{label}.misses", cache.stats.misses)
    predictor = getattr(model, "predictor", None)
    if predictor is not None:
        counters.put(f"{prefix}.branch.correct", predictor.stats.correct)
        counters.put(
            f"{prefix}.branch.mispredicted", predictor.stats.mispredicted
        )


def collect(obs, recent: int = RECENT_EVENTS) -> dict:
    """Render ``obs`` into the canonical stats document."""
    events = obs.events
    if events.dropped:
        # Surface ring truncation as a gauge in the counter tree too, so
        # consumers that only look at counters still see it.
        obs.counters.put("events.dropped", events.dropped)
    tail = events.snapshot()[-recent:] if recent else []
    return {
        "counters": obs.counters.as_tree(),
        "events": {
            "emitted": events.emitted,
            "dropped": events.dropped,
            "recent": [event.as_dict() for event in tail],
        },
    }


def render_json(stats: dict) -> str:
    return json.dumps(stats, indent=2, sort_keys=True)


def render_text(stats: dict) -> str:
    """Human-oriented rendering: indented counter tree + event summary."""
    lines: list[str] = ["== stats =="]

    def walk(node: dict, depth: int) -> None:
        pad = "  " * depth
        for key in sorted(node):
            value = node[key]
            if isinstance(value, dict):
                lines.append(f"{pad}{key}:")
                walk(value, depth + 1)
            else:
                lines.append(f"{pad}{key:24s} {value}")

    counters = stats.get("counters", {})
    if counters:
        walk(counters, 0)
    else:
        lines.append("(no counters recorded)")
    events = stats.get("events", {})
    if events:
        dropped = events.get("dropped", 0)
        lines.append(
            f"events: {events.get('emitted', 0)} emitted, "
            f"{dropped} dropped"
        )
        if dropped:
            lines.append(
                f"  WARNING: event trace truncated — the ring overwrote "
                f"{dropped} event(s); raise ring_capacity for a full trace"
            )
        for event in events.get("recent", []):
            fields = ", ".join(
                f"{k}={v}" for k, v in sorted(event.items())
                if k not in ("seq", "kind")
            )
            lines.append(f"  [{event['seq']}] {event['kind']} {fields}".rstrip())
    return "\n".join(lines)

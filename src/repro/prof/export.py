"""Profile exports: Chrome trace, folded stacks, report documents.

* :func:`chrome_trace` — Chrome Trace Event Format JSON (the ``[]``-of-
  events object form with ``traceEvents``), loadable in Perfetto or
  ``chrome://tracing``.  Every completed span becomes one complete
  (``"ph": "X"``) event; run metadata rides in ``otherData``.
* :func:`folded_stacks` — the semicolon-joined stack/self-weight text
  format consumed by Brendan Gregg's ``flamegraph.pl`` (weights are
  span *self* time in microseconds).
* :func:`profile_document` — the whole profile as one JSON document
  (span tree + hot-block + hot-PC tables), the ``--profile=out.json``
  and ``repro profile --json`` payload.
* :func:`render_profile_text` — the human report.
"""

from __future__ import annotations

import json

#: pid/tid stamped into trace events (the run is single-process)
_PID = 1
_TID = 1


def chrome_trace(prof, meta: dict | None = None) -> dict:
    """Render a profiler's spans as a Chrome Trace Event Format document."""
    events: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": _PID,
            "tid": _TID,
            "args": {"name": "repro simulator"},
        }
    ]
    for name, depth, start_ns, dur_ns in prof.spans.events:
        events.append(
            {
                "name": name,
                "cat": "repro",
                "ph": "X",
                "ts": start_ns / 1e3,
                "dur": dur_ns / 1e3,
                "pid": _PID,
                "tid": _TID,
                "args": {"depth": depth},
            }
        )
    other: dict = dict(prof.meta)
    if meta:
        other.update(meta)
    other["events_dropped"] = prof.spans.events_dropped
    hot = prof.guest.hot_blocks(limit=10, ilen=other.get("ilen", 4))
    if hot:
        other["hot_blocks"] = [
            {"pc": hex(row["pc"]), "end": hex(row["end"]),
             "ns": row["ns"], "share": round(row["share"], 4)}
            for row in hot
        ]
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": other,
    }


def folded_stacks(prof) -> str:
    """Span tree as folded stacks (``a;b;c <self_us>`` per line)."""
    lines = []
    for path, node in prof.spans.paths():
        self_us = node.self_ns // 1000
        if self_us > 0:
            lines.append(f"{';'.join(path)} {self_us}")
    return "\n".join(lines) + ("\n" if lines else "")


def profile_document(prof, meta: dict | None = None) -> dict:
    """The full profile as one JSON-serializable document."""
    doc_meta: dict = dict(prof.meta)
    if meta:
        doc_meta.update(meta)
    ilen = doc_meta.get("ilen", 4)
    return {
        "meta": doc_meta,
        "spans": prof.spans.tree(),
        "events_dropped": prof.spans.events_dropped,
        "hot_blocks": prof.guest.hot_blocks(ilen=ilen),
        "hot_pcs": prof.guest.hot_pcs(limit=64),
    }


def write_chrome_trace(path: str, prof, meta: dict | None = None) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(chrome_trace(prof, meta), handle, indent=2, sort_keys=True)
        handle.write("\n")


def _fmt_ms(ns: int) -> str:
    return f"{ns / 1e6:.3f}"


def render_profile_text(prof, meta: dict | None = None, limit: int = 16) -> str:
    """Human-oriented rendering: span tree + hot-block/hot-PC tables."""
    from repro.harness.tables import render_table

    doc_meta: dict = dict(prof.meta)
    if meta:
        doc_meta.update(meta)
    ilen = doc_meta.get("ilen", 4)
    lines: list[str] = ["== profile =="]
    if doc_meta:
        tagged = ", ".join(
            f"{k}={v}" for k, v in sorted(doc_meta.items()) if k != "ilen"
        )
        if tagged:
            lines.append(f"({tagged})")

    tree = prof.spans.tree()
    if tree:
        lines.append("spans (total / self ms, count, min..max us):")

        def walk(nodes: dict, depth: int) -> None:
            for name in sorted(
                nodes, key=lambda n: -nodes[n]["total_ns"]
            ):
                node = nodes[name]
                pad = "  " * (depth + 1)
                lines.append(
                    f"{pad}{name:<18s} {_fmt_ms(node['total_ns']):>10s} / "
                    f"{_fmt_ms(node['self_ns']):>10s}  x{node['count']:<8d} "
                    f"{node['min_ns'] // 1000}..{node['max_ns'] // 1000}"
                )
                walk(node.get("children", {}), depth + 1)

        walk(tree, 0)
    else:
        lines.append("(no spans recorded)")

    hot = prof.guest.hot_blocks(limit=limit, ilen=ilen)
    if hot:
        rows = [
            [
                f"{row['pc']:#x}..{row['end']:#x}",
                f"{row['share'] * 100:.1f}%",
                _fmt_ms(row["ns"]),
                row["calls"],
                row["instructions"],
                row["parts"],
                row["chained_calls"],
            ]
            for row in hot
        ]
        lines.append(
            render_table(
                "Hot translated units (host time per guest PC range)",
                ["guest PC range", "share", "ms", "calls", "instrs",
                 "parts", "chained"],
                rows,
            )
        )
    pcs = prof.guest.hot_pcs(limit=limit)
    if pcs:
        rows = [[f"{row['pc']:#x}", row["hits"]] for row in pcs]
        lines.append(
            render_table(
                "Hot guest PCs (probe hits)", ["guest PC", "hits"], rows
            )
        )
    if prof.spans.events_dropped:
        lines.append(
            f"WARNING: {prof.spans.events_dropped} span event(s) dropped "
            f"past the raw-event cap; aggregates are still exact"
        )
    return "\n".join(lines)

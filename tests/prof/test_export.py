"""Export-format tests: Chrome trace schema, folded stacks, documents."""

import json

import pytest

from repro.prof.export import (
    chrome_trace,
    folded_stacks,
    profile_document,
    render_profile_text,
    write_chrome_trace,
)
from repro.prof.profiler import NULL_PROF, Profiler
from repro.prof.spans import CHAIN_PATCH, EXECUTE, TRANSLATE


@pytest.fixture()
def prof():
    """A deterministic populated profiler (spans, units, PC hits)."""
    p = Profiler()
    clock = iter(range(0, 100_000_000, 1_000_000))  # 1 ms ticks
    p.spans._clock = lambda: next(clock)
    p.spans.origin_ns = 0
    with p.spans.span(EXECUTE):
        with p.spans.span(TRANSLATE):
            pass
        with p.spans.span(CHAIN_PATCH):
            pass
    p.guest.register_unit(0x1000, length=4, parts=1)
    p.guest.register_unit(0x2000, length=16, parts=3)
    p.guest.add_unit_time(0x1000, 1_000, executed=4)
    p.guest.add_unit_time(0x2000, 9_000, executed=160, chained=True)
    p.guest.add_pc_hits({0x1000: 5})
    p.meta["isa"] = "alpha"
    p.meta["buildset"] = "block_min"
    return p


class TestChromeTrace:
    def test_schema_perfetto_accepts(self, prof):
        doc = chrome_trace(prof)
        # Chrome Trace Event Format, JSON Object Format: the traceEvents
        # array is the only required member; every event needs name/ph,
        # and complete events ("X") need numeric ts + dur.
        assert set(doc) == {"traceEvents", "displayTimeUnit", "otherData"}
        events = doc["traceEvents"]
        assert events[0]["ph"] == "M"  # process-name metadata record
        spans = events[1:]
        assert len(spans) == 3
        for event in spans:
            assert event["ph"] == "X"
            assert isinstance(event["ts"], (int, float))
            assert isinstance(event["dur"], (int, float))
            assert event["dur"] >= 0
            assert {"name", "cat", "pid", "tid"} <= set(event)
        json.dumps(doc)  # fully serializable

    def test_other_data_carries_meta_and_hot_blocks(self, prof):
        doc = chrome_trace(prof, meta={"command": "test"})
        other = doc["otherData"]
        assert other["isa"] == "alpha"
        assert other["command"] == "test"
        assert other["events_dropped"] == 0
        assert other["hot_blocks"][0]["pc"] == hex(0x2000)
        assert other["hot_blocks"][0]["share"] == 0.9

    def test_write_round_trips(self, prof, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(str(path), prof)
        loaded = json.loads(path.read_text())
        assert loaded == json.loads(json.dumps(chrome_trace(prof)))


class TestFoldedStacks:
    def test_format_is_path_space_weight(self, prof):
        lines = folded_stacks(prof).splitlines()
        assert lines  # at least the execute self-time
        for line in lines:
            path, weight = line.rsplit(" ", 1)
            assert int(weight) > 0
            assert all(part for part in path.split(";"))
        assert any(line.startswith(f"{EXECUTE};{TRANSLATE} ") for line in lines)

    def test_zero_weight_paths_are_omitted(self):
        assert folded_stacks(NULL_PROF) == ""


class TestProfileDocument:
    def test_document_shape(self, prof):
        doc = profile_document(prof, meta={"ilen": 4})
        assert set(doc) == {
            "meta", "spans", "events_dropped", "hot_blocks", "hot_pcs"
        }
        assert doc["meta"]["isa"] == "alpha"
        assert EXECUTE in doc["spans"]
        assert doc["hot_blocks"][0]["end"] == 0x2000 + 16 * 4
        assert doc["hot_pcs"][0] == {"pc": 0x1000, "hits": 5}
        json.dumps(doc)


class TestRenderText:
    def test_mentions_spans_and_hot_units(self, prof):
        text = render_profile_text(prof)
        assert "== profile ==" in text
        assert "isa=alpha" in text
        assert EXECUTE in text and TRANSLATE in text
        assert "Hot translated units" in text
        assert "0x2000..0x2040" in text
        assert "90.0%" in text
        assert "WARNING" not in text

    def test_warns_on_dropped_events(self, prof):
        prof.spans.events_dropped = 9
        text = render_profile_text(prof)
        assert "WARNING" in text and "9" in text

    def test_empty_profiler_renders(self):
        text = render_profile_text(Profiler())
        assert "no spans recorded" in text

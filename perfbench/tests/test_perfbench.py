"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
for path in (os.path.join(ROOT, "src"), BENCH):
    if path not in sys.path:
        sys.path.insert(0, path)

import run as bench_run  # noqa: E402
from cells import (  # noqa: E402
    COLD,
    REFERENCE_LOOP_S,
    SETUP,
    WARM,
    WORKLOADS,
    make_cells,
    run_workload,
)
from repro.synth.runtime import SynthesizedSimulator  # noqa: E402
from tracing import METHOD_HOOKS, measure_layers  # noqa: E402

#: tiny inputs: one ISA, two kernels, a tenth of each workload's sizes
TINY = dict(isas=("alpha",), kernels=("fib", "sieve"), scale=0.1)
SEED = 7

#: counts that must repeat exactly between two traced runs of one seed
DETERMINISTIC = (
    "guest.instructions", "translator.units", "translator.warm_units",
    "translator.instrs_translated", "runtime.dispatches", "sysemu.calls",
    "arch.rollbacks", "arch.rolled_back_instrs", "arch.pages",
    "timing.calls", "timing.cycles", "timing.icache_misses",
    "timing.dcache_misses", "timing.mispredicts", "timing.mismatches",
    "synth.source_kb",
)


def tiny_cells(name: str, seed: int = SEED):
    return make_cells(WORKLOADS[name], seed, **TINY)


@pytest.fixture(scope="module")
def traced():
    """Each workload's traced measurement, made twice with one seed."""
    out = {}
    for name in WORKLOADS:
        out[name] = [
            measure_layers(WORKLOADS[name], tiny_cells(name)) for _ in range(2)
        ]
    return out


@pytest.fixture(scope="module")
def manifest():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_workload_names_and_reasons_match_manifest(manifest):
    assert {w["name"]: w["why"] for w in manifest["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }


def test_end_to_end_names_and_units_match_manifest(manifest):
    name = "timing_orgs"
    run = run_workload(WORKLOADS[name], tiny_cells(name), 0, 1)
    metrics = bench_run.end_to_end(run)
    assert {m["name"]: m["unit"] for m in manifest["end_to_end"]} == {
        key: unit for key, (_, unit) in metrics.items()
    }
    assert all(value > 0 for value, _ in metrics.values())


def test_per_layer_names_and_units_match_manifest(manifest, traced):
    expected = {m["name"]: m["unit"] for m in manifest["per_layer"]}
    for runs in traced.values():
        (_, metrics, _) = runs[0]
        got = {key: unit for key, (_, unit) in metrics.items()}
        got["fail_rate"] = "ratio"  # added by run.py over both passes
        assert got == expected


def test_no_cell_fails(traced):
    for name, runs in traced.items():
        for records, _, _ in runs:
            for record in records:
                assert record.failures == [], name
                assert record.attempted == len(tiny_cells(name))


def test_traced_counts_repeat_exactly(traced):
    for name, (first, second) in traced.items():
        a, b = first[1], second[1]
        for key in DETERMINISTIC:
            assert a[key][0] == b[key][0], (name, key)
        assert a["guest.instructions"][0] > 0


def test_hooks_are_removed_after_the_traced_pass(traced):
    for cls, attr, _ in METHOD_HOOKS:
        assert not hasattr(cls.__dict__[attr], "__wrapped__"), (cls, attr)
    assert SynthesizedSimulator.run.__qualname__ == "SynthesizedSimulator.run"


def test_layer_predictions(traced):
    cold = traced["block_cold"][0][1]
    assert cold["translator.share"][0] >= 0.9
    warm = traced["block_warm"][0][1]
    assert warm["translator.units"][0] > 0
    assert warm["translator.warm_units"][0] == 0
    assert warm["timing.calls"][0] > 0
    orgs = traced["timing_orgs"][0][1]
    assert orgs["translator.units"][0] == 0
    assert orgs["arch.rollbacks"][0] > 0
    assert orgs["runtime.dispatches"][0] == 0


def test_failed_cell_is_counted_and_the_run_goes_on():
    cells = tiny_cells("block_cold")
    cells[0] = dataclasses.replace(cells[0], expected=cells[0].expected ^ 1)
    run = run_workload(WORKLOADS["block_cold"], cells, 0, 1)
    assert run.attempted == len(cells)
    assert len(run.failures) == 1
    assert "differs" not in run.failures[0] and "reference" in run.failures[0]
    assert sum(1 for rec in run.cells.values() if rec.cold_s) == len(cells) - 1


def test_time_left_after_the_first_pass_runs_more_passes():
    workload = WORKLOADS["block_cold"]
    cells = make_cells(workload, SEED, isas=("alpha",), kernels=("fib",),
                       scale=0.1)
    one_pass = run_workload(workload, cells, 0, 1)
    # the runs are timed from the end of set-up, so three times a whole
    # one-pass run leaves time for at least a second pass
    run = run_workload(workload, cells, 3 * one_pass.wall_s, 1)
    assert run.failures == []
    counts = [len(rec.cold_s) for rec in run.cells.values()]
    assert min(counts) >= 2
    assert max(counts) - min(counts) <= 1
    assert run.attempted == sum(counts)
    for rec in run.cells.values():
        assert len(rec.warm_s) == workload.warm_reruns * len(rec.cold_s)
    # every sample is kept raw, and reported scaled by the host loop
    scaled = {phase: [elapsed * REFERENCE_LOOP_S / loop
                      for ph, _, elapsed, loop in run.samples if ph == phase]
              for phase in (SETUP, COLD, WARM)}
    (rec,) = run.cells.values()
    assert scaled == {SETUP: run.setup_s, COLD: rec.cold_s, WARM: rec.warm_s}


def test_seed_picks_sizes_and_order():
    a, b = tiny_cells("timing_orgs", 1), tiny_cells("timing_orgs", 1)
    assert [(c.label, c.n) for c in a] == [(c.label, c.n) for c in b]
    c = tiny_cells("timing_orgs", 2)
    assert [(x.label, x.n) for x in a] != [(x.label, x.n) for x in c]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "block_cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

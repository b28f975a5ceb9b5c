"""Experiment T2 — Table II: simulation speed (MIPS) per interface.

Paper (Alpha column): Block/Min/No 37.8 ... Step/All/Yes 2.62, a 14.4x
spread.  Absolute MIPS are not comparable (CPython vs compiled LLVM
translation on a 2 GHz Opteron); the properties to reproduce are the
*orderings* and the overall spread:

* semantic detail dominates: Block > One > Step at equal information;
* informational detail costs: Min >= Decode >= All at equal semantics;
* speculation support always costs something;
* the lowest-detail interface is many times faster than the
  highest-detail one.

These orderings are claims about warm MIPS, the steady state the paper
measures over 4G instructions.  Our runs are 10^4-10^5 instructions, so
the artifact also records each cell's cold run (synthesis plus the
first run of every kernel to exit), one uncached spec load per ISA and
a per-layer span tree for block_min and one_min.
"""

import os
import time

import pytest

from repro.adl import load_isa
from repro.harness import (
    DEFAULT_KERNELS,
    INTERFACE_GRID,
    bench_scale,
    measure_buildset,
    render_table,
    table2,
)
from repro.harness.speed import kernel_size
from repro.isa.base import get_bundle
from repro.obs import make_observability
from repro.prof import profile_document
from repro.synth import SynthOptions, synthesize
from repro.workloads import run_kernel

from conftest import ISAS

#: CI's bench-smoke job restricts the grid (e.g. to block_min,one_min);
#: the ordering tests assume the full grid and are not selected there.
_BUILDSETS = os.environ.get("REPRO_BENCH_BUILDSETS")
GRID = INTERFACE_GRID if _BUILDSETS is None else tuple(
    row for row in INTERFACE_GRID if row[0] in _BUILDSETS.split(",")
)

#: interfaces whose per-layer span tree the artifact records
LAYER_BUILDSETS = ("block_min", "one_min")

_RESULTS = {}


def ordered(isa: str, faster: str, slower: str, slack: float = 1.0) -> bool:
    """Check a speed ordering; on violation, re-measure the two
    configurations back-to-back (shared-machine noise between distant
    cells of the grid is the common cause of spurious inversions)."""
    if _RESULTS[(faster, isa)].mips > _RESULTS[(slower, isa)].mips * slack:
        return True
    again_fast = measure_buildset(isa, faster).mips
    again_slow = measure_buildset(isa, slower).mips
    return again_fast > again_slow * slack


def spec_load_seconds(isa: str) -> float:
    """One uncached spec load (``load_spec`` is memoized)."""
    start = time.perf_counter()
    load_isa(get_bundle(isa).description_paths())
    return time.perf_counter() - start


def layer_spans(isa: str, buildset: str) -> dict:
    """Span tree of one profiled pass over the Table II kernels."""
    generated = synthesize(
        get_bundle(isa).load_spec(), buildset, SynthOptions(observe=True)
    )
    obs = make_observability()
    for name in DEFAULT_KERNELS:
        run = run_kernel(
            generated, isa, name, kernel_size(name, bench_scale()), obs=obs
        )
        assert run.correct, (isa, buildset, name)
    return profile_document(obs.prof)["spans"]


def grid_table(title: str, grid, cell) -> str:
    rows = [
        [f"{semantic}/{info}/{spec}"]
        + [cell(grid[(buildset, isa)]) for isa in ISAS]
        for buildset, semantic, info, spec in GRID
    ]
    return render_table(
        f"{title} (scale={bench_scale()})",
        ["Interface (sem/info/spec)"] + list(ISAS),
        rows,
        float_format="{:.3f}",
    )


def test_table2_measure(benchmark, publish, publish_json):
    grid = benchmark.pedantic(
        table2,
        kwargs={"isas": ISAS, "buildsets": [b for b, *_ in GRID]},
        rounds=1,
        iterations=1,
    )
    _RESULTS.update(grid)
    spec_load_s = {isa: spec_load_seconds(isa) for isa in ISAS}

    def per_cell(field):
        return {
            buildset: {isa: getattr(grid[(buildset, isa)], field) for isa in ISAS}
            for buildset, *_ in GRID
        }

    publish_json(
        "T2",
        {
            "experiment": "table2_simulation_speed",
            "unit": "geomean MIPS over the kernel suite",
            "scale": bench_scale(),
            "mips": per_cell("mips"),
            "samples": per_cell("samples"),
            "cold_s": per_cell("cold_s"),
            "cold_mips": per_cell("cold_mips"),
            "spec_load_s": spec_load_s,
            "layers": {
                buildset: {isa: layer_spans(isa, buildset) for isa in ISAS}
                for buildset in LAYER_BUILDSETS
                if any(row[0] == buildset for row in GRID)
            },
        },
    )
    publish(
        "table2_simulation_speed",
        "\n\n".join((
            grid_table("Table II (analogue): warm simulation speed in MIPS, "
                       "geomean over kernels", grid, lambda m: round(m.mips, 3)),
            grid_table("Cold simulation speed in MIPS, first-run "
                       "instructions / cold seconds",
                       grid, lambda m: round(m.cold_mips, 3)),
            grid_table("Cold seconds: synthesis plus the first run of every "
                       "kernel to exit", grid, lambda m: round(m.cold_s, 3)),
            "Spec load (s): " + ", ".join(
                f"{isa} {sec:.3f}" for isa, sec in spec_load_s.items()
            ),
        )),
    )


@pytest.mark.parametrize("isa", ISAS)
def test_semantic_detail_ordering(benchmark, isa):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert _RESULTS, "run test_table2_measure first (file order does this)"
    # Block > One > Step at the same informational level.
    assert ordered(isa, "block_min", "one_min")
    assert ordered(isa, "block_all", "one_all")
    assert ordered(isa, "one_all", "step_all")


@pytest.mark.parametrize("isa", ISAS)
def test_informational_detail_ordering(benchmark, isa):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    # More information never helps; allow 10% noise at this scale.
    assert ordered(isa, "block_min", "block_all", slack=0.95)
    assert ordered(isa, "one_min", "one_all", slack=0.9)


@pytest.mark.parametrize("isa", ISAS)
def test_speculation_costs(benchmark, isa):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert ordered(isa, "one_all", "one_all_spec")
    assert ordered(isa, "block_all", "block_all_spec")
    assert ordered(isa, "step_all", "step_all_spec")


@pytest.mark.parametrize("isa", ISAS)
def test_overall_spread_is_large(benchmark, isa):
    """The paper's headline: lowest detail up to 14.4x faster than
    highest.  We require at least ~5x, and report the actual number."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    mips = {bs: _RESULTS[(bs, isa)].mips for bs, *_ in INTERFACE_GRID}
    spread = mips["block_min"] / mips["step_all_spec"]
    print(f"\n{isa}: lowest/highest detail speed ratio = {spread:.1f}x")
    assert spread > 5.0

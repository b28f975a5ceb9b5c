"""Shared infrastructure for the experiment-regeneration benchmarks.

Every file in this directory regenerates one table or figure of the
paper (see DESIGN.md section 4 for the index).  Rendered tables are
printed and also written to ``benchmarks/_results/`` so EXPERIMENTS.md
can reference a stable artifact.
"""

import json
import os

import pytest

from repro.harness import bench_environment
from repro.isa.base import get_bundle
from repro.synth import SynthOptions, synthesize

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "_results")

# CI's bench-smoke job narrows this to one ISA for a fast sanity pass.
ISAS = tuple(os.environ.get("REPRO_BENCH_ISAS", "alpha,arm,ppc").split(","))

_GEN_CACHE = {}


def generator(isa: str, buildset: str, options: SynthOptions | None = None):
    key = (isa, buildset, options)
    if key not in _GEN_CACHE:
        _GEN_CACHE[key] = synthesize(get_bundle(isa).load_spec(), buildset, options)
    return _GEN_CACHE[key]


@pytest.fixture(scope="session")
def results_dir():
    os.makedirs(RESULTS_DIR, exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def publish(results_dir):
    """Print a rendered table and persist it under _results/."""

    def _publish(name: str, text: str) -> None:
        print("\n" + text)
        with open(os.path.join(results_dir, f"{name}.txt"), "w") as handle:
            handle.write(text + "\n")

    return _publish


@pytest.fixture(scope="session")
def publish_json(results_dir):
    """Persist an experiment's raw measurements as BENCH_<exp_id>.json.

    The rendered .txt tables are for humans; these documents are for
    scripts (regression tracking, plotting) and mirror the same numbers
    before any rounding-for-display, plus an ``environment`` block that
    says where they were measured.  ``update=True`` merges the payload's
    top-level keys into the existing document, for an experiment whose
    measurements are split over several tests.
    """

    def _publish_json(exp_id: str, payload: dict, update: bool = False) -> None:
        path = os.path.join(results_dir, f"BENCH_{exp_id}.json")
        if update and os.path.exists(path):
            with open(path) as handle:
                payload = {**json.load(handle), **payload}
        payload = {**payload, "environment": bench_environment()}
        with open(path, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")

    return _publish_json

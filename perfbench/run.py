"""Repository benchmark: cold spec-to-exit and warm MIPS, per workload.

Run from the repository root::

    python3 perfbench/run.py --workload block_cold --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped; every
time is scaled to the reference host's speed by a fixed loop timed just
before each sample (``cells.host_loop``).
``--trace 1`` makes one untraced pass and one traced pass over the same
cells, prints the per-layer metrics and writes the spans of the traced
pass to ``perfbench/_out/``.  Every run checks each guest result against
the kernel's Python reference.  The last line of standard output is one
JSON object: ``correct``, ``attempted`` and ``failed`` (cells) and
``metrics``.  See ``perfbench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "_out")

#: an untraced run sets up at least this many times and for at least
#: this long; ``setup_s`` is the median
SETUP_REPS = 3
SETUP_SECONDS = 2.0


def _import_program() -> None:
    """Put the checkout's own ``src`` first on the path, or refuse to run."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.exit(f"perfbench: no simulator sources at {SRC}")
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def git_commit() -> str:
    """The checkout's commit, or ``unknown`` outside a git repository."""
    # the ceiling keeps git from reporting a repository that encloses a
    # checkout which is not one itself
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(args, cells) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cells": [{"cell": cell.label, "n": cell.n} for cell in cells],
    }


def end_to_end(run) -> dict:
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "setup_s": (median(run.setup_s), "s"),
        "spec_to_exit_s": (run.spec_to_exit_s(), "s"),
        "cold_mips": (run.mips("cold_s"), "MIPS"),
        "warm_mips": (run.mips("warm_s"), "MIPS"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    from cells import REFERENCE_LOOP_S, WORKLOADS, make_cells, run_workload

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    cells = make_cells(workload, args.seed)
    env = environment(args, cells)
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")

    if args.trace:
        from repro.prof.export import write_chrome_trace
        from tracing import measure_layers

        runs, metrics, prof = measure_layers(workload, cells)
        write_chrome_trace(stem + "-spans.json", prof, env)
    else:
        run = run_workload(workload, cells, args.seconds, SETUP_REPS,
                           setup_seconds=SETUP_SECONDS)
        metrics = end_to_end(run)
        runs = (run,)

    failures = [line for run in runs for line in run.failures]
    attempted = sum(run.attempted for run in runs)
    fail_rate = len(failures) / attempted
    if args.trace:
        metrics["fail_rate"] = (fail_rate, "ratio")
    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"env {json.dumps(env)}")
    width = max(len(name) for name in metrics)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload}  {name:<{width}}  {value:>14.6g}  {unit}")
    if not args.trace:
        print(f"{args.workload}  {'fail_rate':<{width}}  {fail_rate:>14.6g}  "
              f"ratio")
    print(f"{args.workload}  {len(failures)} of {attempted} cells failed")
    loops = [loop for run in runs for *_, loop in run.samples]
    print(f"{args.workload}  host_loop median {median(loops) * 1e3:.2f} ms "
          f"over {len(loops)} samples (reference "
          f"{REFERENCE_LOOP_S * 1e3:.2f} ms)")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    # raw samples of every pass: [phase, what, host s, host_loop s]
    with open(stem + ".json", "w") as handle:
        json.dump({"env": env, "failures": failures, **result,
                   "reference_loop_s": REFERENCE_LOOP_S,
                   "samples": [run.samples for run in runs]}, handle)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

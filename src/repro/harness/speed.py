"""Table II: simulation speed (MIPS) per interface per ISA.

The paper reports the geometric mean of speed over six SPEC CPU2000int
benchmarks; we report the geometric mean over the kernel suite at a
configurable scale (absolute guest instruction counts are far smaller —
CPython vs a 2 GHz Opteron — but the table's *shape* is the target).
"""

from __future__ import annotations

import math
import os
import platform
import subprocess
import time
from dataclasses import dataclass

from repro.isa.base import get_bundle
from repro.synth import SynthOptions, synthesize
from repro.synth.interp import InterpretedSimulator
from repro.sysemu.loader import load_image
from repro.sysemu.syscalls import OSEmulator
from repro.workloads import SUITE, assemble_kernel

#: the paper's twelve interfaces (semantic / informational / speculation)
INTERFACE_GRID: tuple[tuple[str, str, str, str], ...] = (
    ("block_min", "Block", "Min", "No"),
    ("block_decode", "Block", "Decode", "No"),
    ("block_decode_spec", "Block", "Decode", "Yes"),
    ("block_all", "Block", "All", "No"),
    ("block_all_spec", "Block", "All", "Yes"),
    ("one_min", "One", "Min", "No"),
    ("one_decode", "One", "Decode", "No"),
    ("one_decode_spec", "One", "Decode", "Yes"),
    ("one_all", "One", "All", "No"),
    ("one_all_spec", "One", "All", "Yes"),
    ("step_all", "Step", "All", "No"),
    ("step_all_spec", "Step", "All", "Yes"),
)

DEFAULT_KERNELS = ("checksum", "fib", "sieve", "strsearch", "bitcount", "memcopy")


def bench_scale() -> float:
    """Workload scale factor, settable via REPRO_BENCH_SCALE.

    The default keeps the full benchmark suite around five minutes on a
    laptop; raise it for more stable numbers.
    """
    return float(os.environ.get("REPRO_BENCH_SCALE", "0.5"))


def bench_reps() -> int:
    """Timed repetitions per kernel, settable via REPRO_BENCH_REPS."""
    return max(1, int(os.environ.get("REPRO_BENCH_REPS", "2")))


@dataclass
class SpeedMeasurement:
    isa: str
    buildset: str
    mips: float
    instructions: int
    elapsed: float
    #: per-repetition geomean MIPS across the kernels; the headline
    #: ``mips`` is best-of-reps per kernel
    samples: tuple[float, ...] = ()
    #: synthesis plus the first run of every kernel to exit, in seconds
    cold_s: float = 0.0
    #: first-run instructions divided by ``cold_s``
    cold_mips: float = 0.0


def bench_environment() -> dict:
    """Where a benchmark artifact was measured."""
    root = os.path.abspath(os.path.join(os.path.dirname(__file__), "../../.."))
    # the ceiling keeps git from reporting a repository that encloses a
    # checkout which is not one itself
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, env=env,
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    return {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "git_commit": commit,
        "scale": bench_scale(),
        "reps": bench_reps(),
    }


def kernel_size(name: str, scale: float) -> int:
    """The kernel parameter ``n`` the speed benchmarks run at ``scale``."""
    n = max(2, int(SUITE[name].bench_n * scale))
    if name == "listsum":
        while math.gcd(n, 7) != 1:
            n += 1
    return n


def _measure_one(
    sim_factory, isa: str, label: str, kernels, scale: float,
    setup_s: float = 0.0,
) -> SpeedMeasurement:
    """Cold MIPS and warm geomean MIPS over kernels.

    Each kernel's first run, from a fresh simulator to exit, is the cold
    run: ``cold_s`` adds it to ``setup_s`` (the caller's synthesis time),
    translation included.  The kernel is then re-run from a snapshot for
    the timed warm measurement.  The paper measures over the first
    4 billion instructions, where one-time translation cost is fully
    amortized; the warm run reproduces that steady state at our scale
    (Table III accounts for translation cost explicitly instead).
    """
    bundle = get_bundle(isa)
    reps = bench_reps()
    rates: list[float] = []
    #: per-repetition, per-kernel instruction rates
    rep_rates: list[list[float]] = [[] for _ in range(reps)]
    total_instructions = 0
    total_elapsed = 0.0
    cold_s = setup_s
    cold_instructions = 0
    for name in kernels:
        image = assemble_kernel(isa, SUITE[name], kernel_size(name, scale))
        os_emu = OSEmulator(bundle.abi)
        sim = sim_factory(os_emu)
        load_image(sim.state, image, bundle.abi)
        snapshot = sim.state.snapshot()
        start = time.perf_counter()
        first = sim.run(200_000_000)  # cold run: translation happens here
        cold_s += time.perf_counter() - start
        if not first.exited:
            raise RuntimeError(f"{isa}/{name}: did not finish")
        cold_instructions += first.executed
        best_rate = 0.0
        for rep in range(reps):  # best-of-reps to damp scheduler noise
            sim.state.restore(snapshot)
            start = time.perf_counter()
            result = sim.run(200_000_000)
            elapsed = time.perf_counter() - start
            if not result.exited:
                raise RuntimeError(f"{isa}/{name}: did not finish (timed run)")
            rate = result.executed / max(elapsed, 1e-9)
            best_rate = max(best_rate, rate)
            rep_rates[rep].append(rate)
            total_instructions += result.executed
            total_elapsed += elapsed
        rates.append(best_rate)
    geomean = math.exp(sum(math.log(rate) for rate in rates) / len(rates))
    samples = tuple(
        math.exp(sum(math.log(r) for r in row) / len(row)) / 1e6
        for row in rep_rates
        if row
    )
    return SpeedMeasurement(
        isa, label, geomean / 1e6, total_instructions, total_elapsed, samples,
        cold_s, cold_instructions / max(cold_s, 1e-9) / 1e6,
    )


def measure_buildset(
    isa: str,
    buildset: str,
    kernels=DEFAULT_KERNELS,
    scale: float | None = None,
    options: SynthOptions | None = None,
) -> SpeedMeasurement:
    """Cold and warm MIPS of one synthesized interface on one ISA."""
    scale = bench_scale() if scale is None else scale
    start = time.perf_counter()
    generated = synthesize(get_bundle(isa).load_spec(), buildset, options)
    synth_s = time.perf_counter() - start
    return _measure_one(
        lambda os_emu: generated.make(syscall_handler=os_emu),
        isa, buildset, kernels, scale, synth_s,
    )


def measure_interpreter(
    isa: str,
    buildset: str = "one_min",
    kernels=DEFAULT_KERNELS,
    scale: float | None = None,
) -> SpeedMeasurement:
    """Cold and warm MIPS of the interpreted execution style (footnote 5)."""
    scale = bench_scale() if scale is None else scale
    spec = get_bundle(isa).load_spec()
    return _measure_one(
        lambda os_emu: InterpretedSimulator(spec, buildset, syscall_handler=os_emu),
        isa, f"interp:{buildset}", kernels, scale,
    )


def table2(
    isas=("alpha", "arm", "ppc"),
    kernels=DEFAULT_KERNELS,
    scale: float | None = None,
    buildsets=None,
) -> dict[tuple[str, str], SpeedMeasurement]:
    """The full Table II grid: {(buildset, isa): measurement}.

    ``buildsets`` restricts the grid to a subset of interfaces (CI's
    smoke job measures just ``block_min``/``one_min`` at tiny scale).
    """
    out: dict[tuple[str, str], SpeedMeasurement] = {}
    rows = INTERFACE_GRID if buildsets is None else tuple(
        row for row in INTERFACE_GRID if row[0] in buildsets
    )
    for buildset, *_ in rows:
        for isa in isas:
            out[(buildset, isa)] = measure_buildset(isa, buildset, kernels, scale)
    return out

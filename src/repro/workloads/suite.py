"""Running the kernel suite on synthesized simulators."""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.base import get_bundle
from repro.obs.report import record_sim_stats
from repro.prof.profiler import record_sim_profile
from repro.sysemu.loader import load_image
from repro.sysemu.syscalls import OSEmulator
from repro.workloads.kernels import SUITE, KernelSpec


@dataclass
class KernelRun:
    """Outcome of running one kernel on one simulator."""

    kernel: str
    isa: str
    executed: int
    exit_status: int | None
    result: int
    expected: int
    elapsed: float

    @property
    def correct(self) -> bool:
        return self.result == self.expected


def assemble_kernel(isa: str, spec: KernelSpec, n: int, origin: int = 0x1000):
    """Assemble one kernel for one ISA; returns the program image."""
    bundle = get_bundle(isa)
    source = spec.build(n).emit(isa)
    return bundle.make_assembler().assemble(source, origin=origin)


def run_kernel(
    generated,
    isa: str,
    name: str,
    n: int | None = None,
    max_instructions: int = 50_000_000,
    obs=None,
) -> KernelRun:
    """Run kernel ``name`` on a fresh simulator from ``generated``.

    Pass an :class:`repro.obs.Observability` as ``obs`` to aggregate the
    run's statistics (per-entrypoint counts, code-cache behaviour,
    per-syscall counts) into it; the default runs unobserved.
    """
    import time

    spec = SUITE[name]
    size = n if n is not None else spec.test_n
    bundle = get_bundle(isa)
    image = assemble_kernel(isa, spec, size)
    os_emu = OSEmulator(bundle.abi, obs=obs)
    sim = generated.make(syscall_handler=os_emu, obs=obs)
    load_image(sim.state, image, bundle.abi)
    start = time.perf_counter()
    result = sim.run(max_instructions)
    elapsed = time.perf_counter() - start
    value = sim.state.mem.read_u32(image.symbol("result"))
    if obs is not None and obs.enabled:
        record_sim_stats(obs, sim)
        obs.counters.inc("run.instructions", result.executed)
        obs.counters.inc("run.kernels", 1)
        record_sim_profile(obs.prof, sim)
    return KernelRun(
        kernel=name,
        isa=isa,
        executed=result.executed,
        exit_status=result.exit_status,
        result=value,
        expected=spec.reference(size) & 0xFFFFFFFF,
        elapsed=elapsed,
    )


def kernel_names() -> list[str]:
    return sorted(SUITE)

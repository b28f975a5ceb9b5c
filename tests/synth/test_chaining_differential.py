"""Differential on-vs-off equivalence for superblocks + chaining.

Every Block buildset of every shipping ISA runs a kernel with the
optimizations on (the defaults) and off (``chain=False, superblock=0``,
and separately ``regcache=False``) and must land in the same
architectural state: same registers, special registers, memory, exit
status and executed-instruction count.  The program counter is
deliberately excluded — translated units only materialize ``state.pc``
on exits that need it, so its staleness differs by design between unit
shapes.
"""

import pytest

from repro.isa.base import get_bundle
from repro.synth import SynthOptions, synthesize
from repro.sysemu.loader import load_image
from repro.sysemu.syscalls import OSEmulator
from repro.workloads import SUITE, assemble_kernel

OFF = SynthOptions(chain=False, superblock=0)
NO_REGCACHE = SynthOptions(regcache=False)

ISAS = ("alpha", "arm", "ppc", "sparc")

#: checksum touches memory, loops, and calls; small n keeps this fast
KERNEL, N = "checksum", 6


def block_buildsets(spec):
    return sorted(
        name
        for name, bs in spec.buildsets.items()
        if bs.semantic_detail == "block"
    )


def run_blocks(isa, bundle, spec, buildset, options):
    generated = synthesize(spec, buildset, options)
    image = assemble_kernel(isa, SUITE[KERNEL], N)
    sim = generated.make(syscall_handler=OSEmulator(bundle.abi))
    load_image(sim.state, image, bundle.abi)
    result = sim.run(50_000_000)
    assert result.exited, f"{isa}/{buildset}: did not finish"
    return sim, result


def assert_matches_default(isa, options):
    bundle = get_bundle(isa)
    spec = bundle.load_spec()
    names = block_buildsets(spec)
    assert names, f"{isa} defines no block buildsets"
    for buildset in names:
        sim_on, res_on = run_blocks(isa, bundle, spec, buildset, None)
        sim_off, res_off = run_blocks(isa, bundle, spec, buildset, options)
        context = f"{isa}/{buildset}"
        assert res_on.exit_status == res_off.exit_status, context
        assert res_on.executed == res_off.executed, context
        assert sim_on.state.rf == sim_off.state.rf, context
        assert sim_on.state.sr == sim_off.state.sr, context
        snap_on = sim_on.state.mem.snapshot()
        snap_off = sim_off.state.mem.snapshot()
        assert snap_on == snap_off, f"{context}: memory diverged"


@pytest.mark.parametrize("isa", ISAS)
def test_on_off_equivalence_all_block_buildsets(isa):
    assert_matches_default(isa, OFF)


@pytest.mark.parametrize("isa", ISAS)
def test_regcache_off_equivalence_all_block_buildsets(isa):
    assert_matches_default(isa, NO_REGCACHE)

"""The zero-overhead-when-off guarantee, checked structurally.

The acceptance bar for the observability subsystem is that the default
(disabled) configuration regenerates exactly the seed's code: no probe
statements in generated entrypoints, no wrapper around the block
dispatch loop, identical translated block bodies.  Structural equality
of the generated artifacts is a stronger (and noise-free) check than a
wall-clock comparison.
"""

import dis

import pytest

from repro.isa.base import get_bundle
from repro.obs import make_observability
from repro.synth import SynthOptions, synthesize
from repro.synth.runtime import SynthesizedSimulator
from repro.sysemu.loader import load_image
from repro.sysemu.syscalls import OSEmulator
from repro.workloads.suite import assemble_kernel
from repro.workloads.kernels import SUITE


def _bytecode_len(fn) -> int:
    return sum(1 for _ in dis.get_instructions(fn.__code__))


@pytest.fixture(scope="module")
def alpha_spec():
    return get_bundle("alpha").load_spec()


class TestGeneratedModules:
    @pytest.mark.parametrize("buildset", ["one_min", "one_all", "step_all"])
    def test_disabled_source_has_no_probes(self, alpha_spec, buildset):
        off = synthesize(alpha_spec, buildset)  # defaults: observe=False
        on = synthesize(alpha_spec, buildset, SynthOptions(observe=True))
        assert "_obs_ep" not in off.source
        assert "_obs_ep" in on.source

    @pytest.mark.parametrize("buildset", ["one_min", "step_all"])
    def test_disabled_entrypoints_add_no_bytecode(self, alpha_spec, buildset):
        """Disabled synthesis is deterministic (== seed output) and the
        observe probe is the only bytecode difference when enabled."""
        off = synthesize(alpha_spec, buildset)
        off_again = synthesize(alpha_spec, buildset)
        on = synthesize(alpha_spec, buildset, SynthOptions(observe=True))
        assert off.source == off_again.source
        for name in off.entry_names:
            off_len = _bytecode_len(off.namespace[name])
            on_len = _bytecode_len(on.namespace[name])
            assert off_len == _bytecode_len(off_again.namespace[name])
            assert off_len < on_len


class TestTraceProbes:
    @pytest.mark.parametrize("buildset", ["one_min", "step_all"])
    def test_disabled_source_has_no_prof_probes(self, alpha_spec, buildset):
        off = synthesize(alpha_spec, buildset)  # defaults: observe=False
        on = synthesize(alpha_spec, buildset, SynthOptions(observe=True))
        assert "_prof_hits" not in off.source
        assert "_prof_hits" in on.source

    def test_trace_probe_is_bytecode_additive_only(self, alpha_spec):
        """Stripping the two probe families from the observe-on source
        gives back the observe-off source exactly."""
        off = synthesize(alpha_spec, "one_min")
        on = synthesize(alpha_spec, "one_min", SynthOptions(observe=True))
        probes = ("self._obs_ep[", "_ph = self._prof_hits", "_ph[pc] = ")
        probe_free = "".join(
            line
            for line in on.source.splitlines(keepends=True)
            if not any(probe in line for probe in probes)
        )
        assert probe_free == off.source

    def test_observe_emits_both_probe_families(self, alpha_spec):
        on = synthesize(alpha_spec, "one_min", SynthOptions(observe=True))
        assert "_obs_ep" in on.source
        assert "_prof_hits" in on.source


class TestBlockPath:
    def test_disabled_do_block_is_the_plain_method(self, alpha_spec):
        generated = synthesize(alpha_spec, "block_min")
        sim = generated.make()
        # No per-instance override: the dispatch loop calls the original,
        # probe-free method, so Table II block_min speed is untouched.
        assert "do_block" not in sim.__dict__
        assert type(sim).do_block is SynthesizedSimulator.do_block

    def test_enabled_do_block_is_the_observed_variant(self, alpha_spec):
        generated = synthesize(
            alpha_spec, "block_min", SynthOptions(observe=True)
        )
        sim = generated.make(obs=make_observability())
        assert (
            sim.do_block.__func__
            is SynthesizedSimulator._do_block_instrumented
        )

    def test_unprofiled_instance_binds_no_profiled_twins(self, alpha_spec):
        generated = synthesize(alpha_spec, "block_min")
        sim = generated.make()
        for name in ("do_block", "run", "_chain_link", "_do_syscall",
                     "rollback"):
            assert name not in sim.__dict__

    def test_profiled_instance_binds_the_profiled_dispatch(self, alpha_spec):
        generated = synthesize(
            alpha_spec, "block_min", SynthOptions(observe=True)
        )
        sim = generated.make(obs=make_observability())
        # one instrumented loop, and span-timed wrappers bound per instance
        assert (
            sim.do_block.__func__
            is SynthesizedSimulator._do_block_instrumented
        )
        for name in ("run", "_chain_link", "_do_syscall", "rollback"):
            assert name in sim.__dict__
            assert not hasattr(sim.__dict__[name], "__func__")

    def test_translated_blocks_identical_on_and_off(self, alpha_spec):
        """Per-block-execution cost is unchanged: probes live outside the
        translated function, so its source is byte-identical either way."""
        image = assemble_kernel("alpha", SUITE["fib"], 5)
        sources = {}
        configs = {
            "off": (SynthOptions(), make_observability(enabled=False)),
            # instrumentation times around the unit call, never inside it
            "observed": (SynthOptions(observe=True), make_observability()),
        }
        for label, (options, obs) in configs.items():
            generated = synthesize(alpha_spec, "block_min", options)
            os_emu = OSEmulator(get_bundle("alpha").abi, obs=obs)
            sim = generated.make(syscall_handler=os_emu, obs=obs)
            load_image(sim.state, image, get_bundle("alpha").abi)
            sim.run(50)
            pc = next(iter(sim._cache))
            sources[label] = sim.block_source(pc)
        assert sources["off"] == sources["observed"]

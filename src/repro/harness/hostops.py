"""Table III: costs of detail in host operations per simulated instruction.

The paper counts host instructions; our host is the CPython VM, so the
unit is executed Python bytecode operations.  :class:`HostOpMeter`
counts every opcode that actually runs in generated code (synthesized
modules and translated units) and in the :mod:`repro.arch.memory`
primitives that code calls, so a side exit that leaves a unit early is
charged only for the bytecode it ran.  Translation is metered apart
from execution: each unit translated under the meter costs
``TRANSLATE_COST_FACTOR`` times its static bytecode length, once.  The
table's derived rows match the paper's: a base cost (One/Min/No) and
incremental costs of decode information, full information, block-call
batching (negative: block interfaces are cheaper), multiple calls per
instruction, and speculation support.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass
from types import CodeType

from repro.arch.memory import Memory
from repro.check.costmodel import _static_cost
from repro.isa.base import get_bundle
from repro.synth import SynthOptions, synthesize
from repro.synth.synthesizer import SYNTH_FILE_PREFIX
from repro.synth.translator import BLOCK_FILE_PREFIX
from repro.sysemu.loader import load_image
from repro.sysemu.syscalls import OSEmulator
from repro.workloads import SUITE, assemble_kernel

PROFILE_KERNELS = ("checksum", "sieve", "memcopy")

#: Host ops charged per static op for the one-time act of translating a
#: unit; amortized over its executions exactly as the paper amortizes
#: its binary-translation cost into Table III.
TRANSLATE_COST_FACTOR = 30

_GENERATED_PREFIXES = (SYNTH_FILE_PREFIX, BLOCK_FILE_PREFIX)
_MEMORY_FILE = Memory.read.__code__.co_filename


class HostOpMeter:
    """Count the host ops executed while the context is active.

    A ``sys.settrace`` hook turns on opcode events only for frames of
    generated code and for :mod:`repro.arch.memory` frames called from
    it (directly or through other memory frames); every other frame runs
    untraced.  ``ops`` accumulates one per executed opcode plus the
    translation charge of each unit translated while the meter is on.
    The previously installed tracer is restored on exit.
    """

    def __init__(self) -> None:
        self.ops = 0

    def __enter__(self) -> HostOpMeter:
        self._previous = sys.gettrace()
        sys.settrace(self._on_call)
        return self

    def __exit__(self, *exc) -> None:
        sys.settrace(self._previous)

    def _on_call(self, frame, event, arg):
        code = frame.f_code
        filename = code.co_filename
        if filename.startswith(_GENERATED_PREFIXES):
            if code.co_name == "<module>":
                # A translated unit's module body runs once, when the
                # unit is translated: charge the translation there.
                if filename.startswith(BLOCK_FILE_PREFIX):
                    self.ops += TRANSLATE_COST_FACTOR * sum(
                        _static_cost(const)
                        for const in code.co_consts
                        if isinstance(const, CodeType)
                    )
                return None
        elif filename != _MEMORY_FILE or not _is_metered(frame.f_back):
            return None
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return self._on_opcode

    def _on_opcode(self, frame, event, arg):
        if event == "opcode":
            self.ops += 1
        return self._on_opcode


def _is_metered(frame) -> bool:
    """Generated frames and memory frames they call have opcode events."""
    return frame is not None and frame.f_trace_opcodes


def hostops_per_instruction(
    isa: str,
    buildset: str,
    kernels=PROFILE_KERNELS,
    scale: float = 1.0,
    options: SynthOptions | None = None,
) -> float:
    """Mean host ops per simulated instruction over the given kernels."""
    bundle = get_bundle(isa)
    generated = synthesize(bundle.load_spec(), buildset, options or SynthOptions())
    total_ops = 0
    total_instructions = 0
    for name in kernels:
        spec = SUITE[name]
        n = max(2, int(spec.test_n * scale))
        if name == "listsum":
            while math.gcd(n, 7) != 1:
                n += 1
        image = assemble_kernel(isa, spec, n)
        sim = generated.make(syscall_handler=OSEmulator(bundle.abi))
        load_image(sim.state, image, bundle.abi)
        with HostOpMeter() as meter:
            result = sim.run(50_000_000)
        if not result.exited:
            raise RuntimeError(f"{isa}/{name}: did not finish")
        total_ops += meter.ops
        total_instructions += result.executed
    return total_ops / total_instructions


@dataclass
class CostsOfDetail:
    """One column of Table III."""

    isa: str
    base: float  # One/Min/No
    incr_decode_info: float
    incr_full_info: float
    incr_block_call: float  # negative: batching wins
    incr_multiple_calls: float
    incr_speculation: float

    @classmethod
    def measure(cls, isa: str, kernels=PROFILE_KERNELS, scale: float = 1.0):
        cost = {
            name: hostops_per_instruction(isa, name, kernels, scale)
            for name in (
                "one_min",
                "one_decode",
                "one_all",
                "one_all_spec",
                "block_min",
                "step_all",
            )
        }
        return cls(
            isa=isa,
            base=cost["one_min"],
            incr_decode_info=cost["one_decode"] - cost["one_min"],
            incr_full_info=cost["one_all"] - cost["one_min"],
            incr_block_call=cost["block_min"] - cost["one_min"],
            incr_multiple_calls=cost["step_all"] - cost["one_all"],
            incr_speculation=cost["one_all_spec"] - cost["one_all"],
        )


def table3(isas=("alpha", "arm", "ppc"), scale: float | None = None):
    if scale is None:
        scale = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
    return [CostsOfDetail.measure(isa, scale=scale) for isa in isas]

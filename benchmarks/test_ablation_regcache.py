"""Experiment A2 — ablation: cross-instruction register caching off.

Paper SV-E attributes the Block-level win to optimization scope: "if a
simulated register value is generated in one simulated instruction and
used in a later instruction, the binary translator may register-allocate
the value."  Disabling our translator's register cache must increase the
host work per instruction (measured deterministically in bytecode ops)
and must not change architectural results.
"""

from repro.harness import measure_buildset, render_table
from repro.harness.hostops import hostops_per_instruction
from repro.synth import SynthOptions


def test_regcache_ablation(benchmark, publish, publish_json):
    def measure():
        return {
            "ops_on": hostops_per_instruction("alpha", "block_min"),
            "ops_off": hostops_per_instruction(
                "alpha", "block_min",
                options=SynthOptions(regcache=False),
            ),
            "mips_on": measure_buildset("alpha", "block_min").mips,
            "mips_off": measure_buildset(
                "alpha", "block_min", options=SynthOptions(regcache=False)
            ).mips,
        }

    results = benchmark.pedantic(measure, rounds=1, iterations=1)
    publish_json(
        "A2",
        {
            "experiment": "ablation_regcache",
            "unit": "host ops/instr (hostops) and geomean MIPS (mips)",
            "hostops": {"on": results["ops_on"], "off": results["ops_off"]},
            "mips": {"on": results["mips_on"], "off": results["mips_off"]},
        },
    )
    rows = [
        ["on", round(results["ops_on"], 1), round(results["mips_on"], 3)],
        ["off", round(results["ops_off"], 1), round(results["mips_off"], 3)],
    ]
    publish(
        "ablation_regcache",
        render_table(
            "Ablation A2: block register caching (Alpha, Block/Min)",
            ["Register caching", "host ops/instr", "MIPS"],
            rows,
            float_format="{:.3f}",
        ),
    )
    ops_saved = results["ops_off"] - results["ops_on"]
    print(f"\nregister caching saves {ops_saved:.1f} host ops/instruction; "
          f"wall-clock {results['mips_on'] / results['mips_off']:.2f}x")
    # The deterministic host-work win is real but modest in our setting:
    # most of the Block-level advantage comes from dispatch elimination
    # and decode-time constant folding (see EXPERIMENTS.md A2 discussion).
    assert ops_saved > 0.5
    if results["mips_on"] <= results["mips_off"] * 0.85:
        # wall-clock is noisy on shared machines: re-measure head-to-head
        again_on = measure_buildset("alpha", "block_min").mips
        again_off = measure_buildset(
            "alpha", "block_min", options=SynthOptions(regcache=False)
        ).mips
        assert again_on > again_off * 0.85
"""Experiment A1 — ablation: dead-code elimination off.

DESIGN.md section 3.2 claims the synthesizer's DCE is the mechanism that
makes hidden information free ("computation of information which is not
actually needed ... becomes dead code", paper SIV-A).  The effect is
strongest at Block detail, where decode-time constant propagation leaves
whole chains of dead assignments behind; at One detail on these RISC
subsets nearly every computed value doubles as semantics, so the saving
is small — an honest negative result recorded in EXPERIMENTS.md.
"""

from repro.harness import measure_buildset, render_table
from repro.harness.hostops import hostops_per_instruction
from repro.synth import SynthOptions


def test_dce_ablation(benchmark, publish, publish_json):
    def measure():
        out = {}
        for buildset in ("block_min", "one_min"):
            out[(buildset, True)] = hostops_per_instruction("alpha", buildset)
            out[(buildset, False)] = hostops_per_instruction(
                "alpha", buildset, options=SynthOptions(dce=False)
            )
        out["mips_on"] = measure_buildset("alpha", "block_min").mips
        out["mips_off"] = measure_buildset(
            "alpha", "block_min", options=SynthOptions(dce=False)
        ).mips
        return out

    results = benchmark.pedantic(measure, rounds=1, iterations=1)
    publish_json(
        "A1",
        {
            "experiment": "ablation_dce",
            "unit": "host ops/instr (hostops) and geomean MIPS (mips)",
            "hostops": {
                "block_min": {
                    "dce_on": results[("block_min", True)],
                    "dce_off": results[("block_min", False)],
                },
                "one_min": {
                    "dce_on": results[("one_min", True)],
                    "dce_off": results[("one_min", False)],
                },
            },
            "mips": {
                "block_min_dce_on": results["mips_on"],
                "block_min_dce_off": results["mips_off"],
            },
        },
    )
    rows = [
        ["block_min", "on", round(results[("block_min", True)], 1)],
        ["block_min", "off", round(results[("block_min", False)], 1)],
        ["one_min", "on", round(results[("one_min", True)], 1)],
        ["one_min", "off", round(results[("one_min", False)], 1)],
    ]
    publish(
        "ablation_dce",
        render_table(
            "Ablation A1: dead-code elimination (Alpha, host ops/instr)",
            ["Interface", "DCE", "host ops/instr"],
            rows,
            float_format="{:.1f}",
        ),
    )
    block_saved = results[("block_min", False)] - results[("block_min", True)]
    one_saved = results[("one_min", False)] - results[("one_min", True)]
    mips_gain = results["mips_on"] / results["mips_off"]
    print(
        f"\nDCE saves {block_saved:.1f} ops/instr at Block/Min "
        f"({mips_gain:.2f}x MIPS) and {one_saved:.1f} at One/Min"
    )
    assert block_saved > 20  # the translator relies on DCE heavily
    assert one_saved >= 0  # never hurts
    assert mips_gain > 1.3

"""Unit tests for the static host-op cost model.

The sign-agreement comparison against *measured* Table III deltas lives
in benchmarks/test_check_costmodel.py (it runs workloads); these
tests pin the model's spec-derived structure, which needs no execution.
"""

import pytest

from repro.check.costmodel import (
    DELTA_ROWS,
    cost_report,
    instruction_weights,
    predict_costs,
    predict_spec,
)


class TestWeights:
    def test_weights_are_a_distribution(self, toy_spec):
        weights = instruction_weights(toy_spec)
        assert set(weights) == {i.name for i in toy_spec.instructions}
        assert all(w > 0 for w in weights.values())
        assert sum(weights.values()) == pytest.approx(1.0)

    def test_weights_follow_decode_space_occupancy(self, toy_spec):
        """Instructions with looser patterns get proportionally more
        weight — the spec-derived stand-in for dynamic frequency."""
        weights = instruction_weights(toy_spec)
        word_bits = toy_spec.ilen * 8
        for instr in toy_spec.instructions:
            free = sum(
                2.0 ** (word_bits - bin(mask).count("1"))
                for mask, _value in instr.patterns
            )
            for other in toy_spec.instructions:
                other_free = sum(
                    2.0 ** (word_bits - bin(mask).count("1"))
                    for mask, _value in other.patterns
                )
                if free > other_free:
                    assert weights[instr.name] > weights[other.name]


class TestPredictions:
    def test_prediction_parts_are_positive(self, gen_one_all):
        prediction = predict_costs(gen_one_all)
        assert prediction.entry_cost > 0
        assert prediction.body_cost > 0
        assert prediction.total == pytest.approx(
            prediction.entry_cost + prediction.body_cost
        )

    def test_more_information_predicts_more_host_ops(
        self, gen_one_min, gen_one_all
    ):
        assert predict_costs(gen_one_all).total > predict_costs(gen_one_min).total

    def test_multiple_calls_predict_more_host_ops(
        self, gen_one_all, gen_step_all
    ):
        assert (
            predict_costs(gen_step_all).total > predict_costs(gen_one_all).total
        )

    def test_speculation_predicts_more_host_ops(
        self, gen_one_all, gen_one_all_spec
    ):
        assert (
            predict_costs(gen_one_all_spec).total
            > predict_costs(gen_one_all).total
        )

    def test_block_buildsets_are_skipped(self, toy_spec):
        predictions = predict_spec(toy_spec)
        assert "block_min" not in predictions
        assert "one_all" in predictions


class TestBlockPrediction:
    def test_block_priced_below_one_min(self):
        """Table III's direction for the Block level: the translated
        units (superblocks, chained exits) amortize to far fewer host
        ops per instruction than the cheapest One interface."""
        from repro.check.costmodel import predict_block_costs
        from repro.isa.base import get_bundle
        from repro.synth import synthesize
        from repro.workloads import SUITE, assemble_kernel

        bundle = get_bundle("alpha")
        spec = bundle.load_spec()
        image = assemble_kernel("alpha", SUITE["checksum"], 4)
        block = predict_block_costs(
            synthesize(spec, "block_min"), image, bundle.abi
        )
        assert block.entry_cost == 0.0  # dispatch amortizes under chaining
        assert block.body_cost > 0
        one = predict_costs(synthesize(spec, "one_min"))
        assert block.total < one.total


class TestReport:
    def test_report_shape(self):
        report = cost_report("alpha")
        assert report["isa"] == "alpha"
        assert set(report["deltas"]) == {row[0] for row in DELTA_ROWS}
        for cost in report["predictions"].values():
            assert cost["total"] == pytest.approx(
                cost["entry"] + cost["body"], abs=0.02
            )

    def test_all_table3_deltas_predicted_positive(self):
        """The paper's qualitative claim, statically recovered: every
        step up in detail costs host work (block is runtime-translated
        and excluded)."""
        deltas = cost_report("alpha")["deltas"]
        assert all(value > 0 for value in deltas.values())

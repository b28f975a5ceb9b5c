"""Static host-op cost model for synthesized interfaces.

The paper's Table III measures the *costs of detail*: how many extra
host operations per guest instruction each step up in semantic,
informational, or speculative detail buys.  The measured numbers come
from :mod:`repro.harness.hostops`, which counts the bytecode that
actually executes in generated code and the memory primitives it calls.
This module predicts the same quantities *statically*, from the
generated modules alone:

* every interface entry function executes once per guest instruction,
  so its full static bytecode length is charged;
* each per-instruction body is charged weighted by how often its
  instruction is expected to execute — with no workload in hand, the
  weight of an instruction is the fraction of the decode space its
  patterns occupy (``2**free_bits`` per pattern, normalized), a crude
  but spec-derived proxy for dynamic frequency;
* memory primitive calls (``__mem.read`` / ``__mem.write``) execute
  host ops *inside* the runtime, invisible to the module's own
  bytecode, so each static call site is charged the primitive's
  bytecode length.

The absolute numbers are not the point — the *deltas* between sibling
interfaces are, and :func:`cost_report` lays them out the way Table III
does (decode-, full-, multi-call- and speculation-detail increments).
``benchmarks/test_check_costmodel.py`` confirms the predicted deltas
agree in sign with the measured ones.
"""

from __future__ import annotations

import dis
from dataclasses import dataclass, field as dc_field
from types import CodeType

from repro.arch.memory import Memory
from repro.check.model import ModuleModel, calls

#: Table III rows: (label, minuend buildset, subtrahend buildset).
DELTA_ROWS = (
    ("decode", "one_decode", "one_min"),
    ("full", "one_all", "one_min"),
    ("multi_call", "step_all", "one_all"),
    ("speculation", "one_all_spec", "one_all"),
)


@dataclass
class CostPrediction:
    """Static host-ops-per-instruction estimate for one interface."""

    isa: str
    buildset: str
    #: once-per-instruction cost of the entry functions
    entry_cost: float
    #: decode-weighted mean cost of the per-instruction bodies
    body_cost: float
    #: per-instruction weights used for the body mean
    weights: dict[str, float] = dc_field(default_factory=dict, repr=False)

    @property
    def total(self) -> float:
        return self.entry_cost + self.body_cost


def _static_cost(code: CodeType) -> int:
    """Static bytecode length: our proxy for host instructions."""
    return sum(1 for _ in dis.get_instructions(code))


#: static cost charged per ``__mem.read`` / ``__mem.write`` call site
MEM_READ_COST = _static_cost(Memory.read.__code__)
MEM_WRITE_COST = _static_cost(Memory.write.__code__)


def instruction_weights(spec) -> dict[str, float]:
    """Decode-space occupancy as a proxy for dynamic frequency.

    Each pattern matches ``2**free_bits`` encodings (free = bits the
    mask leaves unconstrained); an instruction's weight is its share of
    the total matched space.  Purely spec-derived: no workload needed.
    """
    word_bits = spec.ilen * 8
    raw: dict[str, float] = {}
    for instr in spec.instructions:
        size = 0.0
        for mask, _value in instr.patterns:
            free = word_bits - bin(mask).count("1")
            size += 2.0 ** free
        raw[instr.name] = size
    total = sum(raw.values()) or 1.0
    return {name: size / total for name, size in raw.items()}


def predict_costs(generated) -> CostPrediction:
    """Predict one interface's static host-ops-per-instruction."""
    model = ModuleModel.build(generated)
    spec = generated.plan.spec
    weights = instruction_weights(spec)
    namespace = generated.namespace

    def cost_of(fn_model) -> float:
        fn = namespace.get(fn_model.name)
        if fn is None:
            return 0.0
        cost = float(_static_cost(fn.__code__))
        for name, _node in calls(fn_model.node):
            if name == "__mem.read":
                cost += MEM_READ_COST
            elif name == "__mem.write":
                cost += MEM_WRITE_COST
        return cost

    entry_cost = sum(cost_of(fn) for fn in model.entry_functions())
    body_cost = 0.0
    for index, instr in enumerate(spec.instructions):
        bodies = model.functions_of_instruction(index)
        if bodies:
            body_cost += weights[instr.name] * sum(
                cost_of(fn) for fn in bodies
            )
    return CostPrediction(
        isa=spec.name,
        buildset=generated.plan.buildset.name,
        entry_cost=entry_cost,
        body_cost=body_cost,
        weights=weights,
    )


def predict_block_costs(generated, image, abi) -> CostPrediction:
    """Predict a Block interface's host-ops-per-instruction over an image.

    Block bodies exist only after run-time translation, so the static
    module has nothing to measure; instead the translated units reachable
    from ``image``'s entry are walked (:mod:`repro.check.blockwalk`) and
    each unit's compiled bytecode length — plus the memory-primitive
    charges the One/Step model applies — is amortized over the unit's
    instruction count.  Units are weighted by their length: a superblock
    that covers more of the program also covers more of its execution, a
    workload-free proxy in the same spirit as the decode-space weights.
    """
    import ast as _ast

    from repro.check.blockwalk import walk_units

    spec = generated.plan.spec
    total_cost = 0.0
    total_instructions = 0
    for unit in walk_units(generated, image, abi):
        code = compile(unit.source, f"<unit {unit.pc:#x}>", "exec")
        unit_cost = float(
            sum(_static_cost(c) for c in code.co_consts if isinstance(c, CodeType))
        )
        for node in _ast.walk(_ast.parse(unit.source)):
            if (
                isinstance(node, _ast.Call)
                and isinstance(node.func, _ast.Attribute)
                and isinstance(node.func.value, _ast.Name)
                and node.func.value.id == "__mem"
            ):
                if node.func.attr.startswith("read"):
                    unit_cost += MEM_READ_COST
                elif node.func.attr.startswith("write"):
                    unit_cost += MEM_WRITE_COST
        total_cost += unit_cost
        total_instructions += unit.length
    body_cost = total_cost / total_instructions if total_instructions else 0.0
    return CostPrediction(
        isa=spec.name,
        buildset=generated.plan.buildset.name,
        entry_cost=0.0,  # do_block dispatch amortizes away under chaining
        body_cost=body_cost,
        weights={},
    )


def predict_spec(spec, buildsets=None) -> dict[str, CostPrediction]:
    """Predictions for every One/Step buildset of a spec.

    Block interfaces are skipped here: their bodies are translated at
    run time, so they need a workload image — see
    :func:`predict_block_costs`.
    """
    from repro.synth import SynthOptions, synthesize

    out: dict[str, CostPrediction] = {}
    names = list(buildsets) if buildsets is not None else sorted(spec.buildsets)
    for name in names:
        if spec.buildsets[name].semantic_detail == "block":
            continue
        out[name] = predict_costs(synthesize(spec, name, SynthOptions()))
    return out


def cost_report(isa: str) -> dict:
    """Predicted per-interface costs and Table III-style deltas."""
    from repro.isa.base import get_bundle

    spec = get_bundle(isa).load_spec()
    predictions = predict_spec(spec)
    deltas = {}
    for label, minuend, subtrahend in DELTA_ROWS:
        if minuend in predictions and subtrahend in predictions:
            deltas[label] = round(
                predictions[minuend].total - predictions[subtrahend].total, 2
            )
    return {
        "isa": isa,
        "model": "static bytecode length, decode-space-weighted",
        "predictions": {
            name: {
                "entry": round(p.entry_cost, 2),
                "body": round(p.body_cost, 2),
                "total": round(p.total, 2),
            }
            for name, p in sorted(predictions.items())
        },
        "deltas": deltas,
    }


def compare_with_measured(isa: str, measured: dict[str, float]) -> dict:
    """Sign-agreement report: static prediction vs measured Table III.

    ``measured`` maps delta labels (see :data:`DELTA_ROWS`) to measured
    host-op deltas from :class:`repro.harness.hostops.CostsOfDetail`.
    """
    predicted = cost_report(isa)["deltas"]
    rows = {}
    agreements = 0
    comparable = 0
    for label, value in predicted.items():
        if label not in measured:
            continue
        comparable += 1
        agree = (value > 0) == (measured[label] > 0)
        agreements += agree
        rows[label] = {
            "predicted": value,
            "measured": round(measured[label], 2),
            "sign_agreement": agree,
        }
    return {
        "isa": isa,
        "rows": rows,
        "agreements": agreements,
        "comparable": comparable,
    }

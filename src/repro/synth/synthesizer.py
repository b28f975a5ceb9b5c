"""Public synthesis API: (IsaSpec, buildset) -> executable simulator.

``synthesize(spec, "one_all")`` compiles a generated module once; its
result can then stamp out any number of independent simulator instances
(:meth:`GeneratedSimulator.make`), each with its own architectural state
and code cache.
"""

from __future__ import annotations

import dis
import re
from dataclasses import dataclass, field

from repro.adl.spec import IsaSpec
from repro.arch.faults import ExitProgram, Fault, IllegalInstruction
from repro.arch.memory import Memory
from repro.ops import PURE_NAMESPACE
from repro.synth.codegen import (
    BuildPlan,
    SynthOptions,
    decode_tables,
    emit_dyninst_class,
    generate_one_module,
    generate_step_module,
    make_plan,
    SourceWriter,
)
from repro.synth.errors import SynthesisError
from repro.synth.runtime import SynthesizedSimulator


def _static_cost(fn) -> int:
    """Static bytecode length: our proxy for host instructions."""
    return sum(1 for _ in dis.get_instructions(fn.__code__))


@dataclass
class GeneratedSimulator:
    """A compiled simulator module for one (spec, buildset) pair."""

    plan: BuildPlan
    source: str
    namespace: dict = field(repr=False)
    entry_names: tuple[str, ...]
    di_class: type
    mem_read_cost: int = 0
    mem_write_cost: int = 0

    def make(
        self, state=None, syscall_handler=None, obs=None
    ) -> SynthesizedSimulator:
        """Instantiate a runnable simulator.

        ``obs`` is an :class:`repro.obs.Observability` to aggregate this
        instance's runtime statistics into; omit it (the default null
        instance) for zero-overhead execution.
        """
        return SynthesizedSimulator(self, state, syscall_handler, obs)

    @property
    def spec(self) -> IsaSpec:
        return self.plan.spec

    @property
    def buildset_name(self) -> str:
        return self.plan.buildset.name


def _base_namespace(spec: IsaSpec) -> dict:
    namespace: dict = {"__builtins__": __builtins__}
    namespace.update(PURE_NAMESPACE)
    namespace.update(spec.helpers)
    namespace["IllegalInstruction"] = IllegalInstruction
    namespace["ExitProgram"] = ExitProgram
    namespace["Fault"] = Fault
    return namespace


def _generate_block_module(plan: BuildPlan) -> str:
    """Block buildsets generate code lazily; the module only holds DynInst."""
    writer = SourceWriter()
    writer.line(
        f'"""Synthesized simulator: {plan.spec.name}/{plan.buildset.name} (block)."""'
    )
    writer.line()
    # ``budget`` is block-only: translated units decrement it so chained
    # execution respects the run driver's instruction limit.
    emit_dyninst_class(writer, plan, carry_slots=[], extra_slots=("budget",))
    writer.line("ENTRYPOINTS = ('do_block',)")
    return writer.source()


#: unresolved static-cost placeholders (also matched by ``repro check``'s
#: CHK041 residue pass)
COST_PLACEHOLDER = re.compile(
    r"__(?:EP_COST(?:_\d+)?|BODY_COST_\d+|SBODY_COST_\d+_\d+)__"
)


def _resolve_profile_placeholders(source: str, namespace: dict) -> str:
    """Replace cost placeholders with measured static bytecode counts.

    The module is compiled once with placeholders treated as globals (they
    are never executed), each generated function is measured with ``dis``,
    and the source is re-rendered with literal costs.
    """
    fn_costs = {
        name: _static_cost(obj)
        for name, obj in namespace.items()
        if callable(obj) and hasattr(obj, "__code__")
    }

    def replace(match: re.Match) -> str:
        token = match.group(0)
        if token == "__EP_COST__":
            # single-entry (One) module: cost of its entry function
            entries = namespace.get("ENTRYPOINTS", ())
            return str(fn_costs.get(entries[0], 0))
        body = re.fullmatch(r"__BODY_COST_(\d+)__", token)
        if body:
            return str(fn_costs.get(f"_b_{body.group(1)}", 0))
        ep = re.fullmatch(r"__EP_COST_(\d+)__", token)
        if ep:
            entries = namespace.get("ENTRYPOINTS", ())
            return str(fn_costs.get(entries[int(ep.group(1))], 0))
        sbody = re.fullmatch(r"__SBODY_COST_(\d+)_(\d+)__", token)
        if sbody:
            return str(fn_costs.get(f"_sb_{sbody.group(1)}_{sbody.group(2)}", 0))
        return "0"  # pragma: no cover

    return COST_PLACEHOLDER.sub(replace, source)


def synthesize(
    spec: IsaSpec,
    buildset_name: str,
    options: SynthOptions | None = None,
    *,
    strict: bool = False,
) -> GeneratedSimulator:
    """Synthesize a functional simulator for one interface definition.

    Parameters
    ----------
    spec:
        The analyzed single specification.
    buildset_name:
        Which of the spec's buildsets (interfaces) to generate.
    options:
        Ablation/measurement knobs (DCE, register caching, profiling).
    strict:
        Run the specification linter first and refuse to synthesize while
        any unsuppressed error-severity diagnostic stands; then run the
        generated-code checker (:mod:`repro.check`) over the synthesized
        module and refuse if the translation itself is invalid.
    """
    if buildset_name not in spec.buildsets:
        raise SynthesisError(
            f"spec {spec.name!r} has no buildset {buildset_name!r}; "
            f"available: {sorted(spec.buildsets)}"
        )
    if strict:
        # Imported lazily: repro.lint pulls in the ADL front end, which the
        # synthesizer itself never needs.
        from repro.lint.runner import lint_analyzed_spec

        result = lint_analyzed_spec(spec)
        if result.errors:
            first = result.errors[0]
            raise SynthesisError(
                f"strict synthesis refused: {len(result.errors)} unsuppressed "
                f"lint error(s), first: {first.code}: {first.message}"
            )
    buildset = spec.buildsets[buildset_name]
    options = options or SynthOptions()
    plan = make_plan(spec, buildset, options)

    detail = buildset.semantic_detail
    if detail == "block":
        source = _generate_block_module(plan)
    elif detail == "one":
        source = generate_one_module(plan)
    else:
        source = generate_step_module(plan)

    namespace = _base_namespace(spec)
    for table_name, table in decode_tables(plan).items():
        namespace[table_name] = table
    exec(compile(source, f"<synth {spec.name}/{buildset_name}>", "exec"), namespace)
    _bind_body_tables(plan, namespace)

    if options.profile and detail != "block":
        source = _resolve_profile_placeholders(source, namespace)
        namespace = _base_namespace(spec)
        for table_name, table in decode_tables(plan).items():
            namespace[table_name] = table
        exec(
            compile(source, f"<synth {spec.name}/{buildset_name}>", "exec"), namespace
        )
        _bind_body_tables(plan, namespace)

    entry_names = tuple(namespace["ENTRYPOINTS"])
    generated = GeneratedSimulator(
        plan=plan,
        source=source,
        namespace=namespace,
        entry_names=entry_names if detail != "block" else ("do_block",),
        di_class=namespace["DynInst"],
        mem_read_cost=_static_cost(Memory.read),
        mem_write_cost=_static_cost(Memory.write),
    )
    if strict:
        # Translation validation (lazy import: repro.check imports this
        # module's products, not the other way around).
        from repro.check.runner import check_generated

        check = check_generated(generated)
        if check.errors:
            first = check.errors[0]
            raise SynthesisError(
                f"strict synthesis refused: generated module failed "
                f"validation with {len(check.errors)} error(s), first: "
                f"{first.code}: {first.message}"
            )
    return generated


def _bind_body_tables(plan: BuildPlan, namespace: dict) -> None:
    """Build the per-instruction dispatch tables referenced by entries."""
    n = len(plan.spec.instructions)
    if plan.buildset.semantic_detail == "one":
        namespace["_B"] = tuple(namespace[f"_b_{i}"] for i in range(n))

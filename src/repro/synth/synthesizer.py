"""Public synthesis API: (IsaSpec, buildset) -> executable simulator.

``synthesize(spec, "one_all")`` compiles a generated module once; its
result can then stamp out any number of independent simulator instances
(:meth:`GeneratedSimulator.make`), each with its own architectural state
and code cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.adl.spec import IsaSpec
from repro.arch.faults import ExitProgram, Fault, IllegalInstruction
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


#: filename prefix of every synthesized module's code objects
SYNTH_FILE_PREFIX = "<synth "


@dataclass
class GeneratedSimulator:
    """A compiled simulator module for one (spec, buildset) pair."""

    plan: BuildPlan
    source: str
    namespace: dict = field(repr=False)
    entry_names: tuple[str, ...]
    di_class: type

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
        Ablation/measurement knobs (DCE, register caching, probes).
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
    filename = f"{SYNTH_FILE_PREFIX}{spec.name}/{buildset_name}>"
    exec(compile(source, filename, "exec"), namespace)
    _bind_body_tables(plan, namespace)

    entry_names = tuple(namespace["ENTRYPOINTS"])
    generated = GeneratedSimulator(
        plan=plan,
        source=source,
        namespace=namespace,
        entry_names=entry_names if detail != "block" else ("do_block",),
        di_class=namespace["DynInst"],
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

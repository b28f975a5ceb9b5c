"""Lint orchestration: sources -> declarations -> spec -> diagnostics.

Three entry points:

* :func:`lint_paths` — what ``repro lint <isa>`` uses: parse + analyze a
  set of ``.lis`` files and run every pass.
* :func:`lint_source` — same for one in-memory source (tests).
* :func:`lint_spec` — passes that need only the analyzed spec; this is
  the ``synthesize(strict=True)`` gate, which has no declarations left.

Declaration-level checks run first so that a spec the analyzer rejects
still yields located diagnostics; the analyzer itself runs with
``check_decode=False`` because the decode-space pass reports overlaps
with more nuance (LIS001/LIS002/LIS003) than the single hard error.
"""

from __future__ import annotations

from repro.adl import syntax as syn
from repro.adl.analyzer import analyze
from repro.adl.errors import ADLError
from repro.adl.parser import parse_source
from repro.adl.spec import IsaSpec
from repro.diag.suppress import SuppressionIndex
from repro.lint.buildsets import check_buildset_decls, check_buildsets
from repro.lint.core import Diagnostic, LintResult
from repro.lint.decode_space import check_decode_space
from repro.lint.hygiene import check_hygiene
from repro.lint.liveness import check_liveness
from repro.lint.speculation import check_speculation

_SPEC_PASSES = (
    check_decode_space,
    check_liveness,
    check_buildsets,
    check_speculation,
    check_hygiene,
)


def lint_spec(spec: IsaSpec) -> list[Diagnostic]:
    """Run every spec-level pass; unsorted, unsuppressed diagnostics."""
    diags: list[Diagnostic] = []
    for check in _SPEC_PASSES:
        diags.extend(check(spec))
    return diags


def lint_decls(
    decls: list[syn.Decl],
) -> tuple[list[Diagnostic], IsaSpec | None]:
    """Declaration checks, then analysis, then spec passes."""
    diags = check_buildset_decls(decls)
    try:
        spec = analyze(decls, check_decode=False)
    except ADLError as exc:
        if not any(d.severity.value == "error" for d in diags):
            diags.append(
                Diagnostic(
                    code="LIS000",
                    message=f"specification failed analysis: {exc.message}",
                    loc=exc.loc,
                )
            )
        return diags, None
    diags.extend(lint_spec(spec))
    return diags, spec


def _finish(
    paths: tuple[str, ...],
    diags: list[Diagnostic],
    suppressions: SuppressionIndex,
) -> LintResult:
    marked = suppressions.apply(diags)
    marked.sort(key=Diagnostic.sort_key)
    return LintResult(paths=paths, diagnostics=marked)


def lint_paths(paths: list[str]) -> LintResult:
    """Lint a set of ``.lis`` files (parsed in order, as ``load_isa`` does)."""
    decls: list[syn.Decl] = []
    sources: dict[str, str] = {}
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        sources[path] = text
        try:
            decls.extend(parse_source(text, path))
        except ADLError as exc:
            return _finish(
                tuple(paths),
                [_parse_failure(exc)],
                SuppressionIndex(sources),
            )
    diags, _spec = lint_decls(decls)
    return _finish(tuple(paths), diags, SuppressionIndex(sources))


def lint_source(text: str, filename: str = "<lint>") -> LintResult:
    """Lint one in-memory ADL source (unit tests and tooling)."""
    suppressions = SuppressionIndex({filename: text})
    try:
        decls = parse_source(text, filename)
    except ADLError as exc:
        return _finish((filename,), [_parse_failure(exc)], suppressions)
    diags, _spec = lint_decls(decls)
    return _finish((filename,), diags, suppressions)


def _parse_failure(exc: ADLError) -> Diagnostic:
    return Diagnostic(
        code="LIS000",
        message=f"specification failed to parse: {exc.message}",
        loc=exc.loc,
    )


def lint_analyzed_spec(spec: IsaSpec) -> LintResult:
    """Lint an already-analyzed spec (the ``synthesize(strict=True)`` gate).

    Suppressions still work: diagnostics carry source locations into the
    ``.lis`` files, and the index reads those files from disk on demand.
    """
    return _finish((spec.name,), lint_spec(spec), SuppressionIndex())

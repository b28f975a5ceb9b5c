"""Static analysis over LIS specifications.

The linter runs a suite of passes over the analyzed :class:`IsaSpec`
and its buildsets and reports :class:`Diagnostic` findings with stable
codes (``LIS001`` …), severities and source locations.  See
``docs/linting.md`` for the code catalogue.

Exports are resolved lazily (PEP 562) because :mod:`repro.adl.analyzer`
imports :mod:`repro.lint.decode` for its decode-conflict check — an
eager import of the runner here would close an import cycle.
"""

from __future__ import annotations

__all__ = [
    "CODES",
    "Diagnostic",
    "LintResult",
    "Severity",
    "lint_paths",
    "lint_source",
    "lint_spec",
    "render_json",
    "render_text",
]

_CORE = {"CODES", "Diagnostic", "LintResult", "Severity"}
_RUNNER = {"lint_paths", "lint_source", "lint_spec"}
_RENDER = {"render_json", "render_text"}


def __getattr__(name: str):
    if name in _CORE:
        from repro.lint import core

        return getattr(core, name)
    if name in _RUNNER:
        from repro.lint import runner

        return getattr(runner, name)
    if name in _RENDER:
        from repro.diag import render

        return getattr(render, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

"""Diagnostics catalogue for the generated-code checker.

The shared machinery (severities, :class:`~repro.diag.Diagnostic`,
result aggregation, rendering, suppression) lives in :mod:`repro.diag`
and is used identically by the specification linter (:mod:`repro.lint`).
This module contributes the checker's stable ``CHK0xx`` codes to the
shared registry; the table below is the single place their severities
and one-line titles are defined.  :mod:`docs/checking.md` documents
each code with the structural guarantee it validates.

Code blocks mirror the guarantees:

* ``CHK00x`` — engine
* ``CHK01x`` — dead-code-elimination soundness / effectiveness
* ``CHK02x`` — speculation undo coverage
* ``CHK03x`` — cross-interface monotonicity
* ``CHK04x`` — zero-overhead residue
* ``CHK05x`` — translated-unit shape (superblocks and chaining)
"""

from __future__ import annotations

from repro.adl.errors import SourceLoc
from repro.diag.core import CodeInfo, Diagnostic, Severity, register_codes

_REGISTRY: tuple[CodeInfo, ...] = (
    # -- engine ----------------------------------------------------------------
    CodeInfo("CHK000", Severity.ERROR, "generated module failed static analysis"),
    # -- visibility contract ---------------------------------------------------
    CodeInfo("CHK001", Severity.ERROR,
             "hidden value escapes into the dynamic-instruction record"),
    CodeInfo("CHK002", Severity.ERROR, "visible field computed but never stored"),
    CodeInfo("CHK003", Severity.ERROR,
             "visible field stored more than once per interface call"),
    # -- dead-code elimination -------------------------------------------------
    CodeInfo("CHK010", Severity.ERROR, "anchored architectural effect eliminated"),
    CodeInfo("CHK011", Severity.WARNING,
             "dead hidden computation survives elimination"),
    # -- speculation undo coverage ---------------------------------------------
    CodeInfo("CHK020", Severity.ERROR,
             "architectural write not covered by an undo-journal entry"),
    CodeInfo("CHK021", Severity.ERROR, "speculation journal lifecycle broken"),
    # -- cross-interface monotonicity ------------------------------------------
    CodeInfo("CHK030", Severity.ERROR,
             "record detail not monotonic across sibling interfaces"),
    # -- zero-overhead residue -------------------------------------------------
    CodeInfo("CHK040", Severity.ERROR,
             "observability or profiling probe residue in a module "
             "synthesized with that layer off"),
    # -- translated-unit shape (superblocks and chaining) ----------------------
    CodeInfo("CHK050", Severity.ERROR,
             "translated unit failed static analysis"),
    CodeInfo("CHK051", Severity.ERROR,
             "translated unit's trace records disagree with its length"),
    CodeInfo("CHK052", Severity.ERROR,
             "translated unit's chain bookkeeping is inconsistent"),
)

#: The checker's own codes (a view into the shared registry).
CODES: dict[str, CodeInfo] = register_codes(_REGISTRY)


def make_diagnostic(
    code: str,
    message: str,
    loc: SourceLoc | None = None,
    gen_loc: SourceLoc | None = None,
) -> Diagnostic:
    """Create a checker diagnostic with the registry's default severity."""
    if code not in CODES:
        raise KeyError(f"unknown diagnostic code {code!r}")
    return Diagnostic(code=code, message=message, loc=loc, gen_loc=gen_loc)


__all__ = ["CODES", "make_diagnostic"]

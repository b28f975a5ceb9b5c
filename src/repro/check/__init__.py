"""Translation validation for synthesized simulators (``repro check``).

The single-specification principle (PAPER.md) stands or falls on the
synthesizer: users only ever write the ``.lis`` description, so nobody
reads the generated interface modules — and nobody would notice if
generation quietly broke one of the paper's structural guarantees.
:mod:`repro.check` closes that gap with *translation validation*: a
static pass over each generated module (``ast`` + ``dis``, never
execution) that re-derives the guarantees from the specification and
verifies the emitted code exhibits them:

* the **visibility contract** — hidden fields never escape into the
  dynamic-instruction record, visible fields are stored exactly once
  per interface call (CHK001-CHK003);
* **dead-code-elimination soundness** — architectural effects anchored
  by the spec survive elimination (CHK010) and hidden, unread
  computation does not survive it (CHK011);
* **speculation undo coverage** — every architectural write in a
  speculative interface is dominated by an undo-journal append, and
  the journal lifecycle is intact (CHK020, CHK021);
* **detail monotonicity** — Min ⊆ Decode ⊆ All record-store sets per
  instruction across sibling interfaces (CHK030);
* **zero-overhead residue** — observe-off modules contain no probe
  residue (CHK040).

Diagnostics carry *two* locations: the generated line, and — through
the provenance side-table emitted by :mod:`repro.synth.codegen` — the
originating ``.lis`` construct, so findings are actionable in the only
artifact the user edits.

:mod:`repro.check.costmodel` adds a static host-op cost estimator that
predicts each interface's per-instruction cost from bytecode lengths,
reproducing the *signs* of the paper's Table III deltas without running
a single guest instruction.
"""

from __future__ import annotations

from repro.check.codes import CODES, make_diagnostic
from repro.check.costmodel import cost_report, predict_costs
from repro.check.runner import CheckResult, check_generated, check_isa, check_spec
from repro.diag import (
    Diagnostic,
    DiagnosticResult,
    Severity,
    render_json,
    render_text,
)

__all__ = [
    "CODES",
    "CheckResult",
    "Diagnostic",
    "DiagnosticResult",
    "Severity",
    "check_generated",
    "check_isa",
    "check_spec",
    "cost_report",
    "make_diagnostic",
    "predict_costs",
    "render_json",
    "render_text",
]

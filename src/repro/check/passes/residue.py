"""Zero-overhead residue (CHK040, CHK041).

Both the observability layer (:mod:`repro.obs`) and the host-op
profiler promise *zero overhead when off*: a module synthesized without
``observe``/``profile`` must be byte-identical to one that never heard
of those features.  The runtime tests sample that promise; this pass
proves it structurally for every module:

* **CHK040** — an observe-off module contains no ``_obs*`` probe
  identifiers and no ``_prof*`` guest-PC probe identifiers (the
  :mod:`repro.prof` hit counters) anywhere.
* **CHK041** — a profile-off module contains no ``_hops`` counter
  plumbing; a profile-on module has all its static cost placeholders
  resolved to constants (an unresolved ``__BODY_COST_n__`` would crash
  at run time, or worse, silently count nothing).
"""

from __future__ import annotations

import ast

from repro.check.model import ModuleModel
from repro.diag.core import Diagnostic
from repro.synth.synthesizer import COST_PLACEHOLDER

#: identifier prefixes of the probes ``observe=True`` emits
_PROBE_PREFIXES = ("_obs", "_prof")


def check_residue(model: ModuleModel) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    _check_obs_residue(model, diags)
    _check_profile_residue(model, diags)
    return diags


def _check_obs_residue(model: ModuleModel, diags: list[Diagnostic]) -> None:
    if model.options.observe:
        return
    for node in ast.walk(model.tree):
        name = _identifier(node)
        if name is not None and name.startswith(_PROBE_PREFIXES):
            diags.append(
                model.diagnostic(
                    "CHK040",
                    f"instrumentation probe residue {name!r} in a module "
                    f"synthesized with observe=False",
                    node=node,
                )
            )
            return  # the first occurrence identifies the defect


def _check_profile_residue(model: ModuleModel, diags: list[Diagnostic]) -> None:
    if not model.options.profile:
        for node in ast.walk(model.tree):
            name = _identifier(node)
            if name == "_hops" or (name and COST_PLACEHOLDER.fullmatch(name)):
                diags.append(
                    model.diagnostic(
                        "CHK041",
                        f"profiling residue {name!r} in a module "
                        f"synthesized with profile=False",
                        node=node,
                    )
                )
                return
        return
    match = COST_PLACEHOLDER.search(model.source)
    if match:
        lineno = model.source.count("\n", 0, match.start()) + 1
        diags.append(
            model.diagnostic(
                "CHK041",
                f"unresolved static-cost placeholder {match.group(0)!r} "
                f"in a profile module",
                lineno=lineno,
            )
        )


def _identifier(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None

"""Zero-overhead residue (CHK040).

The observability layer (:mod:`repro.obs`) promises *zero overhead when
off*: a module synthesized without ``observe`` must be byte-identical
to one that never heard of it.  The runtime tests sample that promise;
this pass proves it structurally for every module: an observe-off
module contains no ``_obs*`` probe identifiers and no ``_prof*``
guest-PC probe identifiers (the :mod:`repro.prof` hit counters)
anywhere.
"""

from __future__ import annotations

import ast

from repro.check.model import ModuleModel
from repro.diag.core import Diagnostic

#: identifier prefixes of the probes ``observe=True`` emits
_PROBE_PREFIXES = ("_obs", "_prof")


def check_residue(model: ModuleModel) -> list[Diagnostic]:
    if model.options.observe:
        return []
    for node in ast.walk(model.tree):
        name = _identifier(node)
        if name is not None and name.startswith(_PROBE_PREFIXES):
            # the first occurrence identifies the defect
            return [
                model.diagnostic(
                    "CHK040",
                    f"instrumentation probe residue {name!r} in a module "
                    f"synthesized with observe=False",
                    node=node,
                )
            ]
    return []


def _identifier(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None

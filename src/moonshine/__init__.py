"""Exact-arithmetic tools for the moonshine coefficient identities.

The package verifies, with integer and rational arithmetic only, the chain
of identities tying the elliptic modular invariant to the monster Lie
algebra: the two-variable denominator product, the twisted Euler-Poincare
identities for the McKay-Thompson series, and the coefficient recursions
they imply.

Importing the package runs none of its layers.  Each layer module
(``series``, ``modular``, ``classes``, ``recursion``, ``relations``,
``lattice``) is in ``sys.modules`` and on the package from the start, but
as an ``importlib.util.LazyLoader`` module that runs its source at its
first attribute read; the names re-exported here, and every name one layer
takes from another (``from . import series``, then ``series.log1m_rows``),
are read through the same modules.  So a command compiles and runs only
the layers it calls: ``derive`` and ``derive --audit`` run ``classes`` and
``recursion`` alone, and import no ``fractions`` (a table's eta recipes
are tuples in ``classes``; ``modular`` expands them), and no command runs
``relations``, the oracles the tests check the solver against.  The first
use of a layer from several threads at once is not supported.  On a
loaded 2-core machine, where ``python -c pass`` takes 40 ms, a fresh
``derive --audit --max 8`` takes 55 ms without bytecode caches (43 ms
with them), 5 ms less than when it also ran ``modular`` and
``fractions``; the command line is read without argparse (see ``cli``).
"""

from __future__ import annotations

import sys
from importlib.machinery import PathFinder
from importlib.util import LazyLoader, module_from_spec

_EXPORTS = {
    "series": ("UniSeries", "BiSeries"),
    "modular": (
        "euler_product",
        "dedekind_eta_power",
        "eisenstein",
        "delta",
        "j_series",
        "normalized_j",
        "expand_recipe",
    ),
    "classes": (
        "EtaMonomial",
        "ClassTable",
        "CoefficientFamily",
        "MissingCoefficients",
        "parse_table_text",
        "serialize_table",
        "load_family",
        "euler_poincare_report",
        "EPReport",
    ),
    "lattice": (
        "LatticeVector",
        "gram",
        "simple_roots",
        "cartan_conditions",
        "witt_dims",
        "dimension_product",
        "GradedDims",
        "ProductReport",
        "denominator_identity_report",
    ),
    "recursion": (
        "ContradictionError",
        "SolveResult",
        "solve_from_seeds",
        "AuditReport",
        "determinacy_audit",
    ),
    "relations": (
        "Relation",
        "coefficient_relation",
        "coefficient_recursion",
        "recursion_cross_check",
    ),
}
_LAYER_OF = {name: layer for layer, names in _EXPORTS.items() for name in names}
__all__ = list(_LAYER_OF)
__version__ = "0.1.0"

for _layer in _EXPORTS:
    _spec = PathFinder.find_spec(f"{__name__}.{_layer}", __path__)
    _spec.loader = LazyLoader(_spec.loader)
    _module = module_from_spec(_spec)
    _spec.loader.exec_module(_module)
    sys.modules[_spec.name] = globals()[_layer] = _module
del _layer, _spec, _module


def __getattr__(name: str):
    if name not in _LAYER_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_LAYER_OF[name]], name)

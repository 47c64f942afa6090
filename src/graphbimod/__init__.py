"""Finite-graph bimodules: index vectors, residue expectations, Fock projections, KMS states.

The package works with the edge module of a finite directed graph without
sources or sinks, carried as a bimodule over the function algebra on the
vertices.  It holds what the four CLI routes run: the k-step index levels
(`index`), the residue limits of the growth ratios (`residue`), the Gram
and commutators of the Fock projection (`kasparov`) and the invariant
traces of the gauge dynamics (`kms`), each from counted, exact data.

Importing the package runs none of its submodules: a public name is
imported from its module on first access, and each CLI subcommand imports
only the modules of its own route, so a run compiles and executes no code
it does not use.  Importing the package and running any CLI route needs
only the standard library.
"""

import importlib

# the module of each public name, imported by `__getattr__` on first access:
# the names the CLI routes call, and the types of what they return
_HOME = {
    "algebra": (),
    "bimodule": ("Edge", "GraphBimodule", "GraphStructureError", "beta_is_central"),
    "fock": ("Path", "index_levels", "make_path", "path_counts", "paths"),
    "spectral": ("GrowthTable", "ResidueLimits", "ResidueReport", "eta_tilde"),
    "cuntz_pimsner": (
        "CommutatorReport",
        "ConditionalExpectation",
        "GramData",
        "ResidueUncertifiedError",
        "gram",
    ),
    "kms": ("TraceFamily", "TraceState", "descent_residual", "invariant_traces"),
}
_MODULE_OF = {name: module for module, names in _HOME.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    """Resolve a public name, or a submodule, by importing its module."""
    home = _MODULE_OF.get(name)
    if home is not None:
        value = getattr(importlib.import_module(f".{home}", __name__), name)
        globals()[name] = value
        return value
    if name in _HOME:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


"""Finite-graph bimodules: index vectors, residue expectations, Fock projections, KMS states.

The package works with the edge module of a finite directed graph without
sources or sinks, carried as a bimodule over the function algebra on the
vertices.  Everything downstream (path spaces, index vectors, the residue
expectation, the quotient module with its Fock projection, and the gauge
dynamics with its equilibrium states) is computed from that one structure.

Importing the package runs none of its submodules: a public name is
imported from its module on first access, and each CLI subcommand imports
only the modules of its own route, so a run compiles and executes no code
it does not use.  Importing the package and running any CLI route needs
only the standard library.
"""

import importlib

# the module of each public name, imported by `__getattr__` on first access
_HOME = {
    "algebra": ("AlgebraElement", "VertexSet"),
    "bimodule": (
        "Edge",
        "GraphBimodule",
        "GraphStructureError",
        "beta_is_central",
        "index_element",
    ),
    "fock": (
        "AxiomReport",
        "FockVector",
        "Path",
        "beta_k",
        "check_bimodule_axioms",
        "left_action",
        "left_inner",
        "make_path",
        "paths",
        "phi_k",
        "rank_one_phi",
        "right_action",
        "right_inner",
        "smeb_check",
    ),
    "spectral": (
        "PFData",
        "PartialSumReport",
        "ResidueReport",
        "eta_tilde",
        "pf_data",
        "phi_s_partial",
    ),
    "cuntz_pimsner": (
        "CommutatorReport",
        "ConditionalExpectation",
        "GramData",
        "ResidueUncertifiedError",
        "SpanningElement",
        "covariance_substitute",
        "gauge_scaled",
        "gram",
    ),
    "kms": (
        "TraceFamily",
        "TraceState",
        "d_weight",
        "descent_residual",
        "gamma",
        "gamma_minus_i",
        "invariant_traces",
        "kms_check",
        "tr_phi",
    ),
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


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))

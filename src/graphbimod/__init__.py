"""Finite-graph bimodules: index vectors, residue expectations, Fock projections, KMS states.

The package works with the edge module of a finite directed graph without
sources or sinks, carried as a bimodule over the function algebra on the
vertices.  Everything downstream (path spaces, index vectors, the residue
expectation, the quotient module with its Fock projection, and the gauge
dynamics with its equilibrium states) is computed from that one structure.

Importing the package and running any CLI route needs only the standard
library.
"""

from .algebra import AlgebraElement, VertexSet
from .bimodule import (
    Edge,
    GraphBimodule,
    GraphStructureError,
    beta_is_central,
    index_element,
)
from .fock import (
    AxiomReport,
    FockVector,
    Path,
    beta_k,
    check_bimodule_axioms,
    left_action,
    left_inner,
    make_path,
    paths,
    phi_k,
    rank_one_phi,
    right_action,
    right_inner,
    smeb_check,
)
from .spectral import (
    PFData,
    PartialSumReport,
    ResidueReport,
    eta_tilde,
    pf_data,
    phi_s_partial,
)
from .cuntz_pimsner import (
    CommutatorReport,
    ConditionalExpectation,
    GramData,
    ResidueUncertifiedError,
    SpanningElement,
    covariance_substitute,
    gauge_scaled,
    gram,
)
from .kms import (
    TraceFamily,
    TraceState,
    d_weight,
    descent_residual,
    gamma,
    gamma_minus_i,
    invariant_traces,
    kms_check,
    tr_phi,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraElement",
    "AxiomReport",
    "CommutatorReport",
    "ConditionalExpectation",
    "Edge",
    "FockVector",
    "GramData",
    "GraphBimodule",
    "GraphStructureError",
    "PFData",
    "PartialSumReport",
    "Path",
    "ResidueReport",
    "ResidueUncertifiedError",
    "SpanningElement",
    "TraceFamily",
    "TraceState",
    "VertexSet",
    "beta_is_central",
    "beta_k",
    "check_bimodule_axioms",
    "covariance_substitute",
    "d_weight",
    "descent_residual",
    "eta_tilde",
    "gamma",
    "gamma_minus_i",
    "gauge_scaled",
    "gram",
    "index_element",
    "invariant_traces",
    "kms_check",
    "left_action",
    "left_inner",
    "make_path",
    "paths",
    "pf_data",
    "phi_k",
    "phi_s_partial",
    "rank_one_phi",
    "right_action",
    "right_inner",
    "smeb_check",
    "tr_phi",
]

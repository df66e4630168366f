"""Recursive corona graphs: construction, exact closed forms, spectra, oracles."""

from .errors import (
    ConnectivityError,
    InternalInconsistencyError,
    NumericalError,
    RcgError,
    ResourceLimitError,
)
from .formulas import (
    DegreeClass,
    FactoredCount,
    StructuralReport,
    asymptotic_clustering,
    average_degree,
    average_distance,
    cumulative_degree,
    degree_multiset,
    global_clustering,
    kirchhoff_closed,
    knn_approx,
    knn_exact,
    lerch_phi,
    spanning_trees_closed,
    structural_report,
    total_distance,
    vertex_clustering,
)
from .graphs import (
    CoronaGraph,
    Graph,
    RcgParams,
    build_rcg,
    matrix_of,
    write_dot,
    write_edgelist,
    write_json,
)
from .spectra import (
    SpectrumMultiset,
    adjacency_spectrum,
    child_pair,
    kirchhoff_spectral,
    laplacian_spectrum,
    nonzero_product,
    spanning_trees_spectral,
)

__version__ = "0.1.0"

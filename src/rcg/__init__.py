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
    order,
    size,
    spanning_trees_closed,
    structural_report,
    total_distance,
    vertex_clustering,
)
from .graphs import (
    CoronaGraph,
    Graph,
    RcgParams,
    birth_generation,
    build_rcg,
    complete_graph,
    corona_product,
    matrix_of,
    parse_edgelist,
    write_edgelist,
)
from .spectra import (
    EigenPair,
    SpectrumMultiset,
    adjacency_spectrum,
    child_pair,
    kirchhoff_spectral,
    laplacian_reciprocal_sum,
    laplacian_spectrum,
    nonzero_product,
    spanning_trees_spectral,
)

__version__ = "0.1.0"

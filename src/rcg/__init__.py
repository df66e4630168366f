"""Recursive corona graphs: construction, exact closed forms, spectra, oracles.

`import rcg` loads no layer.  Each public name below resolves on access to
the object of the same name in its defining module, which is imported then
(`rcg.X is rcg.<layer>.X`); nothing is copied into this module, so a
rebinding in the layer (a monkeypatch, a tracer) shows here too.
`dir(rcg)` and `__all__` list exactly these names.
"""
import importlib

__version__ = "0.1.0"

# every public name, by its defining module
_LAYERS = {
    "errors": (
        "ConnectivityError",
        "InternalInconsistencyError",
        "NumericalError",
        "RcgError",
        "ResourceLimitError",
    ),
    "formulas": (
        "DegreeClass",
        "FactoredCount",
        "StructuralReport",
        "asymptotic_clustering",
        "average_degree",
        "average_distance",
        "cumulative_degree",
        "degree_multiset",
        "global_clustering",
        "kirchhoff_closed",
        "knn_approx",
        "knn_exact",
        "lerch_phi",
        "spanning_trees_closed",
        "structural_report",
        "total_distance",
        "vertex_clustering",
    ),
    "graphs": (
        "CoronaGraph",
        "Graph",
        "RcgParams",
        "build_rcg",
        "matrix_of",
        "write_dot",
        "write_edgelist",
        "write_json",
    ),
    "spectra": (
        "SpectrumMultiset",
        "adjacency_spectrum",
        "child_pair",
        "kirchhoff_spectral",
        "laplacian_spectrum",
        "nonzero_product",
        "spanning_trees_spectral",
    ),
}
_MODULE_OF = {name: layer for layer, names in _LAYERS.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    layer = _MODULE_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{layer}"), name)


def __dir__():
    return __all__

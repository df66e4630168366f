"""Recursive adjacency and Laplacian spectra of recursive corona graphs.

Each generation maps every eigenvalue of the previous generation to two
children via a fixed quadratic, and adds one structural eigenvalue (-1 for
the adjacency matrix, q+1 for the Laplacian) with a known multiplicity.
Eigenvalues are stored as floats with exact integer multiplicities; the
exact spectral quantities (spanning trees, Kirchhoff index) come from
separate exponent and rational recursions, never from the float spectrum.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InternalInconsistencyError, ResourceLimitError
from .formulas import FactoredCount
from .graphs import RcgParams

DEFAULT_EIGENVALUE_BUDGET = 10**6

MERGE_TOL = 1e-10


@dataclass(frozen=True)
class EigenPair:
    """Parent eigenvalue and its two children at the next generation."""

    parent: float
    plus_child: float
    minus_child: float
    kind: str


@dataclass(frozen=True)
class SpectrumMultiset:
    """Eigenvalue/multiplicity pairs, sorted descending by value."""

    kind: str
    entries: tuple[tuple[float, int], ...]
    params: RcgParams

    def total_multiplicity(self) -> int:
        return sum(m for _, m in self.entries)

    def moment(self, power: int) -> float:
        return sum(v**power * m for v, m in self.entries)

    def multiplicity_of(self, value: float, tol: float = MERGE_TOL) -> int:
        return sum(m for v, m in self.entries if abs(v - value) <= tol)

    def to_json_list(self) -> list[dict]:
        return [{"value": v, "multiplicity": m} for v, m in self.entries]


def child_pair(parent: float, q: int, kind: str) -> EigenPair:
    """Two next-generation eigenvalues spawned by `parent`."""
    if kind == "adjacency":
        disc = (q - 1 - parent) ** 2 + 4 * q
    elif kind == "laplacian":
        if parent < 0:
            raise ValueError("laplacian eigenvalues are nonnegative")
        disc = (parent + q + 1) ** 2 - 4 * parent
    else:
        raise ValueError(f"unknown spectrum kind {kind!r}")
    root = math.sqrt(disc)
    mid = parent + q - 1 if kind == "adjacency" else parent + q + 1
    return EigenPair(
        parent=parent,
        plus_child=(mid + root) / 2,
        minus_child=(mid - root) / 2,
        kind=kind,
    )


def _merge(entries: list[tuple[float, int]]) -> tuple[tuple[float, int], ...]:
    """Coalesce equal eigenvalues (within MERGE_TOL), sorted descending."""
    entries.sort(key=lambda e: -e[0])
    merged: list[tuple[float, int]] = []
    for value, mult in entries:
        if merged and abs(merged[-1][0] - value) <= MERGE_TOL:
            prev_value, prev_mult = merged[-1]
            merged[-1] = (prev_value, prev_mult + mult)
        else:
            merged.append((value, mult))
    return tuple(merged)


def _recursive_spectrum(params, kind, budget):
    limit = DEFAULT_EIGENVALUE_BUDGET if budget is None else budget
    if params.vertex_count > limit:
        raise ResourceLimitError(
            f"spectrum of (q={params.q}, g={params.g}) has {params.vertex_count} "
            f"eigenvalues, budget is {limit}"
        )
    q = params.q
    if kind == "adjacency":
        entries = [(float(q - 1), 1), (-1.0, q - 1)]
        extra_value = -1.0
    else:
        entries = [(float(q), q - 1), (0.0, 1)]
        extra_value = float(q + 1)
    for step in range(1, params.g + 1):
        children = []
        for value, mult in entries:
            pair = child_pair(value, q, kind)
            children.append((pair.plus_child, mult))
            children.append((pair.minus_child, mult))
        children.append((extra_value, (q - 1) * q * (q + 1) ** (step - 1)))
        entries = list(_merge(children))
    return SpectrumMultiset(kind=kind, entries=_merge(entries), params=params)


def adjacency_spectrum(params: RcgParams, budget: int | None = None) -> SpectrumMultiset:
    return _recursive_spectrum(params, "adjacency", budget)


def laplacian_spectrum(params: RcgParams, budget: int | None = None) -> SpectrumMultiset:
    return _recursive_spectrum(params, "laplacian", budget)


def nonzero_product(params: RcgParams) -> FactoredCount:
    """Product of the nonzero Laplacian eigenvalues.

    Recursion: each generation multiplies by (q+1)^{m+1} with
    m = (q-1)q(q+1)^{g-1}: the m structural q+1 eigenvalues, plus the q+1
    child of the zero eigenvalue; every other parent's child pair multiplies
    to the parent itself.  (No additional factor of q appears anywhere: on
    the 6-vertex instance (q=2, g=1) the product of nonzero eigenvalues is
    3*3*3*2 = 54, and an extra q would give 108, contradicting both the
    closed form and the matrix-tree count.)
    """
    q, g = params.q, params.g
    a, b = q - 1, 0  # K_q: eigenvalue q, q-1 times
    for step in range(1, g + 1):
        m = (q - 1) * q * (q + 1) ** (step - 1)
        b += m + 1
    closed = FactoredCount(q, q - 1, (q - 1) * ((q + 1) ** g - 1) + g)
    if FactoredCount(q, a, b) != closed:
        raise InternalInconsistencyError("nonzero-product recursion != closed form")
    return closed


def spanning_trees_spectral(params: RcgParams) -> FactoredCount:
    """Spanning-tree count as (product of nonzero Laplacian eigenvalues)/N.

    N = q (q+1)^g, so dividing subtracts exponents; a negative exponent
    would mean that N does not divide the product.
    """
    upsilon = nonzero_product(params)
    a, b = upsilon.a - 1, upsilon.b - params.g
    if a < 0 or b < 0:
        raise InternalInconsistencyError(
            "nonzero eigenvalue product is not divisible by N"
        )
    return FactoredCount(params.q, a, b)


def laplacian_reciprocal_sum(params: RcgParams) -> Fraction:
    """Sum of 1/lambda over the nonzero Laplacian eigenvalues.

    By Vieta, a nonzero parent lambda spawns children with
    1/lambda_+ + 1/lambda_- = 1 + (q+1)/lambda; the zero parent spawns q+1,
    as do the m_g structural eigenvalues.  Hence
    R_g = (N_{g-1} - 1) + (q+1) R_{g-1} + (1 + m_g)/(q+1), R_0 = (q-1)/q.
    """
    q = params.q
    reciprocal_sum, n = Fraction(q - 1, q), q
    for step in range(1, params.g + 1):
        m = (q - 1) * q * (q + 1) ** (step - 1)
        reciprocal_sum = (n - 1) + (q + 1) * reciprocal_sum + Fraction(1 + m, q + 1)
        n *= q + 1
    return reciprocal_sum


def kirchhoff_spectral(params: RcgParams) -> Fraction:
    """Kirchhoff index as N * (sum of reciprocals of nonzero eigenvalues)."""
    return params.vertex_count * laplacian_reciprocal_sum(params)

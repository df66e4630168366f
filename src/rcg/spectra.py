"""Recursive adjacency and Laplacian spectra of recursive corona graphs.

Each generation maps every eigenvalue of the previous generation to two
children, the roots of a fixed quadratic, and adds one structural eigenvalue
(-1 for the adjacency matrix, q+1 for the Laplacian) with a known
multiplicity.  The children are taken in the stable form: first the root
that does not cancel, then the other from the Vieta product.  Both children
increase with the parent, and every plus child lies above every minus child,
so a descending spectrum maps to two descending runs and no generation needs
a sort.  Eigenvalues are stored as floats with exact integer multiplicities;
the exact spectral quantities (spanning trees, Kirchhoff index) come from
separate exponent and integer recursions, never from the float spectrum.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter, neg

from .errors import InternalInconsistencyError, ResourceLimitError
from .formulas import FactoredCount
from .graphs import RcgParams, vertex_budget

MERGE_TOL = 1e-10


@dataclass(frozen=True)
class SpectrumMultiset:
    """Eigenvalue/multiplicity pairs, sorted descending by value."""

    entries: tuple[tuple[float, int], ...]


def _children(parents: list[float], q: int, kind: str) -> tuple[list[float], list[float]]:
    """Plus and minus children of a descending list of parents, each run descending.

    The children of x are the roots of t^2 - s t + p with s = x + a and
    p = b x + c, and the discriminant s^2 - 4p equals (x + e)^2 + 4q.  The
    root (s + sign(s) sqrt(disc))/2 adds two terms of one sign, and the
    other root is p divided by it, so neither cancels.  The parents with
    s >= 0 form the head of the list, and their big root is the plus child;
    the Laplacian has s >= q+1 for every parent.
    """
    if kind == "laplacian":
        a, e, b, c = q + 1.0, q - 1.0, 1.0, 0.0
    elif kind == "adjacency":
        a, e, b, c = q - 1.0, 1.0 - q, q - 1.0, -float(q)
    else:
        raise ValueError(f"unknown spectrum kind {kind!r}")
    d, sqrt = 4.0 * q, math.sqrt
    split = bisect_right(parents, a, key=neg)  # parents x >= -a
    head, tail = parents[:split], parents[split:]
    big_head = [(x + a + sqrt((x + e) * (x + e) + d)) * 0.5 for x in head]
    big_tail = [(x + a - sqrt((x + e) * (x + e) + d)) * 0.5 for x in tail]
    plus = big_head + [(b * x + c) / r for x, r in zip(tail, big_tail)]
    minus = [(b * x + c) / r for x, r in zip(head, big_head)] + big_tail
    return plus, minus


def child_pair(parent: float, q: int, kind: str) -> tuple[float, float]:
    """(plus, minus): the two next-generation eigenvalues spawned by `parent`."""
    if kind == "laplacian" and parent < 0:
        raise ValueError("laplacian eigenvalues are nonnegative")
    (plus,), (minus,) = _children([parent], q, kind)
    return plus, minus


def _recursive_spectrum(params, kind):
    """Plus run, minus run and the structural value, once per generation.

    g = 0 has 2 distinct values and each generation at most doubles them and
    adds one, so the budget is checked against 3 * 2^g - 1 before any work.
    The child maps are injective and the two runs are disjoint, so in exact
    arithmetic only the structural value can repeat, as the child of a zero
    parent.
    It joins a neighbour within MERGE_TOL relative to itself; the children
    are never compared, since near zero distinct ones lie far closer than
    any absolute tolerance.  Distinct eigenvalues a few ulps apart can round
    to equal values or, through the Vieta quotient, swap order; a single
    sort at the end, run only when the list is out of order, restores the
    descending order.
    """
    limit = vertex_budget()
    bound = 3 * 2**params.g - 1
    if bound > limit:
        raise ResourceLimitError(
            f"spectrum of (q={params.q}, g={params.g}) has up to {bound} "
            f"distinct eigenvalues, budget is {limit}"
        )
    q = params.q
    if kind == "adjacency":
        values, mults, extra = [float(q - 1), -1.0], [1, q - 1], -1.0
    else:
        values, mults, extra = [float(q), 0.0], [q - 1, 1], float(q + 1)
    tol = MERGE_TOL * abs(extra)
    m = (q - 1) * q  # m_g = (q-1) N_{g-1}, the structural multiplicity
    for _ in range(params.g):
        plus, minus = _children(values, q, kind)
        values, mults = plus + minus, mults + mults
        at = bisect_right(values, -extra, key=neg)  # values[at - 1] >= extra
        if at and values[at - 1] - extra <= tol:
            mults[at - 1] += m
        elif at < len(values) and extra - values[at] <= tol:
            mults[at] += m
        else:
            values.insert(at, extra)
            mults.insert(at, m)
        m *= q + 1
    entries = zip(values, mults)
    if values != sorted(values, reverse=True):
        entries = sorted(entries, key=itemgetter(0), reverse=True)
    return SpectrumMultiset(tuple(entries))


def adjacency_spectrum(params: RcgParams) -> SpectrumMultiset:
    return _recursive_spectrum(params, "adjacency")


def laplacian_spectrum(params: RcgParams) -> SpectrumMultiset:
    return _recursive_spectrum(params, "laplacian")


def nonzero_product(params: RcgParams) -> FactoredCount:
    """Product of the nonzero Laplacian eigenvalues.

    Recursion: each generation multiplies by (q+1)^{m+1} with
    m = m_g = (q-1) N_{g-1}: the m structural q+1 eigenvalues, plus the q+1
    child of the zero eigenvalue; every other parent's child pair multiplies
    to the parent itself.  (No additional factor of q appears anywhere: on
    the 6-vertex instance (q=2, g=1) the product of nonzero eigenvalues is
    3*3*3*2 = 54, and an extra q would give 108, contradicting both the
    closed form and the matrix-tree count.)
    """
    q, g = params.q, params.g
    a, b, m = q - 1, 0, (q - 1) * q  # K_q: eigenvalue q, q-1 times; m_1 = (q-1) N_0
    for _ in range(g):
        b, m = b + m + 1, m * (q + 1)
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


def kirchhoff_spectral(params: RcgParams) -> Fraction:
    """Kirchhoff index as N_g R_g, with R_g the sum of 1/lambda over the
    nonzero Laplacian eigenvalues.

    By Vieta, a nonzero parent lambda spawns children with
    1/lambda_+ + 1/lambda_- = 1 + (q+1)/lambda; the zero parent spawns q+1,
    as do the m_g = (q-1) N_{g-1} structural eigenvalues.  Hence
    R_g = (N_{g-1} - 1) + (q+1) R_{g-1} + (1 + m_g)/(q+1), R_0 = (q-1)/q.
    Scaled by N_g = (q+1) N_{g-1}, S_g = N_g R_g is an integer, with
    S_0 = q - 1 and
    S_g = (q+1) N_{g-1} (N_{g-1} - 1) + (q+1)^2 S_{g-1} + (1 + m_g) N_{g-1};
    each step needs N_{g-1} and its square only, both kept by small
    multiplications.
    """
    q = params.q
    scaled, n, n2 = q - 1, q, q * q
    for _ in range(params.g):
        scaled = (q + 1) * (n2 - n) + (q + 1) ** 2 * scaled + n + (q - 1) * n2
        n, n2 = n * (q + 1), n2 * (q + 1) ** 2
    return Fraction(scaled)

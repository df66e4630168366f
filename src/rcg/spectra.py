"""Recursive spectra of recursive corona graphs, one per matrix kind alpha*D + beta*A.

Each generation maps every eigenvalue of the previous generation to two
children, the roots of a quadratic fixed by the kind's (alpha, beta) in
`graphs.MATRIX_KINDS`, and adds the structural eigenvalue alpha*q - beta
(-1 for the adjacency matrix, q+1 for the Laplacian) with multiplicity
m_g = (q-1) N_{g-1}.  The children are taken in the stable form: first the
root that does not cancel, then the other from the Vieta product.  Both
children increase with the parent, and every plus child lies above every
minus child, so a descending spectrum maps to two descending runs and no
generation needs a sort; the quadratic also fixes where the structural
value goes, so it is never compared with an eigenvalue.  Eigenvalues are
floats with exact integer multiplicities; the exact spectral quantities
(spanning trees, Kirchhoff index) come from separate exponent and integer
recursions, never from the float spectrum.
"""
from __future__ import annotations

import math
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter, neg

from . import graphs
from .errors import ResourceLimitError
from .formulas import FactoredCount
from .graphs import RcgParams, _checked_int, _name, over_limit


@dataclass(frozen=True)
class SpectrumMultiset:
    """Eigenvalue/multiplicity pairs, sorted descending by value."""

    entries: tuple[tuple[float, int], ...]


def _quadratic(q: int, kind: str) -> tuple[float, float, float, float, float]:
    """`_children`'s (a, e, b, c, 4q) for `kind`, after refusing a q past the largest float;
    each is evaluated left to right on float(q), as the floats q - 1.0 and 4.0 * q are."""
    if q > sys.float_info.max:
        raise ResourceLimitError(f"q={_name(q)} is past the largest float, {sys.float_info.max!r}")
    if kind not in graphs.MATRIX_KINDS:
        raise ValueError(f"unknown spectrum kind {kind!r}")
    (alpha, beta), x = graphs.MATRIX_KINDS[kind], float(q)
    t = alpha + beta
    a, e, b = (alpha + t) * x - beta, beta - beta * x, t * x - beta
    return a, e, b, alpha * t * x * x - beta * t * x, 4 * beta * beta * x


def _children(parents: list[float], quadratic) -> tuple[list[float], list[float]]:
    """Plus and minus children of a descending list of parents, each run descending.

    The children of x are the roots of t^2 - s t + p with s = x + a and
    p = b x + c, and the discriminant s^2 - 4p equals (x + e)^2 + 4q.  The
    root (s + sign(s) sqrt(disc))/2 adds two terms of one sign, and the
    other root is p divided by it, so neither cancels.  The parents with
    s >= 0 form the head of the list, and their big root is the plus child;
    the Laplacian has s >= q+1 for every parent.  Only (x + e)^2 and b x + c
    can overflow, each largest at an end of the list: finite there, so is every child.
    """
    (a, e, b, c, d), sqrt = quadratic, math.sqrt
    for x in (parents[0], parents[-1]):
        if not ((x + e) * (x + e) + d < math.inf and abs(b * x + c) < math.inf):
            raise ResourceLimitError(f"the children of eigenvalue {x!r} are past the largest float")
    split = bisect_right(parents, a, key=neg)  # parents x >= -a
    head, tail = parents[:split], parents[split:]
    big_head = [(x + a + sqrt((x + e) * (x + e) + d)) * 0.5 for x in head]
    big_tail = [(x + a - sqrt((x + e) * (x + e) + d)) * 0.5 for x in tail]
    plus = big_head + [(b * x + c) / r for x, r in zip(tail, big_tail)]
    minus = [(b * x + c) / r for x, r in zip(head, big_head)] + big_tail
    return plus, minus


def child_pair(parent: float, q: int, kind: str) -> tuple[float, float]:
    """(plus, minus): the two next-generation eigenvalues spawned by `parent`."""
    q = _checked_int(q, 2, "q must be >= 2")
    if kind == "laplacian" and parent < 0:
        raise ValueError("laplacian eigenvalues are nonnegative")
    (plus,), (minus,) = _children([parent], _quadratic(q, kind))
    return plus, minus


def _recursive_spectrum(params, kind):
    """Plus run, minus run and the structural value, once per generation.

    g = 0 has 2 distinct values and each generation at most doubles them and
    adds one, so graphs.VERTEX_BUDGET is checked against 3 * 2^g - 1 before
    any work.  K_q gives (alpha+beta)(q-1) once and alpha(q-1) - beta q-1
    times.  At t = alpha*q - beta the child quadratic is nu*beta*q, so t is
    a child of nu = 0 alone.  Where the rows sum to zero (alpha + beta = 0),
    0 is the last parent, and m_g joins its plus child, the last plus entry.
    Otherwise 0 is never an eigenvalue (for A a child is 0 only at q = 2 and
    nu = 2, a child of 0 alone), and t goes in as a new entry after the minus
    children of the positive parents: outside the pair of a nu*beta > 0,
    inside that of a nu*beta < 0.  Values a few ulps apart can round equal
    or, through the Vieta quotient, swap order; one sort at the end, run
    only when the list is out of order, restores the descending order.
    """
    message = "spectrum of (q={q}, g={g}) has up to {n} distinct eigenvalues, budget is {limit}"
    over_limit(graphs.VERTEX_BUDGET, params, "eigenvalues", message)
    q = params.q
    quadratic, (alpha, beta) = _quadratic(q, kind), graphs.MATRIX_KINDS[kind]
    lone, rest = float((alpha + beta) * (q - 1)), float(alpha * (q - 1) - beta)
    values, mults = ([lone, rest], [1, q - 1]) if lone > rest else ([rest, lone], [q - 1, 1])
    m = (q - 1) * q  # m_g = (q-1) N_{g-1}, the structural multiplicity
    for _ in range(params.g):
        plus, minus = _children(values, quadratic)
        at = len(plus) + bisect_left(values, 0.0, key=neg)  # after parents > 0
        values, mults = plus + minus, mults + mults
        if alpha + beta == 0:
            mults[len(plus) - 1] += m
        else:
            values.insert(at, float(alpha * q - beta))
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
    q = params.q
    b, m = 0, (q - 1) * q  # K_q: eigenvalue q, q-1 times; m_1 = (q-1) N_0
    for _ in range(params.g):
        b, m = b + m + 1, m * (q + 1)
    return FactoredCount(q, q - 1, b)


def spanning_trees_spectral(params: RcgParams) -> FactoredCount:
    """Spanning-tree count as (product of nonzero Laplacian eigenvalues)/N.

    N = q (q+1)^g, so dividing subtracts exponents.  Both differences are
    nonnegative by `nonzero_product`'s recursion: a = q - 1 >= 1, and
    b = the sum of m_s + 1 over the g generations >= g.
    """
    upsilon = nonzero_product(params)
    return FactoredCount(params.q, upsilon.a - 1, upsilon.b - params.g)


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

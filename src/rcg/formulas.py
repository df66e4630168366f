"""Closed-form structural quantities of recursive corona graphs.

Everything rational is evaluated with exact arbitrary-precision arithmetic
(Python ints and Fraction); floating point appears only in the Lerch
transcendent and the asymptotic clustering limit.

Where a quantity has both a closed form and a recursion, both are evaluated
and compared, so a transcription error in either one cannot go unnoticed.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from .errors import InternalInconsistencyError
from .graphs import RcgParams

# `FactoredCount.value` builds integers below this many decimal digits only
MAX_VALUE_DIGITS = 10**6


@dataclass(frozen=True)
class FactoredCount:
    """Exact count q^a (q+1)^b, carried as its exponents.

    q and q+1 are coprime, so two counts are equal exactly when their
    exponents are; comparing them never builds either integer.
    """

    q: int
    a: int
    b: int

    @property
    def log10(self) -> float:
        return self.a * math.log10(self.q) + self.b * math.log10(self.q + 1)

    @property
    def exact(self) -> bool:
        return self.log10 < MAX_VALUE_DIGITS

    @property
    def value(self) -> int | None:
        """The integer, built on each access; None from MAX_VALUE_DIGITS digits on."""
        return self.q**self.a * (self.q + 1) ** self.b if self.exact else None


# the benchmark's tracer (perfbench/tracing.py) looks counts up by this name
BigCount = FactoredCount


@dataclass(frozen=True)
class DegreeClass:
    """One degree value, how many vertices carry it, and their birth step."""

    degree: int
    count: int
    birth: int


def order(params: RcgParams) -> int:
    return params.vertex_count


def size(params: RcgParams) -> int:
    return params.edge_count


def average_degree(params: RcgParams) -> Fraction:
    """2M/N, equal to q + 1 - 2(q+1)^{-g}; tends to q+1 for large g."""
    q, g = params.q, params.g
    mean = Fraction(2 * params.edge_count, params.vertex_count)
    if mean != q + 1 - Fraction(2, (q + 1) ** g):
        raise InternalInconsistencyError("average degree identities disagree")
    return mean


def degree_multiset(params: RcgParams) -> list[DegreeClass]:
    """All degree classes: degree q(g-b+1) for births b = 1..g, plus the
    initial vertices of degree q(g+1)-1."""
    q, g = params.q, params.g
    classes = [
        DegreeClass(degree=q * (g - b + 1), count=q * q * (q + 1) ** (b - 1), birth=b)
        for b in range(1, g + 1)
    ]
    classes.append(DegreeClass(degree=q * (g + 1) - 1, count=q, birth=0))
    classes.sort(key=lambda c: c.degree)
    return classes


def cumulative_degree(params: RcgParams, delta: int) -> Fraction:
    """Exact fraction of vertices with degree >= delta.

    Counted from the degree multiset, not from any asymptotic expression;
    equals (q+1)^{1-k} at delta = kq for 1 <= k <= g.
    """
    if delta < 1:
        raise ValueError("delta must be a positive integer")
    tail = sum(c.count for c in degree_multiset(params) if c.degree >= delta)
    return Fraction(tail, params.vertex_count)


def knn_exact(params: RcgParams, birth: int) -> Fraction:
    """Mean neighbor degree over the class of vertices born at `birth`."""
    q, g = params.q, params.g
    if not (0 <= birth <= g):
        raise ValueError(f"birth {birth} out of range 0..{g}")
    if birth == 0:
        delta0 = q * (g + 1) - 1
        return Fraction(1, 2) * (delta0 + q + Fraction(1 - q, delta0))
    return Fraction(q * (g - birth + 2), 2) + Fraction(
        1 + q - Fraction(2, (q + 1) ** (birth - 1)), q * (g - birth + 1)
    )


def knn_approx(delta: int, q: int) -> float:
    """Large-g approximation (q + delta)/2 + q/delta of the mean neighbor degree."""
    if delta < 1:
        raise ValueError("delta must be a positive integer")
    return 0.5 * (q + delta) + q / delta


def total_distance(params: RcgParams) -> int:
    """Sum of distances over unordered vertex pairs.

    Evaluates both the closed form and the generation recursion and insists
    they agree.
    """
    q, g = params.q, params.g
    qp = q + 1
    closed = Fraction(q, 2) * (
        2 * g * q * q * Fraction(qp ** (2 * g), qp) + qp**g + (q - 2) * qp ** (2 * g)
    )
    if closed.denominator != 1:
        raise InternalInconsistencyError("distance closed form is not an integer")
    recursive = q * (q - 1) // 2
    for step in range(1, g + 1):
        growth = Fraction(q * q, 2) * (2 * q * qp ** (step - 1) - 1) * qp**step
        if growth.denominator != 1:
            raise InternalInconsistencyError("distance growth term is not an integer")
        recursive = qp * qp * recursive + growth.numerator
    if recursive != closed.numerator:
        raise InternalInconsistencyError(
            f"distance recursion {recursive} != closed form {closed.numerator}"
        )
    return closed.numerator


def average_distance(params: RcgParams) -> Fraction:
    """Exact mean distance over unordered vertex pairs.

    Asymptotically mu_g = 2g*q/(q+1) + (q-2)/q + o(1): linear in g, hence
    logarithmic in N. The offset (q-2)/q vanishes only for q = 2, so the
    ratio mu/(2g*q/(q+1)) approaches 1 slowly for larger q (1.036 at
    q = 5, g = 10).
    """
    n = params.vertex_count
    if n < 2:
        raise ValueError("average distance needs at least 2 vertices")
    return Fraction(total_distance(params), n * (n - 1) // 2)


def vertex_clustering(params: RcgParams, birth: int) -> Fraction:
    """Clustering coefficient shared by all vertices of a birth class."""
    q, g = params.q, params.g
    if not (0 <= birth <= g):
        raise ValueError(f"birth {birth} out of range 0..{g}")
    if birth == 0:
        delta0 = q * (g + 1) - 1
        if delta0 < 2:
            # only q=2, g=0: degree-1 vertices, clustering 0 by convention
            return Fraction(0)
        return Fraction((q - 1) * (q - 2) + g * q * (q - 1), delta0 * (delta0 - 1))
    k = g - birth + 1
    return Fraction(q - 1, k * q - 1)


def global_clustering(params: RcgParams) -> Fraction:
    """Exact network clustering coefficient: mean of c(v) over all vertices."""
    q, g = params.q, params.g
    acc = sum(
        Fraction(q - 1, k * q - 1) * q * q * (q + 1) ** (g - k) for k in range(1, g + 1)
    )
    acc += q * vertex_clustering(params, 0)
    return Fraction(acc, params.vertex_count)


def lerch_phi(z: float, a: float, tol: float = 1e-12) -> float:
    """Lerch transcendent at s = 1: sum of z^k/(k+a) for k >= 0.

    Truncated when the geometric tail bound z^{K+1}/((K+1+a)(1-z)) drops
    below tol.
    """
    if not (0 <= z < 1):
        raise ValueError("z must lie in [0, 1)")
    if a <= 0:
        raise ValueError("a must be positive")
    total = 0.0
    term_z = 1.0
    k = 0
    while True:
        total += term_z / (k + a)
        term_z *= z
        k += 1
        if term_z / ((k + a) * (1.0 - z)) < tol:
            break
    return total


def asymptotic_clustering(q: int) -> float:
    """Large-g limit of the network clustering coefficient."""
    if q < 2:
        raise ValueError("q must be >= 2")
    return (q - 1) / (q + 1) * lerch_phi(1.0 / (q + 1), (q - 1) / q)


def spanning_trees_closed(params: RcgParams) -> FactoredCount:
    """Number of spanning trees, q^{q-2} (q+1)^{(q-1)((q+1)^g - 1)}.

    Cross-checked against the generation recursion, which multiplies by
    (q+1)^{(q-1) N_{g-1}} at each step.
    """
    q, g = params.q, params.g
    closed = FactoredCount(q, q - 2, (q - 1) * ((q + 1) ** g - 1))
    exponent = 0
    for step in range(1, g + 1):
        exponent += (q - 1) * q * (q + 1) ** (step - 1)
    if FactoredCount(q, q - 2, exponent) != closed:
        raise InternalInconsistencyError("spanning tree recursion != closed form")
    return closed


def kirchhoff_closed(params: RcgParams) -> Fraction:
    """Kirchhoff index (q^3(2g+1) - 2q - 1)(q+1)^{2g-2} + q(q+1)^{g-1}.

    Cross-checked against the resistance recursion from R(0) = q - 1.
    """
    q, g = params.q, params.g
    qp = q + 1
    closed = (q**3 * (2 * g + 1) - 2 * q - 1) * Fraction(qp ** (2 * g), qp * qp) + q * Fraction(
        qp**g, qp
    )
    recursive = Fraction(q - 1)
    for step in range(g):
        recursive = q * q * (2 * q * qp**step - 1) * qp**step + qp * qp * recursive
    if recursive != closed:
        raise InternalInconsistencyError(
            f"kirchhoff recursion {recursive} != closed form {closed}"
        )
    return closed


@dataclass(frozen=True)
class StructuralReport:
    """All closed-form quantities for one (q, g)."""

    params: RcgParams
    order: int
    size: int
    average_degree: Fraction
    degree_classes: list[DegreeClass]
    total_distance: int
    average_distance: Fraction
    global_clustering: Fraction
    asymptotic_clustering: float
    spanning_trees: FactoredCount
    kirchhoff: Fraction

    def __post_init__(self):
        twice_edges = sum(c.degree * c.count for c in self.degree_classes)
        if twice_edges != 2 * self.size:
            raise InternalInconsistencyError("degree sum != 2M")
        if sum(c.count for c in self.degree_classes) != self.order:
            raise InternalInconsistencyError("class counts do not sum to N")

    def to_json_dict(self) -> dict:
        def frac(x: Fraction) -> dict:
            return {"num": str(x.numerator), "den": str(x.denominator)}

        trees = self.spanning_trees
        # decimal digits only where str() accepts them; a limit of 0 means none
        str_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or math.inf
        if trees.exact and trees.log10 < str_limit - 1:
            spanning_trees = {"digits": str(trees.value)}
        else:
            spanning_trees = {
                "log10": trees.log10,
                "factors": [[trees.q, trees.a], [trees.q + 1, trees.b]],
            }
        return {
            "q": self.params.q,
            "g": self.params.g,
            "order": str(self.order),
            "size": str(self.size),
            "average_degree": frac(self.average_degree),
            "degree_classes": [
                {"degree": c.degree, "count": str(c.count)} for c in self.degree_classes
            ],
            "total_distance": str(self.total_distance),
            "average_distance": frac(self.average_distance),
            "global_clustering": frac(self.global_clustering),
            "asymptotic_clustering": self.asymptotic_clustering,
            "spanning_trees": spanning_trees,
            "kirchhoff": frac(self.kirchhoff),
        }


def structural_report(params: RcgParams) -> StructuralReport:
    return StructuralReport(
        params=params,
        order=order(params),
        size=size(params),
        average_degree=average_degree(params),
        degree_classes=degree_multiset(params),
        total_distance=total_distance(params),
        average_distance=average_distance(params),
        global_clustering=global_clustering(params),
        asymptotic_clustering=asymptotic_clustering(params.q),
        spanning_trees=spanning_trees_closed(params),
        kirchhoff=kirchhoff_closed(params),
    )

"""Closed-form structural quantities of recursive corona graphs.

Every rational quantity is evaluated in exact integer arithmetic: a closed
form with a known denominator is scaled by it (twice the total distance,
(q+1)^2 times the Kirchhoff index, the clustering sum over the lcm of its
class denominators), so each step works on Python ints and a Fraction is
built once, at the return.  Floating point appears only in the Lerch
transcendent, the asymptotic clustering limit and the log10 of counts.

The generation recursions advance together in one walk, `_generations(q)`;
a single-g function reads row g of one walk.  Reading a quantity at a row
compares its recursion with its closed form in integers, so a transcription
error in either one cannot go unnoticed.
"""
from __future__ import annotations

import math
import sys
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from typing import NamedTuple

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
        """log10 of the count; inf once an exponent passes the largest float."""
        try:
            return self.a * math.log10(self.q) + self.b * math.log10(self.q + 1)
        except OverflowError:
            return math.inf

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


def average_degree(params: RcgParams) -> Fraction:
    """2M/N, equal to q + 1 - 2(q+1)^{-g}; tends to q+1 for large g."""
    return _row(params).average_degree()


def degree_multiset(params: RcgParams) -> list[DegreeClass]:
    """All degree classes in ascending degree: degree q(g-b+1) for births
    b = g..1, then the initial vertices of degree q(g+1)-1, the largest."""
    q, g = params.q, params.g
    classes = [DegreeClass(degree=q * (g + 1) - 1, count=q, birth=0)]
    count = q * q  # q^2 (q+1)^{b-1} vertices are born at step b >= 1
    for b in range(1, g + 1):
        classes.append(DegreeClass(degree=q * (g - b + 1), count=count, birth=b))
        count *= q + 1
    return classes[::-1]


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

    Evaluates both the closed form
    q/2 (2g q^2 (q+1)^{2g-1} + (q+1)^g + (q-2)(q+1)^{2g}) and the generation
    recursion, each in integers at twice its value, and insists they agree.
    """
    return _row(params).total_distance()


def average_distance(params: RcgParams) -> Fraction:
    """Exact mean distance over unordered vertex pairs.

    Asymptotically mu_g = 2g*q/(q+1) + (q-2)/q + o(1): linear in g, hence
    logarithmic in N. The offset (q-2)/q vanishes only for q = 2, so the
    ratio mu/(2g*q/(q+1)) approaches 1 slowly for larger q (1.036 at
    q = 5, g = 10).
    """
    return _row(params).average_distance()


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
    """Exact network clustering coefficient: mean of c(v) over all vertices.

    The q^2 (q+1)^{g-k} vertices with k = g-b+1 have c = (q-1)/(kq-1), and
    the q initial ones c(0).  The sum is one integer over the lcm of the
    denominators, carried from generation to generation by Horner's rule in
    q+1 and rescaled by the ratio of successive lcms.
    """
    return _row(params).global_clustering()


def lerch_phi(z: float, a: float) -> float:
    """Lerch transcendent at s = 1: sum of z^k/(k+a) for k >= 0.

    Summed until a term no longer changes the float total; the terms fall
    geometrically, so the tail left out is a few ulps of the sum at most.
    """
    if not (0 <= z < 1):
        raise ValueError("z must lie in [0, 1)")
    if a <= 0:
        raise ValueError("a must be positive")
    total, power, k = 0.0, 1.0, 0
    while (step := total + power / (k + a)) != total:
        total, power, k = step, power * z, k + 1
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
    return _row(params).spanning_trees_closed()


def kirchhoff_closed(params: RcgParams) -> Fraction:
    """Kirchhoff index (q^3(2g+1) - 2q - 1)(q+1)^{2g-2} + q(q+1)^{g-1}.

    Cross-checked against the resistance recursion from R(0) = q - 1, which
    is integer throughout, by comparing (q+1)^2 times each.
    """
    return _row(params).kirchhoff_closed()


class _Row(NamedTuple):
    """Generation g of the walk: integer state, read lazily per quantity."""

    q: int
    g: int
    power: int  # (q+1)^g
    square: int  # (q+1)^{2g}
    distance: int  # total distance, by the recursion
    kirchhoff: int  # Kirchhoff index, by the resistance recursion (an integer)
    trees: int  # exponent b of the spanning-tree count q^{q-2} (q+1)^b
    lcm: int  # lcm of kq - 1 for k = 1..g
    clustering: int  # sum over k = 1..g of lcm/(kq-1) (q+1)^{g-k}

    def average_degree(self) -> Fraction:
        q, params = self.q, RcgParams(self.q, self.g)
        twice_edges, n = 2 * params.edge_count, params.vertex_count
        # together these give 2M (q+1)^g = ((q+1) (q+1)^g - 2) N, in linear time
        if n != q * self.power or twice_edges != (q + 1) * n - 2 * q:
            raise InternalInconsistencyError("average degree identities disagree")
        return Fraction(twice_edges, n)

    def total_distance(self) -> int:
        q, p, square = self.q, self.power, self.square
        # (q+1)^{2g-1} as square // (q+1); its factor 2g is 0 at g = 0
        twice_closed = q * (2 * self.g * q * q * square // (q + 1) + p + (q - 2) * square)
        if 2 * self.distance != twice_closed:
            raise InternalInconsistencyError("distance recursion != closed form")
        return self.distance

    def average_distance(self) -> Fraction:
        # N >= q >= 2, so there is at least one pair; N(N-1) = q^2 square - N
        n = self.q * self.power
        return Fraction(self.total_distance(), (self.q * self.q * self.square - n) // 2)

    def kirchhoff_closed(self) -> Fraction:
        q, qp = self.q, self.q + 1
        # (q+1)^2 times the closed form: an integer at every g, g = 0 included
        scaled = (q**3 * (2 * self.g + 1) - 2 * q - 1) * self.square + q * self.power * qp
        if qp * qp * self.kirchhoff != scaled:
            raise InternalInconsistencyError("kirchhoff recursion != closed form")
        return Fraction(self.kirchhoff)

    def spanning_trees_closed(self) -> FactoredCount:
        if self.trees != (self.q - 1) * (self.power - 1):
            raise InternalInconsistencyError("spanning tree recursion != closed form")
        return FactoredCount(self.q, self.q - 2, self.trees)

    def global_clustering(self) -> Fraction:
        q, lcm, initial = self.q, self.lcm, vertex_clustering(RcgParams(self.q, self.g), 0)
        numerator = (q - 1) * q * q * self.clustering * initial.denominator
        numerator += q * initial.numerator * lcm  # the c(0) term
        return Fraction(numerator, lcm * initial.denominator * q * self.power)


def _generations(q: int, first: int = 0) -> Iterator[_Row]:
    """Rows g = first, first + 1, ...: the only code that advances generation state.

    A step costs a few products with small integers, one exact division by
    one and one gcd with one; rows before `first` are stepped over, not built.
    """
    qp, qp2, q2, births = q + 1, (q + 1) ** 2, q * q, (q - 1) * q
    p, square, distance, kirchhoff, trees, lcm, clustering = 1, 1, q * (q - 1) // 2, q - 1, 0, 1, 0
    for g in count():
        if g >= first:
            yield _Row(q, g, p, square, distance, kirchhoff, trees, lcm, clustering)
        # step g + 1 reads (q+1)^g and its square; q(q+1) is even
        growth = q2 * (2 * q * square - p)
        distance = qp2 * distance + qp * growth // 2
        kirchhoff = qp2 * kirchhoff + growth
        trees += births * p
        k = (g + 1) * q - 1
        ratio = k // math.gcd(lcm, k)
        lcm *= ratio
        clustering = clustering * qp * ratio + lcm // k
        p, square = p * qp, square * qp2


def _row(params: RcgParams) -> _Row:
    """Row g of one walk."""
    return next(_generations(params.q, params.g))


def str_digit_limit() -> int:
    """The interpreter's int->str digit limit; 0 where it sets none."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def fits_digits(params: RcgParams, quantity: str, limit: int) -> bool:
    """Whether every integer in the exact value of `quantity` has at most
    `limit` decimal digits, decided from (q, g) before any of it is computed.

    `quantity` names a function of this module, or "structural_report" for
    all of them.  Each answer comes from an upper bound, at least N:
    - 2M and every count lie below (q+1) N;
    - the mean distance is T/(N-1) with T = 2 total_distance/(q (q+1)^g),
      at most the diameter 2g+1, so its terms lie below (2g+1) N;
    - the total distance, and the Kirchhoff index below it (a resistance is
      at most the distance), lie below (g+1) N^2;
    - the clustering denominator divides N lcm(kq-1 for k = 1..g, c(0)'s
      denominator), and its numerator is smaller.
    """
    q, g = params.q, params.g
    try:
        log_n = math.log10(q) + g * math.log10(q + 1)
    except OverflowError:
        return False
    if log_n >= limit - 1:  # every bound is at least N: skip the lcm
        return False
    distances = 2 * log_n + math.log10(g + 1)
    if quantity == "average_degree":
        bound = log_n + math.log10(q + 1)
    elif quantity == "average_distance":
        bound = log_n + math.log10(2 * g + 1)
    elif quantity in ("total_distance", "kirchhoff_closed"):
        bound = distances
    elif quantity in ("global_clustering", "structural_report"):
        lcm = math.lcm(vertex_clustering(params, 0).denominator, *range(q - 1, g * q, q))
        bound = log_n + math.log10(lcm)
        if quantity == "structural_report":
            bound = max(bound, distances)
    else:
        raise ValueError(f"no digit bound for {quantity!r}")
    # one digit of slack absorbs the rounding of the float logarithms
    return bound < limit - 1


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
        log10 = trees.log10
        # decimal digits only where str() accepts them; a limit of 0 means none
        if trees.exact and log10 < (str_digit_limit() or math.inf) - 1:
            spanning_trees = {"digits": str(trees.value)}
        else:
            # the exponents are exact; log10 is left out where it is not finite
            spanning_trees = {"log10": log10} if math.isfinite(log10) else {}
            spanning_trees["factors"] = [[trees.q, trees.a], [trees.q + 1, trees.b]]
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
    row = _row(params)
    return StructuralReport(
        params=params,
        order=params.vertex_count,
        size=params.edge_count,
        average_degree=row.average_degree(),
        degree_classes=degree_multiset(params),
        total_distance=row.total_distance(),
        average_distance=row.average_distance(),
        global_clustering=row.global_clustering(),
        asymptotic_clustering=asymptotic_clustering(params.q),
        spanning_trees=row.spanning_trees_closed(),
        kirchhoff=row.kirchhoff_closed(),
    )

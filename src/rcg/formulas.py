"""Closed-form structural quantities of recursive corona graphs.

Every rational quantity is an exact (numerator, denominator) pair of ints
that `_lowest` puts in lowest terms by a small integer that its reader names,
one that every prime common to the two divides; `curve` yields the pairs,
and a single read or the report builds a Fraction from one.  Floating point
appears only in the Lerch transcendent, the asymptotic clustering limit and
the log10 of counts.

One walk, `_generations(q)`, steps (q+1)^g, its square and the clustering
sum, which has no closed form; a single-g function reads row g of one walk.
The total distance, the Kirchhoff index and the spanning-tree exponent are
their closed forms in (q+1)^g and its square, with no second route at run
time: tests/test_formulas.py proves each equal to its generation recursion
at every (q, g).

Decimal output keeps to one bound, `graphs.str_digit_limit()`, read through
the module on every call.  `check_digits` is the one refusal of an output
past it; `StructuralReport.to_json_dict` raises it where int->str fails, and
writes the spanning-tree count in factors where its digits would pass it.
"""
from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import count, takewhile
from typing import NamedTuple

from . import graphs
from .errors import InternalInconsistencyError, ResourceLimitError
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
    def value(self) -> int | None:
        """The integer, built on each access; None from MAX_VALUE_DIGITS digits on."""
        return self.q**self.a * (self.q + 1) ** self.b if self.log10 < MAX_VALUE_DIGITS else None


# the benchmark's tracer (perfbench/tracing.py) looks counts up by this name
BigCount = FactoredCount


class DegreeClass(NamedTuple):
    """One degree value, how many vertices carry it, and their birth step."""

    degree: int
    count: int
    birth: int


def average_degree(params: RcgParams) -> Fraction:
    """2M/N, equal to q + 1 - 2(q+1)^{-g}; tends to q+1 for large g."""
    return Fraction(*_row(params).average_degree())


def degree_multiset(params: RcgParams) -> list[DegreeClass]:
    """All degree classes in ascending degree: degree q(g-b+1) for births
    b = g..1, then the initial vertices of degree q(g+1)-1, the largest."""
    return list(_degree_classes(params))[::-1]


def _degree_classes(params: RcgParams) -> Iterator[DegreeClass]:
    """The degree classes by birth b = 0..g, so in descending degree."""
    q, g, count = params.q, params.g, params.q  # q initial vertices
    for b in range(g + 1):
        yield DegreeClass(_class_degree(q, g, b), count, b)
        count = q * q if b == 0 else count * (q + 1)  # q^2 (q+1)^{b-1} born at b >= 1


def _class_degree(q: int, g: int, b: int) -> int:
    return q * (g + 1) - 1 if b == 0 else q * (g - b + 1)


def _birth_class(params: RcgParams, birth: int) -> tuple[int, int]:
    """`birth` as an int in 0..g, and its class degree; only a refusal formats text."""
    b = graphs._checked_int(birth, 0, "birth {value} out of range 0..{high}", params.g)
    return b, _class_degree(params.q, params.g, b)


def cumulative_degree(params: RcgParams, delta: int) -> Fraction:
    """Exact fraction of vertices with degree >= delta.

    Summed over the classes from the largest degree down to the first below
    delta; equals (q+1)^{1-k} at delta = kq for 1 <= k <= g.
    """
    delta = graphs._checked_int(delta, 1, "delta must be a positive integer")
    tail = takewhile(lambda c: c.degree >= delta, _degree_classes(params))
    return Fraction(sum(c.count for c in tail), params.vertex_count)


def knn_exact(params: RcgParams, birth: int) -> Fraction:
    """Mean neighbor degree over the class born at `birth`: (delta + q)/2 + t/delta."""
    q, (birth, delta) = params.q, _birth_class(params, birth)
    t = Fraction(1 - q, 2) if birth == 0 else 1 + q - Fraction(2, (q + 1) ** (birth - 1))
    return Fraction(delta + q, 2) + t / delta


def knn_approx(delta: int, q: int) -> float:
    """Large-g approximation (q + delta)/2 + q/delta of the mean neighbor degree."""
    delta = graphs._checked_int(delta, 1, "delta must be a positive integer")
    q = graphs._checked_int(q, 2, "q must be >= 2")
    return 0.5 * (q + delta) + q / delta


def total_distance(params: RcgParams) -> int:
    """Sum of distances over unordered vertex pairs, by the closed form
    q/2 (2g q^2 (q+1)^{2g-1} + (q+1)^g + (q-2)(q+1)^{2g}), in integers at
    twice its value; it equals the generation recursion at every g.
    """
    return _row(params).total_distance()


def average_distance(params: RcgParams) -> Fraction:
    """Exact mean distance over unordered vertex pairs.

    Asymptotically mu_g = 2g*q/(q+1) + (q-2)/q + o(1): linear in g, hence
    logarithmic in N. The offset (q-2)/q vanishes only for q = 2, so the
    ratio mu/(2g*q/(q+1)) approaches 1 slowly for larger q (1.036 at
    q = 5, g = 10).
    """
    return Fraction(*_row(params).average_distance())


def vertex_clustering(params: RcgParams, birth: int) -> Fraction:
    """Clustering coefficient shared by all vertices of a birth class."""
    q, (birth, delta) = params.q, _birth_class(params, birth)
    # (q-1)/delta at birth 0, else (q-1)/(delta-1); degree 1 only at (2, 0), where c = 0
    return Fraction(q - 1, delta - (birth > 0)) if delta > 1 else Fraction(0)


def global_clustering(params: RcgParams) -> Fraction:
    """Exact network clustering coefficient: mean of c(v) over all vertices.

    The q^2 (q+1)^{g-k} vertices with k = g-b+1 have c = (q-1)/(kq-1), and
    the q initial ones c(0).  The sum S of (q+1)^{g-k}/(kq-1) is carried from
    generation to generation by Horner's rule in q+1, in lowest terms.
    """
    return Fraction(*_row(params).global_clustering())


def lerch_phi(z: float, a: float) -> float:
    """Lerch transcendent at s = 1: sum of z^k/(k+a) for k >= 0.

    Summed until a term no longer changes the float total; the terms fall
    geometrically, so the tail left out is a few ulps of the sum at most.
    """
    if not (0 <= z < 1):
        raise ValueError("z must lie in [0, 1)")
    if not a > 0:  # NaN too, whose sum would never settle
        raise ValueError("a must be positive")
    total, power, k = 0.0, 1.0, 0
    while (step := total + power / (k + a)) != total:
        total, power, k = step, power * z, k + 1
    return total


def asymptotic_clustering(q: int) -> float:
    """Large-g limit of the network clustering coefficient, from int divisions at any q."""
    q = graphs._checked_int(q, 2, "q must be >= 2")
    return (q - 1) / (q + 1) * lerch_phi(1 / (q + 1), (q - 1) / q)


def spanning_trees_closed(params: RcgParams) -> FactoredCount:
    """Number of spanning trees, q^{q-2} (q+1)^{(q-1)((q+1)^g - 1)}.

    Equal at every g to the generation recursion, which multiplies by
    (q+1)^{(q-1) N_{g-1}} at each step.
    """
    return _row(params).spanning_trees_closed()


def kirchhoff_closed(params: RcgParams) -> Fraction:
    """Kirchhoff index (q^3(2g+1) - 2q - 1)(q+1)^{2g-2} + q(q+1)^{g-1}.

    Equal at every g to the resistance recursion from R(0) = q - 1, which is
    integer throughout; evaluated as (q+1)^2 times the form.
    """
    return Fraction(*_row(params).kirchhoff_closed())


def _lowest(num: int, den: int, small: int) -> tuple[int, int]:
    """num/den in lowest terms, where every prime common to the two divides `small`."""
    while (common := math.gcd(math.gcd(num, small), den)) > 1:
        num, den = num // common, den // common
    return num, den


class _Row(NamedTuple):
    """Generation g of the walk; a reader of a ratio returns it as a pair in lowest terms."""

    q: int
    g: int
    power: int  # (q+1)^g
    square: int  # (q+1)^{2g}
    clustering: tuple[int, int]  # sum over k = 1..g of (q+1)^{g-k}/(kq-1), in lowest terms

    def average_degree(self) -> tuple[int, int]:
        q, n = self.q, self.q * self.power
        # 2M = (q+1) N - 2q, no product of two large integers; a prime of 2M and N divides 2q
        return _lowest((q + 1) * n - 2 * q, n, 2 * q)

    def total_distance(self) -> int:
        q, p, square = self.q, self.power, self.square
        # (q+1)^{2g-1} as square // (q+1), exact since its factor 2g is 0 at g = 0;
        # twice the total is even, as the recursion is integer
        return q * (2 * self.g * q * q * square // (q + 1) + p + (q - 2) * square) // 2

    def average_distance(self) -> tuple[int, int]:
        q, g, p = self.q, self.g, self.power
        # T / C(N, 2) = X / (N - 1), X = 2T / N (`// (q+1)` exact: 2g is 0 at g = 0);
        # q (q+1) X - c is a multiple of N - 1 = qP - 1, so a prime of both divides c
        x = 2 * g * q * q * p // (q + 1) + 1 + (q - 2) * p
        return _lowest(x, q * p - 1, 2 * g * q * q + (2 * q - 2) * (q + 1))

    def kirchhoff_closed(self) -> tuple[int, int]:
        q, qp = self.q, self.q + 1
        # (q+1)^2 times the closed form, at every g, g = 0 included; the index
        # is an integer, as the resistance recursion is
        scaled = (q**3 * (2 * self.g + 1) - 2 * q - 1) * self.square + q * self.power * qp
        return scaled // (qp * qp), 1

    def spanning_trees_closed(self) -> FactoredCount:
        return FactoredCount(self.q, self.q - 2, (self.q - 1) * (self.power - 1))

    def global_clustering(self) -> tuple[int, int]:
        q, (a, d), k = self.q, self.clustering, (self.g + 1) * self.q - 1
        # ((q-1) q^2 S + q c(0)) / (qP) with S = a/d, and c(0) = (q-1)/k at the initial degree
        # k, but 0 where k = 1; a prime of both divides k, q+1, or d and then q-1 (not a, q)
        return _lowest((q - 1) * (q * k * a + (k > 1) * d), d * k * self.power, (q * q - 1) * k)


def _generations(q: int, first: int = 0) -> Iterator[_Row]:
    """Rows g = first, first + 1, ...: the only code that advances generation state;
    rows before `first` are stepped over, not built.  It steps (q+1)^g, its square and
    the clustering sum S = a/d, which is not C-finite: S' = (q+1) S + 1/k, k = (g+1)q - 1,
    and a prime of both d k and (q+1) a k + d divides k, or d but not a, so (q+1) k.
    """
    qp, qp2 = q + 1, (q + 1) ** 2
    p, square, clustering = 1, 1, (0, 1)
    for g in count():
        if g >= first:
            yield _Row(q, g, p, square, clustering)
        k, (a, d) = (g + 1) * q - 1, clustering
        clustering = _lowest(a * (qp * k) + d, d * k, qp * k)
        p, square = p * qp, square * qp2


def _row(params: RcgParams) -> _Row:
    """Row g of one walk."""
    return next(_generations(params.q, params.g))


def _clustering_digits(q: int, g: int, log_n: float) -> float:
    lcm = math.lcm(vertex_clustering(RcgParams(q, g), 0).denominator, *range(q - 1, g * q, q))
    return log_n + math.log10(lcm)


# each quantity read from the walk: (its reader at a row, a bound from (q, g, log10 N),
# at least log10 N, on the decimal digits of every integer of its exact value)
_WALK = {
    # 2M and every count lie below (q+1) N
    "average_degree": (_Row.average_degree, lambda q, g, n: n + math.log10(q + 1)),
    # T/(N-1), with T = 2 total_distance/(q (q+1)^g) at most the diameter 2g+1
    "average_distance": (_Row.average_distance, lambda q, g, n: n + math.log10(2 * g + 1)),
    # below (g+1) N^2, and a resistance is at most the distance
    "total_distance": (_Row.total_distance, lambda q, g, n: 2 * n + math.log10(g + 1)),
    "kirchhoff_closed": (_Row.kirchhoff_closed, lambda q, g, n: 2 * n + math.log10(g + 1)),
    # N lcm(kq-1 for k = 1..g, c(0)'s denominator) is a multiple of the denominator
    "global_clustering": (_Row.global_clustering, _clustering_digits),
}


def curve(q: int, quantity: str) -> Iterator:
    """`quantity`, a key of `_WALK`, at g = 0, 1, 2, ... of one walk: a reduced pair, or an int."""
    return map(_WALK[quantity][0], _generations(q))


def check_digits(params: RcgParams, quantity: str) -> None:
    """Refuse, from (q, g) before any of it is computed, an exact value of
    `quantity` that may hold an integer of more decimal digits than
    `graphs.str_digit_limit()`: the one refusal of `analyze` and `curve`.
    `quantity` is a key of `_WALK`, or "structural_report" for the largest of
    their bounds; any other name raises ValueError at every (q, g)."""
    bounds = [row[1] for name, row in _WALK.items() if quantity in (name, "structural_report")]
    if not bounds:
        raise ValueError(f"no digit bound for {quantity!r}")
    q, g, limit = params.q, params.g, graphs.str_digit_limit()
    log_n = FactoredCount(q, 1, g).log10  # N = q (q+1)^g
    # each bound is at least log10 N: past the limit none (and no lcm) is formed;
    # one digit of slack absorbs the rounding of the float logarithms
    if log_n >= limit - 1 or max(digits(q, g, log_n) for digits in bounds) >= limit - 1:
        raise ResourceLimitError(
            f"{quantity} of (q={graphs._name(q)}, g={graphs._name(g)}) may hold integers of "
            f"more than {limit} digits, the int->str limit"
        )


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
        # decimal digits only within the int->str limit, and only where
        # `value` builds the integer
        if log10 < min(MAX_VALUE_DIGITS, graphs.str_digit_limit() - 1):
            spanning_trees = {"digits": str(trees.value)}
        else:
            # the exponents are exact; log10 is left out where it is not finite
            spanning_trees = {"log10": log10} if math.isfinite(log10) else {}
            spanning_trees["factors"] = [[trees.q, trees.a], [trees.q + 1, trees.b]]
        try:
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
        except ValueError:
            check_digits(self.params, "structural_report")
            raise


def structural_report(params: RcgParams) -> StructuralReport:
    row = _row(params)
    return StructuralReport(
        params=params,
        order=params.vertex_count,
        size=params.edge_count,
        average_degree=Fraction(*row.average_degree()),
        degree_classes=degree_multiset(params),
        total_distance=row.total_distance(),
        average_distance=Fraction(*row.average_distance()),
        global_clustering=Fraction(*row.global_clustering()),
        asymptotic_clustering=asymptotic_clustering(params.q),
        spanning_trees=row.spanning_trees_closed(),
        kirchhoff=Fraction(*row.kirchhoff_closed()),
    )

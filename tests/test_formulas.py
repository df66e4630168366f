import math
import re
import sys
import types
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest
import sympy

from rcg import (
    FactoredCount,
    RcgParams,
    asymptotic_clustering,
    average_degree,
    average_distance,
    build_rcg,
    child_pair,
    cumulative_degree,
    degree_multiset,
    formulas,
    global_clustering,
    kirchhoff_closed,
    kirchhoff_spectral,
    knn_approx,
    knn_exact,
    lerch_phi,
    spanning_trees_closed,
    structural_report,
    total_distance,
    vertex_clustering,
)
from rcg.errors import ResourceLimitError
from rcg.formulas import _WALK, DegreeClass, check_digits
from rcg.oracle import (
    bfs_total_distance,
    degree_histogram,
    local_clustering,
    matrix_tree_count,
    mean_neighbor_degree_by_class,
    resistance_sum,
)

from reference import laplacian_reciprocal_sum, lcm_walk, reference_walk

GRID = [(q, g) for q in (2, 3, 4, 5) for g in (0, 1, 2)] + [(2, 3)]


class TestOrderSize:
    @pytest.mark.parametrize(
        "q,g,n,m,mean",
        [
            (2, 0, 2, 1, Fraction(1)),
            (2, 1, 6, 7, Fraction(7, 3)),
            (3, 1, 12, 21, Fraction(7, 2)),
        ],
    )
    def test_examples(self, q, g, n, m, mean):
        params = RcgParams(q, g)
        assert params.vertex_count == n
        assert params.edge_count == m
        assert average_degree(params) == mean

    @pytest.mark.parametrize("q,g", GRID)
    def test_matches_construction(self, q, g):
        params = RcgParams(q, g)
        cg = build_rcg(params)
        assert params.vertex_count == cg.graph.vertex_count
        assert params.edge_count == cg.graph.edge_count


class TestDegreeMultiset:
    def test_k2(self):
        classes = degree_multiset(RcgParams(2, 0))
        assert [(c.degree, c.count) for c in classes] == [(1, 2)]

    def test_q2_g2(self):
        classes = degree_multiset(RcgParams(2, 2))
        assert {(c.degree, c.count) for c in classes} == {(2, 12), (4, 4), (5, 2)}

    def test_q3_g1(self):
        classes = degree_multiset(RcgParams(3, 1))
        assert {(c.degree, c.count) for c in classes} == {(3, 9), (5, 3)}

    @pytest.mark.parametrize("q,g", GRID)
    def test_bookkeeping_and_histogram(self, q, g):
        params = RcgParams(q, g)
        classes = degree_multiset(params)
        assert sum(c.count for c in classes) == params.vertex_count
        assert sum(c.degree * c.count for c in classes) == 2 * params.edge_count
        measured = degree_histogram(build_rcg(params).graph)
        assert measured == {c.degree: c.count for c in classes}

    @pytest.mark.parametrize("q", [2, 3, 7, 10])
    def test_class_sums_to_g_300(self, q):
        # the two sums that `TestDegreeClassSums` proves from the class rule,
        # read off the classes the library builds, at every g to 300
        for g in range(301):
            params = RcgParams(q, g)
            classes = degree_multiset(params)
            assert sum(c.count for c in classes) == params.vertex_count, g
            assert sum(c.degree * c.count for c in classes) == 2 * params.edge_count, g

    @pytest.mark.parametrize("q,g", [(2, 3), (4, 2)])
    def test_birth_class_shape(self, q, g):
        for c in degree_multiset(RcgParams(q, g)):
            if c.birth == 0:
                assert (c.degree, c.count) == (q * (g + 1) - 1, q)
            else:
                assert c.degree == q * (g - c.birth + 1)
                assert c.count == q * q * (q + 1) ** (c.birth - 1)


class TestCumulativeDegree:
    def test_below_minimum_degree_is_one(self):
        assert cumulative_degree(RcgParams(2, 2), 2) == 1

    def test_q2_g2(self):
        params = RcgParams(2, 2)
        assert cumulative_degree(params, 4) == Fraction(1, 3)
        assert cumulative_degree(params, 5) == Fraction(1, 9)

    def test_beyond_max_degree_is_zero(self):
        assert cumulative_degree(RcgParams(2, 2), 6) == 0

    @pytest.mark.parametrize("q,g", [(2, 3), (3, 3), (5, 4)])
    def test_exponential_form_at_class_degrees(self, q, g):
        params = RcgParams(q, g)
        for k in range(1, g + 1):
            assert cumulative_degree(params, k * q) == Fraction(1, (q + 1) ** (k - 1))

    def test_rejects_nonpositive_delta(self):
        with pytest.raises(ValueError):
            cumulative_degree(RcgParams(2, 1), 0)

    @pytest.mark.parametrize("q,g", GRID)
    def test_equals_the_multiset_tail(self, q, g):
        params = RcgParams(q, g)
        classes = degree_multiset(params)
        for delta in range(1, max(c.degree for c in classes) + 2):
            tail = sum(c.count for c in classes if c.degree >= delta)
            assert cumulative_degree(params, delta) == Fraction(tail, params.vertex_count)

    def test_builds_only_the_tail_and_the_first_class_below(self, monkeypatch):
        # at delta = 2g only the births 0 and 1 reach delta; birth 2 stops
        # the walk, and the other 998 classes are never built
        from rcg import formulas

        built = []

        def counted(*args, **kwargs):
            built.append(DegreeClass(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(formulas, "DegreeClass", counted)
        params = RcgParams(2, 1000)
        assert cumulative_degree(params, 2000) == Fraction(2 + 4, params.vertex_count)
        assert [c.birth for c in built] == [0, 1, 2]


class TestKnn:
    def test_examples(self):
        assert knn_exact(RcgParams(2, 1), 1) == Fraction(5, 2)
        assert knn_exact(RcgParams(2, 1), 0) == Fraction(7, 3)
        assert knn_exact(RcgParams(3, 0), 0) == 2

    def test_rejects_bad_birth(self):
        with pytest.raises(ValueError):
            knn_exact(RcgParams(2, 1), 2)

    @pytest.mark.parametrize("q", [2, 3])
    @pytest.mark.parametrize("g", [0, 1, 2, 3])
    def test_matches_oracle_class_means(self, q, g):
        params = RcgParams(q, g)
        measured = mean_neighbor_degree_by_class(build_rcg(params))
        for b in range(g + 1):
            assert knn_exact(params, b) == measured[b]

    # (2, 1) is a genuine counterexample to monotonicity: the initial
    # vertices there have mean neighbor degree 7/3 < 5/2 despite their
    # higher degree; monotonicity sets in from g = 2 for q = 2
    @pytest.mark.parametrize("q,g", [(2, 2), (2, 3), (3, 1), (3, 2), (5, 3)])
    def test_assortative(self, q, g):
        params = RcgParams(q, g)
        # higher-degree classes have higher mean neighbor degree
        by_degree = sorted(
            (c.degree, knn_exact(params, c.birth)) for c in degree_multiset(params)
        )
        values = [v for _, v in by_degree]
        assert values == sorted(values)

    def test_approx_rejects_nonpositive_delta(self):
        for delta in (0, -2):
            with pytest.raises(ValueError, match="positive integer"):
                knn_approx(delta, 2)

    def test_approx_examples(self):
        assert knn_approx(2, 2) == 3.0
        assert knn_approx(3, 3) == 4.0

    def test_approx_leading_term(self):
        deltas = [10, 100, 1000, 10000]
        assert all(
            knn_approx(d, 4) < knn_approx(d2, 4) for d, d2 in zip(deltas, deltas[1:])
        )
        assert knn_approx(10**6, 4) / (10**6 / 2) == pytest.approx(1.0, rel=1e-5)


class TestDistance:
    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_generation_zero(self, q):
        params = RcgParams(q, 0)
        assert total_distance(params) == q * (q - 1) // 2
        assert average_distance(params) == 1

    def test_q2_g1(self):
        params = RcgParams(2, 1)
        assert total_distance(params) == 27
        assert average_distance(params) == Fraction(9, 5)

    @pytest.mark.parametrize("q,g", GRID)
    def test_matches_bfs(self, q, g):
        params = RcgParams(q, g)
        assert total_distance(params) == bfs_total_distance(build_rcg(params).graph)

    @pytest.mark.parametrize(
        "q,generations", [(2, [*range(41), 3000]), (3, range(41)), (4, range(41)), (5, range(41))]
    )
    def test_mean_is_total_over_pairs(self, q, generations):
        # the mean is reduced as 2T/N over N - 1; it must equal T over C(N, 2)
        for g in generations:
            params = RcgParams(q, g)
            n = params.vertex_count
            assert average_distance(params) == Fraction(total_distance(params), n * (n - 1) // 2)


class TestClustering:
    @pytest.mark.parametrize("q,g", [(2, 1), (3, 2), (5, 3)])
    def test_newest_vertices_fully_clustered(self, q, g):
        assert vertex_clustering(RcgParams(q, g), g) == 1

    def test_examples(self):
        assert vertex_clustering(RcgParams(2, 1), 0) == Fraction(1, 3)
        assert vertex_clustering(RcgParams(3, 2), 1) == Fraction(2, 5)

    def test_degree_one_convention(self):
        assert vertex_clustering(RcgParams(2, 0), 0) == 0
        assert global_clustering(RcgParams(2, 0)) == 0

    def test_rejects_bad_birth(self):
        with pytest.raises(ValueError):
            vertex_clustering(RcgParams(2, 1), -1)

    def test_global_examples(self):
        assert global_clustering(RcgParams(3, 0)) == 1
        assert global_clustering(RcgParams(2, 1)) == Fraction(7, 9)

    @pytest.mark.parametrize("q,g", GRID)
    def test_matches_oracle(self, q, g):
        params = RcgParams(q, g)
        cg = build_rcg(params)
        local = local_clustering(cg.graph)
        for v in range(cg.graph.vertex_count):
            assert local[v] == vertex_clustering(params, cg.birth[v])
        mean = sum(local, Fraction(0)) / cg.graph.vertex_count
        assert global_clustering(params) == mean


class TestLerchPhi:
    def test_z_zero(self):
        assert lerch_phi(0.0, 2.0) == 0.5

    def test_log_identity(self):
        # sum z^k/(k+1) = -ln(1-z)/z
        assert lerch_phi(0.5, 1.0) == pytest.approx(2 * math.log(2), abs=1e-12)
        assert lerch_phi(0.25, 1.0) == pytest.approx(-math.log(0.75) / 0.25, abs=1e-12)

    def test_partial_sum_value(self):
        # reference frozen from mpmath.lerchphi(1/3, 1, 1/2)
        assert lerch_phi(1 / 3, 0.5) == pytest.approx(2.28103798890284, abs=1e-10)

    @pytest.mark.parametrize("z,a", [(0.5, 1.0), (1 / 3, 0.5), (0.9, 2.5)])
    def test_truncation_bound_against_longer_reference(self, z, a):
        # reference: the full series to 40 digits
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            reference = float(mpmath.lerchphi(z, 1, a))
        assert abs(lerch_phi(z, a) - reference) <= 4 * math.ulp(reference)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            lerch_phi(1.0, 1.0)
        with pytest.raises(ValueError):
            lerch_phi(0.5, 0.0)

    @pytest.mark.parametrize("a", [-1.0, float("nan"), -math.inf])
    def test_refuses_a_not_above_zero(self, a):
        # a NaN total never stops changing, so the sum would never return
        with pytest.raises(ValueError, match="a must be positive"):
            lerch_phi(0.5, a)


class TestAsymptoticClustering:
    def test_q2_value(self):
        assert asymptotic_clustering(2) == pytest.approx(0.7603, abs=1e-3)

    def test_matches_large_g_limit(self):
        limit = float(global_clustering(RcgParams(2, 12)))
        assert asymptotic_clustering(2) == pytest.approx(limit, abs=1e-3)

    def test_strictly_increasing_in_q(self):
        values = [asymptotic_clustering(q) for q in range(2, 7)]
        assert values == sorted(values)
        assert len(set(values)) == len(values)

    def test_tends_to_one(self):
        assert asymptotic_clustering(200) > 0.99

    @pytest.mark.parametrize("q", [2**1023, 2**1024, 10**400], ids=["2^1023", "2^1024", "10^400"])
    def test_past_the_largest_float(self, q):
        # ints divide exactly, so no q is turned into a float that overflows
        assert asymptotic_clustering(q) == 1.0

    def test_rejects_q_below_two(self):
        for q in (1, 0):
            with pytest.raises(ValueError, match="q must be >= 2"):
                asymptotic_clustering(q)

    @pytest.mark.parametrize("q", [2, 3, 5, 10])
    def test_equals_exact_value_at_large_g(self, q):
        # the exact value at g = 200 is the limit to far below one ulp
        exact = float(global_clustering(RcgParams(q, 200)))
        assert abs(asymptotic_clustering(q) - exact) <= 4 * math.ulp(exact)


class TestSpanningTrees:
    def test_generation_zero_cayley(self):
        assert spanning_trees_closed(RcgParams(3, 0)).value == 3
        assert spanning_trees_closed(RcgParams(5, 0)).value == 125

    def test_examples(self):
        assert spanning_trees_closed(RcgParams(2, 1)).value == 9
        assert spanning_trees_closed(RcgParams(2, 2)).value == 6561

    @pytest.mark.parametrize("q,g", GRID)
    def test_matches_matrix_tree_oracle(self, q, g):
        params = RcgParams(q, g)
        assert (
            spanning_trees_closed(params).value
            == matrix_tree_count(build_rcg(params).graph)
        )

    def test_digit_cap_returns_log10_only(self):
        result = spanning_trees_closed(RcgParams(3, 20))
        assert result.value is None
        expected_log10 = (3 - 2) * math.log10(3) + 2 * (4**20 - 1) * math.log10(4)
        assert result.log10 == pytest.approx(expected_log10, rel=1e-12)

    def test_log10_accuracy(self):
        result = spanning_trees_closed(RcgParams(2, 3))
        assert result.log10 == pytest.approx(math.log10(result.value), abs=1e-9)


class TestKirchhoff:
    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    def test_generation_zero(self, q):
        assert kirchhoff_closed(RcgParams(q, 0)) == q - 1

    def test_examples(self):
        assert kirchhoff_closed(RcgParams(2, 1)) == 21
        assert kirchhoff_closed(RcgParams(2, 2)) == 321

    @pytest.mark.parametrize("q,g", GRID)
    def test_always_integer(self, q, g):
        assert kirchhoff_closed(RcgParams(q, g)).denominator == 1

    @pytest.mark.parametrize("q,g", [(2, 1), (2, 2), (3, 1), (4, 1)])
    def test_matches_resistance_oracle(self, q, g):
        params = RcgParams(q, g)
        assert resistance_sum(build_rcg(params).graph) == kirchhoff_closed(params)

    def test_leading_behavior(self):
        # R / (N^2 log_{q+1} N) settles: within 5% between g=6 and g=8 for q=2
        def ratio(g):
            params = RcgParams(2, g)
            n = params.vertex_count
            return float(kirchhoff_closed(params)) / (n * n * math.log(n, 3))

        assert abs(ratio(8) / ratio(6) - 1) < 0.05


class TestStructuralReport:
    def test_json_shape(self):
        payload = structural_report(RcgParams(2, 1)).to_json_dict()
        assert payload["order"] == "6"
        assert payload["size"] == "7"
        assert payload["average_degree"] == {"num": "7", "den": "3"}
        assert payload["kirchhoff"] == {"num": "21", "den": "1"}
        assert payload["spanning_trees"] == {"digits": "9"}
        assert payload["degree_classes"] == [
            {"degree": 2, "count": "4"},
            {"degree": 3, "count": "2"},
        ]

    def test_inexact_spanning_trees_serialization(self):
        payload = structural_report(RcgParams(3, 10)).to_json_dict()
        assert "log10" in payload["spanning_trees"]
        assert payload["spanning_trees"]["factors"] == [[3, 1], [4, 2 * (4**10 - 1)]]

    def test_past_the_str_limit_refuses_as_check_digits(self, str_limit):
        # the report of (2, 5000) is built in integers; only its JSON needs
        # int->str, and where that fails it refuses with check_digits' message
        sys.set_int_max_str_digits(4300)
        params = RcgParams(2, 5000)
        with pytest.raises(ResourceLimitError) as expected:
            check_digits(params, "structural_report")
        report = structural_report(params)
        with pytest.raises(ResourceLimitError, match=f"^{re.escape(str(expected.value))}$"):
            report.to_json_dict()

    def test_admitted_int_to_str_error_propagates(self, str_limit, monkeypatch):
        # a bound of 4300 digits admits (2, 1000), but the interpreter's 640
        # fail its total distance: the int->str ValueError itself propagates
        from rcg import graphs

        monkeypatch.setattr(graphs, "str_digit_limit", lambda: 4300)
        check_digits(RcgParams(2, 1000), "structural_report")
        report = structural_report(RcgParams(2, 1000))
        with pytest.raises(ValueError, match="integer string conversion"):
            report.to_json_dict()


# -- reference routes: the same quantities in Fraction, by definition or closed form


def recursion_at(q, g):
    """(g, total distance, Kirchhoff index, tree exponent) of `reference_walk` at g."""
    return next(islice(reference_walk(q), g, None))


def reference_total_distance(q, g):
    qp = q + 1
    closed = Fraction(q, 2) * (
        2 * g * q * q * Fraction(qp ** (2 * g), qp) + qp**g + (q - 2) * qp ** (2 * g)
    )
    assert closed == recursion_at(q, g)[1]
    return closed.numerator


def reference_kirchhoff_closed(q, g):
    qp = q + 1
    closed = (q**3 * (2 * g + 1) - 2 * q - 1) * Fraction(qp ** (2 * g), qp * qp) + q * Fraction(
        qp**g, qp
    )
    assert closed == recursion_at(q, g)[2]
    return closed


def reference_average_degree(q, g):
    params = RcgParams(q, g)
    mean = Fraction(2 * params.edge_count, params.vertex_count)
    assert mean == q + 1 - Fraction(2, (q + 1) ** g)
    return mean


def reference_global_clustering(q, g):
    params = RcgParams(q, g)
    acc = sum(
        Fraction(q - 1, k * q - 1) * q * q * (q + 1) ** (g - k) for k in range(1, g + 1)
    )
    acc += q * vertex_clustering(params, 0)
    return Fraction(acc, params.vertex_count)


def reference_laplacian_reciprocal_sum(q, g):
    reciprocal_sum, n = Fraction(q - 1, q), q
    for step in range(1, g + 1):
        m = (q - 1) * q * (q + 1) ** (step - 1)
        reciprocal_sum = (n - 1) + (q + 1) * reciprocal_sum + Fraction(1 + m, q + 1)
        n *= q + 1
    return reciprocal_sum


def reference_kirchhoff_spectral(q, g):
    return RcgParams(q, g).vertex_count * reference_laplacian_reciprocal_sum(q, g)


REFERENCES = {
    total_distance: reference_total_distance,
    kirchhoff_closed: reference_kirchhoff_closed,
    average_degree: reference_average_degree,
    global_clustering: reference_global_clustering,
    laplacian_reciprocal_sum: reference_laplacian_reciprocal_sum,
    kirchhoff_spectral: reference_kirchhoff_spectral,
}


class TestReferenceRoute:
    # q 2-9 and g 0-60 hold every point of the benchmark's exact grid
    @pytest.mark.parametrize("function", REFERENCES, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("q", range(2, 10))
    def test_matches_reference(self, function, q):
        reference = REFERENCES[function]
        for g in range(61):
            value, expected = function(RcgParams(q, g)), reference(q, g)
            assert value == expected, (q, g)
            assert type(value) is type(expected), (q, g)

    @pytest.mark.parametrize("q", range(2, 10))
    def test_report_matches_separate_routes(self, q):
        for g in range(0, 61, 5):
            params = RcgParams(q, g)
            report = structural_report(params)
            assert report.total_distance == reference_total_distance(q, g)
            assert report.average_distance == average_distance(params)
            assert type(report.average_distance) is Fraction
            classes = report.degree_classes
            assert classes == sorted(classes, key=lambda c: c.degree)
            assert len({c.degree for c in classes}) == g + 1


# -- the closed forms against the generation recursions

Q, G, P = sympy.symbols("q g P", positive=True, integer=True)  # P stands for (q+1)^g
GROWTH = Q**2 * (2 * Q * P**2 - P)
# per reader: its closed form, scaled to the integer that `_Row` evaluates;
# the recursion's value at g = 0; and the recursion's step from g to g + 1
RECURSIONS = {
    # twice the total distance: 2T' = (q+1)^2 2T + (q+1) growth
    "total_distance": (
        Q * (2 * G * Q**2 * P**2 / (Q + 1) + P + (Q - 2) * P**2),
        Q * (Q - 1),
        lambda form: (Q + 1) ** 2 * form + (Q + 1) * GROWTH,
    ),
    # (q+1)^2 times the Kirchhoff index K, with K' = (q+1)^2 K + growth
    "kirchhoff_closed": (
        (Q**3 * (2 * G + 1) - 2 * Q - 1) * P**2 + Q * (Q + 1) * P,
        (Q + 1) ** 2 * (Q - 1),
        lambda form: (Q + 1) ** 2 * form + (Q + 1) ** 2 * GROWTH,
    ),
    # the exponent b of the spanning-tree count q^{q-2} (q+1)^b: b' = b + (q-1) N
    "spanning_trees_closed": (
        (Q - 1) * (P - 1),
        0,
        lambda form: form + (Q - 1) * Q * P,
    ),
    # twice the edge count: each of the N = qP vertices gains a K_q and q edges to it
    "average_degree": (
        (Q + 1) * Q * P - 2 * Q,
        Q * (Q - 1),
        lambda form: form + Q * (Q + 1) * Q * P,
    ),
}

# X = 2T / N, the numerator of `_Row.average_distance` over N - 1 = qP - 1, and
# the small c by which the pair is reduced
DISTANCE_X = 2 * G * Q**2 * P / (Q + 1) + 1 + (Q - 2) * P
DISTANCE_C = 2 * G * Q**2 + (2 * Q - 2) * (Q + 1)


def reference_values(q):
    """Each closed-form reader's value at g = 0, 1, 2, ... by `reference_walk` and `RcgParams`."""
    for g, distance, kirchhoff, trees in reference_walk(q):
        params = RcgParams(q, g)
        n = params.vertex_count
        yield {
            "average_degree": Fraction(2 * params.edge_count, n),
            "total_distance": distance,
            "average_distance": Fraction(2 * distance, n * (n - 1)),
            "kirchhoff_closed": Fraction(kirchhoff),
            "spanning_trees_closed": FactoredCount(q, q - 2, trees),
        }


def as_row(value):
    """`value` as `formulas.curve` yields it: a Fraction as its (numerator, denominator)."""
    return (value.numerator, value.denominator) if isinstance(value, Fraction) else value


def curve_mismatches(q, g_max):
    """(quantity, g) of each `formulas.curve` row to g_max that differs from `reference_values`."""
    expected = list(islice(reference_values(q), g_max + 1))
    return [
        (name, g)
        for name in sorted(expected[0].keys() & _WALK.keys())
        for g, value in enumerate(islice(formulas.curve(q, name), g_max + 1))
        if value != as_row(expected[g][name])
    ]


class TestClosedFormsEqualRecursions:
    """Each closed form in `RECURSIONS`, a polynomial in q, g and P = (q+1)^g,
    meets its recursion at g = 0 and takes the recursion's step from g to
    g + 1, where P becomes (q+1) P; so by induction it equals the recursion
    (those of `reference.reference_walk`, and the edge count's) at every
    (q, g).  That is why the readers make no run-time comparison, and why
    their integer divisions are exact: `// (q+1)` takes (q+1)^{2g-1} out of
    2g (q+1)^{2g}, whose factor 2g is 0 at g = 0, and `// 2` and `// (q+1)^2`
    divide twice the total distance and (q+1)^2 times the Kirchhoff index,
    which are integers because their recursions are.  The tests that follow
    tie the library's readers to the recursions, row by row."""

    @pytest.mark.parametrize("name", RECURSIONS)
    def test_value_at_generation_zero(self, name):
        form, initial, _ = RECURSIONS[name]
        assert sympy.cancel(form.subs({G: 0, P: 1}) - initial) == 0

    @pytest.mark.parametrize("name", RECURSIONS)
    def test_step(self, name):
        form, _, step = RECURSIONS[name]
        following = form.subs({G: G + 1, P: (Q + 1) * P}, simultaneous=True)
        assert sympy.cancel(following - step(form)) == 0

    @pytest.mark.parametrize("q", [2, 3, 7, 10])
    def test_every_curve_row_equals_the_recursion(self, q):
        assert curve_mismatches(q, 300) == []

    @pytest.mark.parametrize("q", range(2, 14))
    def test_single_reads_equal_the_recursion(self, q):
        for g, expected in enumerate(islice(reference_values(q), 13)):
            for name, value in expected.items():
                assert getattr(formulas, name)(RcgParams(q, g)) == value, (name, g)

    def test_a_perturbed_walk_fails_the_comparison(self, monkeypatch):
        # the power of every row from g = 100 on off by one
        row = formulas._row

        def perturbed(q, g):
            exact = row(q, g)
            return exact._replace(power=exact.power + 1) if g >= 100 else exact

        monkeypatch.setattr(formulas, "_row", perturbed)
        assert {g for _, g in curve_mismatches(2, 300)} == set(range(100, 301))

    def test_distance_numerator_is_twice_the_total_over_n(self):
        assert sympy.cancel(Q * P * DISTANCE_X - RECURSIONS["total_distance"][0]) == 0

    def test_distance_numerator_is_c_modulo_n_minus_one(self):
        # q (q+1) X - c = (N - 1) times a polynomial with integer coefficients,
        # so a prime of X and N - 1 divides c
        quotient = sympy.cancel((Q * (Q + 1) * DISTANCE_X - DISTANCE_C) / (Q * P - 1))
        assert all(c.is_integer for c in sympy.Poly(quotient, Q, G, P).coeffs())

    def test_initial_clustering_over_the_initial_degree(self):
        # twice the links among an initial vertex's neighbors, (q-2)(q-1) in the initial
        # clique and q(q-1) in each generation's, over delta(delta-1) give the (q-1)/delta
        # that `vertex_clustering` and `_Row.global_clustering` read
        delta = Q * (G + 1) - 1
        links = (Q - 1) * (Q - 2) + G * Q * (Q - 1)
        assert sympy.cancel(links / (delta * (delta - 1)) - (Q - 1) / delta) == 0


# -- the sums of the degree classes, from the class rule

B = sympy.symbols("b", positive=True, integer=True)
# the class rule of `formulas._degree_classes`, (count, degree) in generation g:
# the q initial vertices, and the class born at step b = 1..g
INITIAL_CLASS = (Q, Q * (G + 1) - 1)
LATER_CLASS = (Q**2 * (Q + 1) ** (B - 1), Q * (G - B + 1))
# the class born at g + 1, in generation g + 1: q^2 P vertices of degree q
NEWEST_CLASS = tuple(
    side.subs({G: G + 1, B: G + 1}, simultaneous=True).subs((Q + 1) ** G, P)
    for side in LATER_CLASS
)
COUNT_SUM = Q * P  # N
# per sum over the classes: its closed form in q and P = (q+1)^g; its value at g = 0,
# where the initial class is the only one; and its step from g to g + 1, where
# every class keeps its count and gains q in degree, and the newest class joins
CLASS_SUMS = {
    "count": (COUNT_SUM, INITIAL_CLASS[0], lambda form: form + NEWEST_CLASS[0]),
    "degree": (
        Q * ((Q + 1) * P - 2),  # 2M
        INITIAL_CLASS[0] * INITIAL_CLASS[1].subs(G, 0),
        lambda form: form + Q * COUNT_SUM + NEWEST_CLASS[0] * NEWEST_CLASS[1],
    ),
}


class TestDegreeClassSums:
    """The class counts sum to N = q(q+1)^g and the degrees, weighted by the
    counts, to 2M = q((q+1)^{g+1} - 2) at every (q, g): each sum of
    `CLASS_SUMS` meets its closed form at g = 0 and takes the step from g to
    g + 1 that the class rule gives, so by induction it equals the form.  That
    is why `structural_report` makes no run-time check of either sum.
    `TestDegreeMultiset::test_class_sums_to_g_300` ties the rule to the
    classes that `degree_multiset` builds."""

    def test_each_class_keeps_its_count_and_gains_q_in_degree(self):
        for count, degree in (INITIAL_CLASS, LATER_CLASS):
            assert G not in count.free_symbols
            assert sympy.expand(degree.subs(G, G + 1) - degree) == Q

    @pytest.mark.parametrize("name", CLASS_SUMS)
    def test_value_at_generation_zero(self, name):
        form, initial, _ = CLASS_SUMS[name]
        assert sympy.cancel(form.subs(P, 1) - initial) == 0

    @pytest.mark.parametrize("name", CLASS_SUMS)
    def test_step(self, name):
        form, _, step = CLASS_SUMS[name]
        assert sympy.cancel(form.subs(P, (Q + 1) * P) - step(form)) == 0

    def test_the_degree_sum_is_twice_the_edge_count(self):
        # the form of 2M that `RECURSIONS` proves equal to the edge recursion
        assert sympy.cancel(CLASS_SUMS["degree"][0] - RECURSIONS["average_degree"][0]) == 0


# the quantities of the walk that are ratios, each a `formulas.curve` pair
RATIOS = ("average_degree", "average_distance", "kirchhoff_closed", "global_clustering")


class TestLowestTerms:
    """`formulas._lowest` reduces each pair by the small integer its reader
    names, and never takes a gcd of two integers that grow with g.  The
    reference is `reference.lcm_walk`: it carries the clustering sum over the
    lcm of its denominators and builds each value as a `Fraction`, which puts
    it in lowest terms by a full gcd."""

    @pytest.mark.parametrize("q", range(2, 10))
    def test_reference_walk_equals_the_definitions(self, q):
        for row, expected in zip(lcm_walk(q), islice(reference_values(q), 13)):
            assert row.global_clustering() == reference_global_clustering(q, row.g), row.g
            for name in RATIOS[:3] + ("total_distance",):
                assert getattr(row, name)() == expected[name], (name, row.g)

    @pytest.mark.parametrize("q", [2, 3, 7, 10])
    def test_every_curve_row_is_the_reference_in_lowest_terms(self, q):
        # the walk's clustering sum S too, which a reader's reduction could hide, and its power
        for (row, s), reference in zip(formulas._clustering_walk(q), islice(lcm_walk(q), 301)):
            assert s == as_row(Fraction(reference.clustering, reference.lcm)), row.g
            assert row.power == reference.power, row.g
        for name in RATIOS:
            rows = zip(formulas.curve(q, name), islice(lcm_walk(q), 301))
            for g, (value, reference) in enumerate(rows):
                expected = getattr(reference, name)()
                assert type(value) is tuple and [type(x) for x in value] == [int, int], (name, g)
                assert math.gcd(*value) == 1 and value == as_row(expected), (name, g)

    def test_no_gcd_of_two_large_integers(self, monkeypatch):
        def gcd(a, b):
            assert min(a, b) < 2**64, "a gcd of two large integers"
            return math.gcd(a, b)

        def no_fraction(*args):
            raise AssertionError("a Fraction on the curve path")

        monkeypatch.setattr(formulas, "math", types.SimpleNamespace(gcd=gcd))
        monkeypatch.setattr(formulas, "Fraction", no_fraction)
        for name in _WALK:
            assert sum(1 for _ in islice(formulas.curve(2, name), 1001)) == 1001


class TestLargeGeneration:
    def test_log10_past_the_largest_float(self):
        # (2, 647): the exponent 3^647 - 1 passes the largest float, about 1.8e308
        trees = spanning_trees_closed(RcgParams(2, 647))
        assert trees.log10 == math.inf
        assert trees.value is None
        assert FactoredCount(2, 0, 10**400).log10 == math.inf

    def test_report_omits_infinite_log10(self):
        payload = structural_report(RcgParams(2, 647)).to_json_dict()
        assert payload["spanning_trees"] == {"factors": [[2, 0], [3, 3**647 - 1]]}

    def test_report_keeps_finite_log10(self):
        trees = structural_report(RcgParams(2, 646)).to_json_dict()["spanning_trees"]
        assert trees["log10"] == pytest.approx((3**646 - 1) * math.log10(3), rel=1e-12)
        assert trees["factors"] == [[2, 0], [3, 3**646 - 1]]

    @pytest.mark.parametrize("q", [2, 7])
    def test_closed_forms_equal_the_recursions_mod_p(self, q):
        # the generation recursions mod the prime 2^61 - 1, one walk to g = 10^6,
        # against the exact single reads at three generations along it
        modulus, checked = 2**61 - 1, {10**3, 10**5, 10**6}
        for g, distance, kirchhoff, trees in islice(reference_walk(q, modulus), 10**6 + 1):
            if g in checked:
                params = RcgParams(q, g)
                assert total_distance(params) % modulus == distance, g
                assert kirchhoff_closed(params) % modulus == kirchhoff, g
                assert spanning_trees_closed(params).b % modulus == trees, g


def berlekamp_massey(terms):
    """The connection polynomial [1, c_1, ..., c_L] of the shortest linear
    recurrence s_n + c_1 s_{n-1} + ... + c_L s_{n-L} = 0 (n >= L) that
    `terms` satisfy, over Q (Massey, IEEE Trans. Inf. Theory 15, 1969)."""
    conn, prev = [Fraction(1)], [Fraction(1)]
    length, shift, prev_gap = 0, 1, Fraction(1)
    for n, term in enumerate(terms):
        gap = term + sum(conn[i] * terms[n - i] for i in range(1, length + 1))
        if gap == 0:
            shift += 1
            continue
        old = conn
        conn = conn + [Fraction(0)] * (len(prev) + shift - len(conn))
        for i, c in enumerate(prev):
            conn[i + shift] -= gap / prev_gap * c
        if 2 * length <= n:
            length, prev, prev_gap, shift = n + 1 - length, old, gap, 1
        else:
            shift += 1
    return conn[: length + 1]


class TestBerlekampMassey:
    """The shortest recurrence of 60 `formulas.curve` rows, found from the
    rows alone: no closed form is read."""

    @staticmethod
    def connection(q, name):
        rows = islice(formulas.curve(q, name), 60)
        return berlekamp_massey([Fraction(*row) if type(row) is tuple else row for row in rows])

    @pytest.mark.parametrize("name", ["total_distance", "kirchhoff_closed"])
    @pytest.mark.parametrize("q", [2, 3, 7])
    def test_roots_are_the_double_square_and_the_power(self, q, name):
        # (1 - (q+1)^2 x)^2 (1 - (q+1) x): the value is (a + b g)(q+1)^{2g} + c (q+1)^g
        x = sympy.symbols("x")
        poly = sympy.Poly((1 - (q + 1) ** 2 * x) ** 2 * (1 - (q + 1) * x), x)
        assert self.connection(q, name) == [int(c) for c in reversed(poly.all_coeffs())]

    @pytest.mark.parametrize("q", [2, 3, 7])
    def test_clustering_has_no_short_recurrence(self, q):
        # 30 is the most that 60 terms can show: no shorter recurrence fits, as S is not C-finite
        assert len(self.connection(q, "global_clustering")) - 1 == 30


def integers_in(value):
    """The integers of a value: a Fraction's two, a reader's pair, or an int."""
    value = as_row(value)
    return list(value) if isinstance(value, tuple) else [value]


def last_fitting_generation(q, quantity):
    """The last g that `check_digits` admits for `quantity` at q."""
    g = 0
    with pytest.raises(ResourceLimitError, match="int->str limit"):
        while True:
            check_digits(RcgParams(q, g + 1), quantity)
            g += 1
    return g


@pytest.mark.usefixtures("str_limit")
class TestFitsDigits:
    """The bounds of `check_digits`, under the interpreter's own limit: an
    integer printed past it fails the test in `str` itself."""

    LIMIT = 640  # the limit the `str_limit` fixture sets

    @pytest.mark.parametrize(
        "function",
        [average_degree, average_distance, total_distance, kirchhoff_closed, global_clustering],
        ids=lambda f: f.__name__,
    )
    @pytest.mark.parametrize("q", [2, 3, 5, 9])
    def test_bound_holds_at_the_last_fitting_generation(self, function, q):
        g = last_fitting_generation(q, function.__name__)
        assert g > 0
        params = RcgParams(q, g)
        longest = max(len(str(abs(x))) for x in integers_in(function(params)))
        assert longest <= self.LIMIT

    @staticmethod
    def report_digits(params):
        report = structural_report(params)
        integers = [report.order, report.size, report.total_distance, report.spanning_trees.b]
        integers += [c.count for c in report.degree_classes]
        for value in (
            report.average_degree,
            report.average_distance,
            report.global_clustering,
            report.kirchhoff,
        ):
            integers += integers_in(value)
        return max(len(str(x)) for x in integers)

    @pytest.mark.parametrize("q", [2, 3, 5, 9])
    def test_report_bound_holds(self, q):
        g = last_fitting_generation(q, "structural_report")
        assert self.report_digits(RcgParams(q, g)) <= self.LIMIT
        # the bound is tight: the first refused generation comes within 10
        # digits; no limit while they are counted
        sys.set_int_max_str_digits(0)
        assert self.report_digits(RcgParams(q, g + 1)) > self.LIMIT - 10

    def test_huge_generation_does_not_fit(self):
        with pytest.raises(ResourceLimitError, match="more than 640 digits"):
            check_digits(RcgParams(2, 10**400), "structural_report")

    def test_unknown_quantity(self):
        # the name is looked up first: past the limit too, where N alone refuses
        for g in (1, 10**5, 10**400):
            with pytest.raises(ValueError, match="no digit bound"):
                check_digits(RcgParams(2, g), "order")


class TestWalkTable:
    """`formulas._WALK`: each quantity of the walk, its reader and its digit bound."""

    def test_every_row_has_a_bound_and_every_curve_quantity_a_row(self):
        from rcg.cli import CURVE_QUANTITIES

        log_n = FactoredCount(2, 1, 3).log10
        for read, digits in _WALK.values():
            assert callable(read) and digits(2, 3, log_n) >= log_n
        assert set(CURVE_QUANTITIES.values()) <= set(_WALK)
        # an unbounded name would surface as a ValueError, exit 1
        for quantity in CURVE_QUANTITIES.values():
            check_digits(RcgParams(2, 3), quantity)

    @pytest.mark.parametrize("q", [2, 7])
    @pytest.mark.parametrize("name", sorted(_WALK))
    def test_exact_value_within_the_bound(self, name, q):
        # each value read by its single-g function, the route the library uses
        read, digits = getattr(formulas, name), _WALK[name][1]
        admitted = 0
        for g in (1, 10, 100, 1000):
            try:
                check_digits(RcgParams(q, g), name)
            except ResourceLimitError:
                continue
            admitted += 1
            bound = digits(q, g, FactoredCount(q, 1, g).log10)
            longest = max(len(str(abs(x))) for x in integers_in(read(RcgParams(q, g))))
            assert longest <= math.floor(bound) + 1, g
        assert admitted >= 3  # so a bound that refuses early still gets checked


# the seven entry points that take a bare integer, as (call, message)
INTEGER_ARGUMENTS = {
    "knn_exact-birth": (lambda b: knn_exact(RcgParams(2, 3), b), "birth {} out of range 0..3"),
    "vertex_clustering-birth": (
        lambda b: vertex_clustering(RcgParams(2, 3), b),
        "birth {} out of range 0..3",
    ),
    "cumulative_degree-delta": (
        lambda d: cumulative_degree(RcgParams(2, 3), d),
        "delta must be a positive integer",
    ),
    "knn_approx-delta": (lambda d: knn_approx(d, 2), "delta must be a positive integer"),
    "knn_approx-q": (lambda q: knn_approx(2, q), "q must be >= 2"),
    "asymptotic_clustering-q": (asymptotic_clustering, "q must be >= 2"),
    "child_pair-q": (lambda q: child_pair(1.0, q, "laplacian"), "q must be >= 2"),
}


class TestIntegerArguments:
    """A birth, a delta or a bare q is an integer in range, or ValueError."""

    # 0 is a birth (the initial vertices), so -1 stands in for it there
    @pytest.mark.parametrize("value", [True, 1.0, 2.5, 0], ids=repr)
    @pytest.mark.parametrize("entry", INTEGER_ARGUMENTS)
    def test_refused_with_its_message(self, entry, value):
        call, message = INTEGER_ARGUMENTS[entry]
        if entry.endswith("birth") and value == 0:
            value = -1
        with pytest.raises(ValueError, match=f"^{re.escape(message.format(value))}$"):
            call(value)

    def test_numpy_integers_are_ints(self):
        # at (2, 50) the birth 45 needs 3^44, past int64
        params = RcgParams(2, 50)
        for function in (knn_exact, vertex_clustering):
            assert function(params, np.int64(45)) == function(params, 45)
        assert knn_exact(params, np.int64(45)) == Fraction(7, 1) + Fraction(3 - Fraction(2, 3**44), 12)
        assert cumulative_degree(params, np.int64(4)) == cumulative_degree(params, 4)
        assert knn_approx(np.int64(3), np.int64(3)) == 4.0
        assert asymptotic_clustering(np.int64(2)) == asymptotic_clustering(2)
        assert child_pair(0.0, np.int64(3), "laplacian") == (4.0, 0.0)


class TestClassDegree:
    @pytest.mark.parametrize("q,g", GRID)
    def test_one_degree_per_class(self, q, g):
        # knn_exact and vertex_clustering use the degree that degree_multiset
        # lists for a class, and the class's vertices have it in the graph
        params = RcgParams(q, g)
        cg = build_rcg(params)
        degrees = cg.graph.degrees()
        for c in degree_multiset(params):
            delta, b = c.degree, c.birth
            assert {degrees[v] for v in range(len(degrees)) if cg.birth[v] == b} == {delta}
            if b == 0:
                knn = Fraction(delta + q + Fraction(1 - q, delta), 2)
                # at (2, 0) delta is 1 and the numerator 0: clustering 0
                clustering = Fraction((q - 1) * (q - 2) + g * q * (q - 1), delta * (delta - 1) or 1)
            else:
                knn = Fraction(delta + q, 2) + Fraction(1 + q - Fraction(2, (q + 1) ** (b - 1)), delta)
                clustering = Fraction(q - 1, delta - 1)
            assert knn_exact(params, b) == knn
            assert vertex_clustering(params, b) == clustering

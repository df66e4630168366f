import math
from fractions import Fraction

import pytest

from rcg import (
    FactoredCount,
    RcgParams,
    asymptotic_clustering,
    average_degree,
    average_distance,
    build_rcg,
    cumulative_degree,
    degree_multiset,
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
from rcg.formulas import fits_digits
from rcg.oracle import (
    bfs_total_distance,
    degree_histogram,
    local_clustering,
    matrix_tree_count,
    mean_neighbor_degree_by_class,
    resistance_sum,
)

from reference import laplacian_reciprocal_sum

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
        measured = resistance_sum(build_rcg(params).graph)
        exact = float(kirchhoff_closed(params))
        assert measured == pytest.approx(exact, rel=1e-6)

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


# -- reference routes: the same quantities evaluated step by step in Fraction


def reference_total_distance(q, g):
    qp = q + 1
    closed = Fraction(q, 2) * (
        2 * g * q * q * Fraction(qp ** (2 * g), qp) + qp**g + (q - 2) * qp ** (2 * g)
    )
    assert closed.denominator == 1
    recursive = q * (q - 1) // 2
    for step in range(1, g + 1):
        growth = Fraction(q * q, 2) * (2 * q * qp ** (step - 1) - 1) * qp**step
        assert growth.denominator == 1
        recursive = qp * qp * recursive + growth.numerator
    assert recursive == closed.numerator
    return closed.numerator


def reference_kirchhoff_closed(q, g):
    qp = q + 1
    closed = (q**3 * (2 * g + 1) - 2 * q - 1) * Fraction(qp ** (2 * g), qp * qp) + q * Fraction(
        qp**g, qp
    )
    recursive = Fraction(q - 1)
    for step in range(g):
        recursive = q * q * (2 * q * qp**step - 1) * qp**step + qp * qp * recursive
    assert recursive == closed
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


class TestLargeGeneration:
    def test_log10_past_the_largest_float(self):
        # (2, 647): the exponent 3^647 - 1 passes the largest float, about 1.8e308
        trees = spanning_trees_closed(RcgParams(2, 647))
        assert trees.log10 == math.inf
        assert not trees.exact and trees.value is None
        assert FactoredCount(2, 0, 10**400).log10 == math.inf

    def test_report_omits_infinite_log10(self):
        payload = structural_report(RcgParams(2, 647)).to_json_dict()
        assert payload["spanning_trees"] == {"factors": [[2, 0], [3, 3**647 - 1]]}

    def test_report_keeps_finite_log10(self):
        trees = structural_report(RcgParams(2, 646)).to_json_dict()["spanning_trees"]
        assert trees["log10"] == pytest.approx((3**646 - 1) * math.log10(3), rel=1e-12)
        assert trees["factors"] == [[2, 0], [3, 3**646 - 1]]


def integers_in(value):
    if isinstance(value, Fraction):
        return [value.numerator, value.denominator]
    return [value]


class TestFitsDigits:
    LIMIT = 640  # the smallest limit sys.set_int_max_str_digits accepts

    @pytest.mark.parametrize(
        "function",
        [average_degree, average_distance, total_distance, kirchhoff_closed, global_clustering],
        ids=lambda f: f.__name__,
    )
    @pytest.mark.parametrize("q", [2, 3, 5, 9])
    def test_bound_holds_at_the_last_fitting_generation(self, function, q):
        g = 0
        while fits_digits(RcgParams(q, g + 1), function.__name__, self.LIMIT):
            g += 1
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
        g = 0
        while fits_digits(RcgParams(q, g + 1), "structural_report", self.LIMIT):
            g += 1
        assert self.report_digits(RcgParams(q, g)) <= self.LIMIT
        # the bound is tight: the first refused generation comes within 10 digits
        assert self.report_digits(RcgParams(q, g + 1)) > self.LIMIT - 10

    def test_huge_generation_does_not_fit(self):
        assert not fits_digits(RcgParams(2, 10**400), "structural_report", 4300)

    def test_unknown_quantity(self):
        with pytest.raises(ValueError, match="no digit bound"):
            fits_digits(RcgParams(2, 1), "order", 4300)

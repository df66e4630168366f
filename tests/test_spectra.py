import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcg import (
    RcgParams,
    ResourceLimitError,
    adjacency_spectrum,
    build_rcg,
    child_pair,
    kirchhoff_closed,
    kirchhoff_spectral,
    laplacian_reciprocal_sum,
    laplacian_spectrum,
    matrix_of,
    nonzero_product,
    spanning_trees_closed,
    spanning_trees_spectral,
)
from rcg.oracle import matrix_tree_count, symmetric_eigenvalues

GRID = [(q, g) for q in (2, 3, 4) for g in (0, 1, 2)] + [(2, 3)]
# far beyond any explicit construction or digit expansion
LARGE_G = [(2, 50), (3, 20), (5, 20)]


def expand(spectrum):
    values = []
    for value, mult in spectrum.entries:
        values.extend([value] * mult)
    return values


class TestChildPair:
    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_laplacian_zero_parent(self, q):
        pair = child_pair(0.0, q, "laplacian")
        assert pair.plus_child == q + 1
        assert pair.minus_child == 0.0

    def test_laplacian_parent_two_q_two(self):
        pair = child_pair(2.0, 2, "laplacian")
        root17 = math.sqrt(17)
        assert pair.plus_child == pytest.approx((5 + root17) / 2, abs=1e-12)
        assert pair.minus_child == pytest.approx((5 - root17) / 2, abs=1e-12)

    def test_adjacency_parent_one_q_two(self):
        pair = child_pair(1.0, 2, "adjacency")
        assert pair.plus_child == pytest.approx(1 + math.sqrt(2), abs=1e-12)
        assert pair.minus_child == pytest.approx(1 - math.sqrt(2), abs=1e-12)

    def test_negative_laplacian_parent_rejected(self):
        with pytest.raises(ValueError):
            child_pair(-0.5, 2, "laplacian")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            child_pair(0.0, 2, "degree")

    @settings(max_examples=100, deadline=None)
    @given(
        parent=st.floats(-10, 50),
        q=st.integers(2, 8),
    )
    def test_adjacency_vieta(self, parent, q):
        pair = child_pair(parent, q, "adjacency")
        assert pair.plus_child + pair.minus_child == pytest.approx(
            parent + q - 1, abs=1e-12
        )
        assert pair.plus_child * pair.minus_child == pytest.approx(
            parent * (q - 1) - q, abs=1e-12
        )

    @settings(max_examples=100, deadline=None)
    @given(
        parent=st.floats(0, 50),
        q=st.integers(2, 8),
    )
    def test_laplacian_vieta(self, parent, q):
        pair = child_pair(parent, q, "laplacian")
        assert pair.plus_child + pair.minus_child == pytest.approx(
            parent + q + 1, abs=1e-12
        )
        assert pair.plus_child * pair.minus_child == pytest.approx(parent, abs=1e-12)


class TestAdjacencySpectrum:
    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_generation_zero(self, q):
        spectrum = adjacency_spectrum(RcgParams(q, 0))
        assert spectrum.entries == ((float(q - 1), 1), (-1.0, q - 1))

    def test_q2_g1(self):
        values = expand(adjacency_spectrum(RcgParams(2, 1)))
        root2, root3 = math.sqrt(2), math.sqrt(3)
        expected = [1 + root2, root3, -1, -1, 1 - root2, -root3]
        assert values == pytest.approx(sorted(expected, reverse=True), abs=1e-10)

    @pytest.mark.parametrize("q,g", GRID)
    def test_counting_and_traces(self, q, g):
        params = RcgParams(q, g)
        spectrum = adjacency_spectrum(params)
        n = params.vertex_count
        assert spectrum.total_multiplicity() == n
        assert spectrum.moment(1) == pytest.approx(0.0, abs=1e-9 * n)
        assert spectrum.moment(2) == pytest.approx(2 * params.edge_count, abs=1e-9 * n)

    def test_budget(self):
        with pytest.raises(ResourceLimitError):
            adjacency_spectrum(RcgParams(2, 2), budget=10)


class TestLaplacianSpectrum:
    @pytest.mark.parametrize("q", [2, 4])
    def test_generation_zero(self, q):
        spectrum = laplacian_spectrum(RcgParams(q, 0))
        assert spectrum.entries == ((float(q), q - 1), (0.0, 1))

    def test_q2_g1(self):
        spectrum = laplacian_spectrum(RcgParams(2, 1))
        root17 = math.sqrt(17)
        expected = [((5 + root17) / 2, 1), (3.0, 3), ((5 - root17) / 2, 1), (0.0, 1)]
        assert [m for _, m in spectrum.entries] == [m for _, m in expected]
        for (value, _), (want, _) in zip(spectrum.entries, expected):
            assert value == pytest.approx(want, abs=1e-10)
        assert spectrum.moment(1) == pytest.approx(14.0, abs=1e-9)

    def test_q3_g1_multiplicities(self):
        spectrum = laplacian_spectrum(RcgParams(3, 1))
        assert spectrum.multiplicity_of(4.0) == 7  # (q-1)q + 1
        assert spectrum.multiplicity_of(0.0) == 1
        assert spectrum.moment(1) == pytest.approx(42.0, abs=1e-9)

    @pytest.mark.parametrize("q,g", GRID)
    def test_counting_traces_and_zero(self, q, g):
        params = RcgParams(q, g)
        spectrum = laplacian_spectrum(params)
        n = params.vertex_count
        assert spectrum.total_multiplicity() == n
        assert spectrum.moment(1) == pytest.approx(2 * params.edge_count, abs=1e-9 * n)
        assert spectrum.multiplicity_of(0.0) == 1
        assert all(value >= -1e-12 for value, _ in spectrum.entries)

    @pytest.mark.parametrize("q,g", [(2, 1), (2, 3), (3, 2), (4, 2), (5, 2)])
    def test_q_plus_one_multiplicity(self, q, g):
        spectrum = laplacian_spectrum(RcgParams(q, g))
        assert spectrum.multiplicity_of(q + 1) == (q - 1) * q * (q + 1) ** (g - 1) + 1


class TestSpectrumVsEigensolver:
    @pytest.mark.parametrize("q,g", GRID)
    def test_adjacency_multiset_agreement(self, q, g):
        params = RcgParams(q, g)
        predicted = expand(adjacency_spectrum(params))
        measured = symmetric_eigenvalues(
            matrix_of(build_rcg(params).graph, "adjacency")
        )
        assert predicted == pytest.approx(measured, abs=1e-8)

    @pytest.mark.parametrize("q,g", GRID)
    def test_laplacian_multiset_agreement(self, q, g):
        params = RcgParams(q, g)
        predicted = expand(laplacian_spectrum(params))
        measured = symmetric_eigenvalues(
            matrix_of(build_rcg(params).graph, "laplacian")
        )
        assert predicted == pytest.approx(measured, abs=1e-8)


class TestNonzeroProduct:
    def test_initial_condition(self):
        assert nonzero_product(RcgParams(2, 0)).value == 2
        assert nonzero_product(RcgParams(5, 0)).value == 625

    def test_examples(self):
        assert nonzero_product(RcgParams(2, 1)).value == 54
        assert nonzero_product(RcgParams(2, 2)).value == 118098

    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    @pytest.mark.parametrize("g", [0, 1, 2, 3, 4, 5, 6])
    def test_recursion_reproduces_closed_form(self, q, g):
        # the recursion multiplies by (q+1)^{m+1} only; nonzero_product raises
        # internally if recursion and closed form ever diverge
        value = nonzero_product(RcgParams(q, g)).value
        assert value == q ** (q - 1) * (q + 1) ** ((q - 1) * ((q + 1) ** g - 1) + g)

    @pytest.mark.parametrize("q,g", [(2, 1), (2, 2), (3, 1), (4, 1), (4, 2)])
    def test_matches_float_eigenvalue_product(self, q, g):
        params = RcgParams(q, g)
        assert params.vertex_count <= 100
        product = 1.0
        for value, mult in laplacian_spectrum(params).entries:
            if abs(value) > 1e-9:
                product *= value**mult
        exact = nonzero_product(params).value
        assert product / exact == pytest.approx(1.0, rel=1e-6)

    def test_digit_cap(self):
        result = nonzero_product(RcgParams(2, 30))
        assert result.value is None
        assert result.log10 > 100


class TestSpanningTreesSpectral:
    def test_examples(self):
        assert spanning_trees_spectral(RcgParams(2, 1)).value == 9
        assert spanning_trees_spectral(RcgParams(3, 0)).value == 3
        assert spanning_trees_spectral(RcgParams(3, 1)).value == 12288

    @pytest.mark.parametrize("q,g", GRID)
    def test_triple_agreement(self, q, g):
        params = RcgParams(q, g)
        closed = spanning_trees_closed(params).value
        spectral = spanning_trees_spectral(params).value
        oracle = matrix_tree_count(build_rcg(params).graph)
        assert closed == spectral == oracle

    @pytest.mark.parametrize("q,g", LARGE_G)
    def test_equals_closed_form_at_large_g(self, q, g):
        params = RcgParams(q, g)
        spectral = spanning_trees_spectral(params)
        assert spectral == spanning_trees_closed(params)
        exponent = (q - 1) * ((q + 1) ** g - 1)
        closed_log10 = (q - 2) * math.log10(q) + exponent * math.log10(q + 1)
        assert spectral.log10 == pytest.approx(closed_log10, rel=1e-12)


class TestSpectralSum:
    """Sum of reciprocals of the nonzero Laplacian eigenvalues."""

    def test_initial_conditions(self):
        assert laplacian_reciprocal_sum(RcgParams(2, 0)) == Fraction(1, 2)
        assert laplacian_reciprocal_sum(RcgParams(3, 0)) == Fraction(2, 3)

    def test_q2_g1(self):
        assert laplacian_reciprocal_sum(RcgParams(2, 1)) == Fraction(7, 2)
        total = 0.0
        for value, mult in laplacian_spectrum(RcgParams(2, 1)).entries:
            if abs(value) > 1e-9:
                total += mult / value
        assert total == pytest.approx(3.5, rel=1e-9)


class TestKirchhoffSpectral:
    def test_examples(self):
        assert kirchhoff_spectral(RcgParams(2, 1)) == 21
        assert kirchhoff_spectral(RcgParams(2, 2)) == 321

    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    def test_generation_zero_identity(self, q):
        assert kirchhoff_spectral(RcgParams(q, 0)) == q - 1

    @pytest.mark.parametrize("q,g", GRID + [(5, 2), (3, 3), (2, 5)] + LARGE_G)
    def test_equals_closed_form(self, q, g):
        params = RcgParams(q, g)
        assert kirchhoff_spectral(params) == kirchhoff_closed(params)

    @pytest.mark.parametrize("q,g", [(2, 2), (3, 1), (4, 1)])
    def test_matches_float_reciprocal_sum(self, q, g):
        params = RcgParams(q, g)
        total = 0.0
        for value, mult in laplacian_spectrum(params).entries:
            if abs(value) > 1e-9:
                total += mult / value
        via_floats = params.vertex_count * total
        assert via_floats == pytest.approx(float(kirchhoff_spectral(params)), rel=1e-6)


def test_spectrum_json_sorted_descending():
    payload = laplacian_spectrum(RcgParams(2, 1)).to_json_list()
    values = [entry["value"] for entry in payload]
    assert values == sorted(values, reverse=True)
    assert all(isinstance(entry["multiplicity"], int) for entry in payload)

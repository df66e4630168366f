import math
import sys
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
    laplacian_spectrum,
    matrix_of,
    nonzero_product,
    spanning_trees_closed,
    spanning_trees_spectral,
)
from rcg.oracle import matrix_tree_count, symmetric_eigenvalues
from rcg.spectra import MERGE_TOL

from reference import laplacian_reciprocal_sum

GRID = [(q, g) for q in (2, 3, 4) for g in (0, 1, 2)] + [(2, 3)]
# far beyond any explicit construction or digit expansion
LARGE_G = [(2, 50), (3, 20), (5, 20)]


def expand(spectrum):
    values = []
    for value, mult in spectrum.entries:
        values.extend([value] * mult)
    return values


def total_multiplicity(spectrum):
    return sum(mult for _, mult in spectrum.entries)


def moment(spectrum, power):
    return sum(value**power * mult for value, mult in spectrum.entries)


def multiplicity_of(spectrum, value):
    return sum(mult for v, mult in spectrum.entries if abs(v - value) <= MERGE_TOL)


class TestChildPair:
    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_laplacian_zero_parent(self, q):
        plus, minus = child_pair(0.0, q, "laplacian")
        assert plus == q + 1
        assert minus == 0.0

    def test_laplacian_parent_two_q_two(self):
        plus, minus = child_pair(2.0, 2, "laplacian")
        root17 = math.sqrt(17)
        assert plus == pytest.approx((5 + root17) / 2, abs=1e-12)
        assert minus == pytest.approx((5 - root17) / 2, abs=1e-12)

    def test_adjacency_parent_one_q_two(self):
        plus, minus = child_pair(1.0, 2, "adjacency")
        assert plus == pytest.approx(1 + math.sqrt(2), abs=1e-12)
        assert minus == pytest.approx(1 - math.sqrt(2), abs=1e-12)

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
        plus, minus = child_pair(parent, q, "adjacency")
        product = parent * (q - 1) - q
        assert plus >= minus
        assert plus + minus == pytest.approx(parent + q - 1, abs=1e-12)
        assert plus * minus == pytest.approx(product, abs=1e-12)
        assert plus * minus == pytest.approx(product, rel=1e-14, abs=0)

    @settings(max_examples=100, deadline=None)
    @given(
        parent=st.floats(0, 50),
        q=st.integers(2, 8),
    )
    def test_laplacian_vieta(self, parent, q):
        plus, minus = child_pair(parent, q, "laplacian")
        assert plus >= minus
        assert plus + minus == pytest.approx(parent + q + 1, abs=1e-12)
        assert plus * minus == pytest.approx(parent, abs=1e-12)
        if parent >= sys.float_info.min:  # a subnormal parent's child underflows
            assert plus * minus == pytest.approx(parent, rel=1e-14, abs=0)


class TestPrecision:
    """The smallest nonzero Laplacian eigenvalue, a chain of minus children.

    In the cancelling form (s - sqrt(s^2 - 4 lambda))/2 the minus child loses
    digits as lambda shrinks: for q=2 the relative error is 2.0e-8 at g=20,
    and the chain reaches a false zero at g=35.  The mpmath chain uses that
    form at 80 digits, where the 20 or so digits it cancels leave plenty.
    """

    @pytest.fixture
    def mpmath(self):
        return pytest.importorskip("mpmath")

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_minus_chain_matches_mpmath(self, q, mpmath):
        with mpmath.workdps(80):
            exact = mpmath.mpf(q)
            value = float(q)
            for g in range(1, 41):
                s = exact + q + 1
                exact = (s - mpmath.sqrt(s * s - 4 * exact)) / 2
                value = child_pair(value, q, "laplacian")[1]
                assert abs((value - exact) / exact) <= 1e-12, g

    @pytest.mark.parametrize("kind", ["adjacency", "laplacian"])
    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_both_children_match_mpmath(self, q, kind, mpmath):
        # far from zero either root can be the one that cancels: for the
        # adjacency matrix that is the plus child when parent + q - 1 < 0
        parents = [0.0, 1e-9, 0.5, 2.0, 37.5, 1e6]
        if kind == "adjacency":
            parents += [-1e6, -37.5, -3.0, -1.0, -1e-9]
        with mpmath.workdps(80):
            for parent in parents:
                x = mpmath.mpf(parent)
                if kind == "adjacency":
                    s, p = x + q - 1, (q - 1) * x - q
                else:
                    s, p = x + q + 1, x
                root = mpmath.sqrt(s * s - 4 * p)
                exact_pair = ((s + root) / 2, (s - root) / 2)
                for value, exact in zip(child_pair(parent, q, kind), exact_pair):
                    assert value == exact or abs((value - exact) / exact) <= 1e-14, parent

    @pytest.mark.parametrize("q", [2, 3, 5, 10])
    def test_spectrum_holds_the_chain(self, q):
        # the chain falls below any absolute tolerance (1.8e-11 at (10, 11)),
        # and the zero eigenvalue stays apart from it
        value = float(q)
        for g in range(1, 13):
            value = child_pair(value, q, "laplacian")[1]
            entries = laplacian_spectrum(RcgParams(q, g)).entries
            assert entries[-1] == (0.0, 1)
            assert entries[-2][0] == value


def reference_spectrum(q, g, kind):
    """Reference route: cancelling children, interleaved, sorted by value, merged."""
    if kind == "adjacency":
        entries, extra = [(float(q - 1), 1), (-1.0, q - 1)], -1.0
    else:
        entries, extra = [(float(q), q - 1), (0.0, 1)], float(q + 1)
    for step in range(1, g + 1):
        children = []
        for value, mult in entries:
            if kind == "adjacency":
                mid, disc = value + q - 1, (q - 1 - value) ** 2 + 4 * q
            else:
                mid, disc = value + q + 1, (value + q + 1) ** 2 - 4 * value
            root = math.sqrt(disc)
            children += [((mid + root) / 2, mult), ((mid - root) / 2, mult)]
        children.append((extra, (q - 1) * q * (q + 1) ** (step - 1)))
        children.sort(key=lambda e: -e[0])
        entries = []
        for value, mult in children:
            if entries and abs(entries[-1][0] - value) <= MERGE_TOL:
                entries[-1] = (entries[-1][0], entries[-1][1] + mult)
            else:
                entries.append((value, mult))
    return entries


REFERENCE_GRID = [
    (q, g) for q in (2, 3, 4, 5, 6, 7) for g in range(12) if q * (q + 1) ** g <= 10**6
]


class TestReferenceRoute:
    @pytest.mark.parametrize("kind", ["adjacency", "laplacian"])
    @pytest.mark.parametrize("q,g", REFERENCE_GRID)
    def test_matches_reference(self, q, g, kind):
        build = adjacency_spectrum if kind == "adjacency" else laplacian_spectrum
        spectrum = build(RcgParams(q, g))
        reference = reference_spectrum(q, g, kind)
        assert [m for _, m in spectrum.entries] == [m for _, m in reference]
        # the reference's cancelling minus child is off by about 1e-16 * s in
        # absolute terms, up to 3.8e-11 relative near 6e-6 at (3, 9), so the
        # values are compared within 1e-12 of max(|lambda|, 1)
        values = [v for v, _ in spectrum.entries]
        assert values == pytest.approx([v for v, _ in reference], rel=1e-12, abs=1e-12)
        gaps = [a - b for a, b in zip(values, values[1:])]
        assert all(gap > MERGE_TOL for gap in gaps)
        assert len(values) <= 3 * 2**g - 1


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
        assert total_multiplicity(spectrum) == n
        assert moment(spectrum, 1) == pytest.approx(0.0, abs=1e-9 * n)
        assert moment(spectrum, 2) == pytest.approx(2 * params.edge_count, abs=1e-9 * n)

    def test_budget(self, monkeypatch):
        monkeypatch.setenv("CORONA_VERTEX_BUDGET", "10")
        with pytest.raises(ResourceLimitError):
            adjacency_spectrum(RcgParams(2, 2))


class TestEntryBudget:
    @pytest.mark.parametrize("build", [adjacency_spectrum, laplacian_spectrum])
    def test_counts_distinct_entries(self, build, monkeypatch):
        # (2, 3) has N = 54 but at most 3 * 2^3 - 1 = 23 distinct eigenvalues
        monkeypatch.setenv("CORONA_VERTEX_BUDGET", "23")
        spectrum = build(RcgParams(2, 3))
        assert total_multiplicity(spectrum) == 54
        monkeypatch.setenv("CORONA_VERTEX_BUDGET", "22")
        with pytest.raises(ResourceLimitError, match="23 distinct"):
            build(RcgParams(2, 3))

    @pytest.mark.parametrize("g", [16, 17])
    def test_laplacian_keeps_every_child(self, g):
        # distinct children near zero lie far closer than MERGE_TOL; none
        # merge, and q+1 joins only the zero eigenvalue's child
        spectrum = laplacian_spectrum(RcgParams(2, g))
        assert len(spectrum.entries) == 2 ** (g + 1)
        assert spectrum.entries[-1] == (0.0, 1)
        assert total_multiplicity(spectrum) == 2 * 3**g

    def test_zero_stays_apart_from_tiny_eigenvalue(self):
        entries = laplacian_spectrum(RcgParams(10, 11)).entries
        assert entries[-1] == (0.0, 1)
        assert 0 < entries[-2][0] < 1e-10

    @pytest.mark.parametrize(
        "build,q", [(laplacian_spectrum, 1000), (adjacency_spectrum, 10**6)]
    )
    def test_descending_where_children_round_together(self, build, q):
        # at large q distinct eigenvalues lie within a few ulps, where the
        # Vieta quotient can swap the order of two children
        spectrum = build(RcgParams(q, 14))
        values = [v for v, _ in spectrum.entries]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert total_multiplicity(spectrum) == q * (q + 1) ** 14


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
        assert moment(spectrum, 1) == pytest.approx(14.0, abs=1e-9)

    def test_q3_g1_multiplicities(self):
        spectrum = laplacian_spectrum(RcgParams(3, 1))
        assert multiplicity_of(spectrum, 4.0) == 7  # (q-1)q + 1
        assert multiplicity_of(spectrum, 0.0) == 1
        assert moment(spectrum, 1) == pytest.approx(42.0, abs=1e-9)

    @pytest.mark.parametrize("q,g", GRID)
    def test_counting_traces_and_zero(self, q, g):
        params = RcgParams(q, g)
        spectrum = laplacian_spectrum(params)
        n = params.vertex_count
        assert total_multiplicity(spectrum) == n
        assert moment(spectrum, 1) == pytest.approx(2 * params.edge_count, abs=1e-9 * n)
        assert multiplicity_of(spectrum, 0.0) == 1
        assert all(value >= -1e-12 for value, _ in spectrum.entries)

    @pytest.mark.parametrize("q,g", [(2, 1), (2, 3), (3, 2), (4, 2), (5, 2)])
    def test_q_plus_one_multiplicity(self, q, g):
        spectrum = laplacian_spectrum(RcgParams(q, g))
        assert multiplicity_of(spectrum, q + 1) == (q - 1) * q * (q + 1) ** (g - 1) + 1


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
    entries = laplacian_spectrum(RcgParams(2, 1)).entries
    values = [value for value, _ in entries]
    assert values == sorted(values, reverse=True)
    assert all(isinstance(mult, int) for _, mult in entries)

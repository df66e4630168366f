"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 6a checks the small-world growth rate of the average distance:
mu/(2g*q/(q+1)) in [0.95, 1.05] at (q, g) = (2, 10).  The rate is
q/(q+1) per generation, not 1, because a fraction q/(q+1) of the
vertices of C_q(g) are born at step g, each one edge below a uniformly
drawn vertex of C_q(g-1), so the mean depth grows by q/(q+1) per step.
"""
import math
import subprocess
import sys
from fractions import Fraction

import pytest

from rcg import (
    RcgParams,
    adjacency_spectrum,
    asymptotic_clustering,
    average_distance,
    build_rcg,
    cumulative_degree,
    degree_multiset,
    global_clustering,
    kirchhoff_closed,
    kirchhoff_spectral,
    knn_exact,
    laplacian_spectrum,
    matrix_of,
    nonzero_product,
    spanning_trees_closed,
    spanning_trees_spectral,
    total_distance,
    vertex_clustering,
    write_edgelist,
)
from rcg.oracle import (
    bfs_total_distance,
    degree_histogram,
    local_clustering,
    matrix_tree_count,
    mean_neighbor_degree_by_class,
    resistance_sum,
    symmetric_eigenvalues,
)
from rcg.spectra import MERGE_TOL

from reference import reference_text

GRID = [(q, g) for q in (2, 3, 4, 5) for g in (0, 1, 2)] + [(2, 3)]

SPECTRUM_TOL = 1e-8
RESISTANCE_REL_TOL = 1e-6


def report(criterion, ok):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {criterion} failed"


def expand(spectrum):
    values = []
    for value, mult in spectrum.entries:
        values.extend([value] * mult)
    return values


def test_criterion_1_structural_exactness_grid():
    ok = True
    for q, g in GRID:
        params = RcgParams(q, g)
        cg = build_rcg(params)
        graph = cg.graph
        ok &= graph.vertex_count == q * (q + 1) ** g
        ok &= graph.edge_count == q * ((q + 1) ** (g + 1) - 2) // 2
        ok &= degree_histogram(graph) == {
            c.degree: c.count for c in degree_multiset(params)
        }
        ok &= bfs_total_distance(graph) == total_distance(params)
        measured_knn = mean_neighbor_degree_by_class(cg)
        ok &= all(
            measured_knn[b] == knn_exact(params, b) for b in range(g + 1)
        )
        local = local_clustering(graph)
        ok &= all(
            local[v] == vertex_clustering(params, cg.birth[v])
            for v in range(graph.vertex_count)
        )
        mean_local = sum(local, Fraction(0)) / graph.vertex_count
        ok &= mean_local == global_clustering(params)
    report("1 structural exactness grid", ok)


def test_criterion_2_spectral_multiset_equivalence():
    ok = True
    for q, g in GRID:
        params = RcgParams(q, g)
        if params.vertex_count > 500:
            continue
        graph = build_rcg(params).graph
        for kind, build in (
            ("adjacency", adjacency_spectrum),
            ("laplacian", laplacian_spectrum),
        ):
            predicted = expand(build(params))
            measured = symmetric_eigenvalues(matrix_of(graph, kind))
            ok &= len(predicted) == len(measured)
            ok &= all(
                abs(p - m) <= SPECTRUM_TOL for p, m in zip(predicted, measured)
            )
        if g >= 1:
            multiplicity = sum(
                mult
                for value, mult in laplacian_spectrum(params).entries
                if abs(value - (q + 1)) <= MERGE_TOL
            )
            ok &= multiplicity == (q - 1) * q * (q + 1) ** (g - 1) + 1
    report("2 spectral multiset equivalence", ok)


def test_criterion_3_spanning_tree_triple_agreement():
    ok = True
    for q, g in GRID:
        params = RcgParams(q, g)
        closed = spanning_trees_closed(params).value
        spectral = spanning_trees_spectral(params).value
        determinant = matrix_tree_count(build_rcg(params).graph)
        ok &= closed == spectral == determinant
    ok &= spanning_trees_closed(RcgParams(2, 1)).value == 9
    ok &= spanning_trees_closed(RcgParams(2, 2)).value == 6561
    ok &= spanning_trees_closed(RcgParams(3, 1)).value == 12288
    report("3 spanning-tree triple agreement", ok)


def test_criterion_4_kirchhoff_triple_agreement():
    ok = True
    for q, g in GRID:
        params = RcgParams(q, g)
        closed = kirchhoff_closed(params)
        ok &= closed == kirchhoff_spectral(params)
        measured = resistance_sum(build_rcg(params).graph)
        ok &= abs(measured - float(closed)) <= RESISTANCE_REL_TOL * float(closed)
        if g == 0:
            ok &= closed == q - 1
    ok &= kirchhoff_closed(RcgParams(2, 1)) == 21
    ok &= kirchhoff_closed(RcgParams(2, 2)) == 321
    report("4 kirchhoff triple agreement", ok)


def test_criterion_5_typo_sentinel():
    # the implemented eigenvalue-product recursion (no extra factor q)
    # reproduces the closed form exactly
    ok = True
    for q in range(2, 6):
        for g in range(0, 7):
            value = nonzero_product(RcgParams(q, g)).value
            closed = q ** (q - 1) * (q + 1) ** ((q - 1) * ((q + 1) ** g - 1) + g)
            ok &= value == closed
    ok &= nonzero_product(RcgParams(2, 1)).value == 54
    report("5 typo sentinel", ok)


def test_criterion_6a_average_distance_growth():
    q, g = 2, 10
    rate = 2 * g * Fraction(q, q + 1)
    ratio = float(average_distance(RcgParams(q, g)) / rate)
    report(
        "6a average distance growth mu/(2g*q/(q+1)) in [0.95, 1.05]",
        0.95 <= ratio <= 1.05,
    )


@pytest.mark.parametrize("q,g", [(2, 5), (3, 4)])
def test_total_distance_matches_bfs_beyond_grid(q, g):
    params = RcgParams(q, g)
    assert total_distance(params) == bfs_total_distance(build_rcg(params).graph)


def test_criterion_6b_cumulative_degree_exact():
    ok = True
    for q, g in [(2, 3), (3, 3), (4, 2), (5, 2)]:
        params = RcgParams(q, g)
        for k in range(1, g + 1):
            ok &= cumulative_degree(params, k * q) == Fraction(1, (q + 1) ** (k - 1))
    report("6b cumulative degree exact form", ok)


def test_criterion_6c_asymptotic_clustering():
    limit = asymptotic_clustering(2)
    ok = abs(limit - 0.7603) < 1e-3
    ok &= abs(limit - float(global_clustering(RcgParams(2, 12)))) < 1e-3
    report("6c asymptotic clustering", ok)


def test_criterion_6d_kirchhoff_leading_behavior():
    def ratio(g):
        params = RcgParams(2, g)
        n = params.vertex_count
        return float(kirchhoff_closed(params)) / (n * n * math.log(n, 3))

    report("6d kirchhoff leading behavior", abs(ratio(8) / ratio(6) - 1) < 0.05)


class TestCriterion7CliContract:
    def run_cli(self, *argv):
        return subprocess.run(
            [sys.executable, "-m", "rcg.cli", *argv],
            capture_output=True,
            text=True,
        )

    def test_verify_exits_zero_on_grid(self):
        ok = True
        for q in (2, 3, 4):
            for g in (0, 1, 2):
                result = self.run_cli("verify", "--q", str(q), "--g", str(g))
                ok &= result.returncode == 0
        report("7 cli verify grid", ok)

    def test_generate_round_trips(self):
        ok = True
        for q, g in [(2, 2), (3, 1)]:
            result = self.run_cli("generate", "--q", str(q), "--g", str(g))
            ok &= result.returncode == 0
            ok &= result.stdout == reference_text(write_edgelist, build_rcg(RcgParams(q, g)))
        report("7 cli generate round-trip", ok)

    def test_curve_monotone_plateau(self):
        result = self.run_cli(
            "curve", "--quantity", "clustering", "--q-list", "2,3,4", "--g-max", "6"
        )
        ok = result.returncode == 0
        series: dict[int, list[Fraction]] = {}
        for line in result.stdout.splitlines()[1:]:
            q, g, value = line.split(",")
            series.setdefault(int(q), []).append(Fraction(value))
        for q, values in series.items():
            tail = values[1:]
            ok &= tail == sorted(tail, reverse=True)
            limit = asymptotic_clustering(q)
            gaps = [abs(float(v) - limit) for v in tail]
            ok &= gaps == sorted(gaps, reverse=True)
        report("7 cli curve plateau", ok)


def test_cli_module_entrypoint_exists():
    result = subprocess.run(
        [sys.executable, "-m", "rcg.cli", "analyze", "--q", "2", "--g", "1"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert '"order": "6"' in result.stdout

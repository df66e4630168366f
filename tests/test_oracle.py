import math
from fractions import Fraction

import numpy as np
import pytest

from rcg import (
    ConnectivityError,
    Graph,
    RcgParams,
    ResourceLimitError,
    build_rcg,
    complete_graph,
    matrix_of,
)
from rcg.oracle import (
    bfs_total_distance,
    degree_histogram,
    local_clustering,
    matrix_tree_count,
    mean_neighbor_degree_by_class,
    oracle_report,
    resistance_sum,
    symmetric_eigenvalues,
)


def star(n):
    return Graph.from_edges(n + 1, [(0, i) for i in range(1, n + 1)])


class TestBfsTotalDistance:
    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_complete_graph(self, q):
        assert bfs_total_distance(complete_graph(q)) == q * (q - 1) // 2

    def test_c21(self):
        # 7 pairs at distance 1, 4 at 2, 4 at 3
        assert bfs_total_distance(build_rcg(RcgParams(2, 1)).graph) == 27

    def test_path_of_three(self):
        assert bfs_total_distance(Graph.from_edges(3, [(0, 1), (1, 2)])) == 4

    def test_disconnected_raises(self):
        with pytest.raises(ConnectivityError):
            bfs_total_distance(Graph.from_edges(3, [(0, 1)]))


class TestDegreeHistogram:
    def test_k4(self):
        assert degree_histogram(complete_graph(4)) == {3: 4}

    def test_c22(self):
        assert degree_histogram(build_rcg(RcgParams(2, 2)).graph) == {2: 12, 4: 4, 5: 2}

    def test_c31(self):
        assert degree_histogram(build_rcg(RcgParams(3, 1)).graph) == {3: 9, 5: 3}


class TestLocalClustering:
    @pytest.mark.parametrize("q", [3, 4, 6])
    def test_complete_graph_all_one(self, q):
        assert local_clustering(complete_graph(q)) == [Fraction(1)] * q

    def test_c21_initial_vertex(self):
        assert local_clustering(build_rcg(RcgParams(2, 1)).graph)[0] == Fraction(1, 3)

    def test_star_center_zero(self):
        assert local_clustering(star(4))[0] == 0


class TestMeanNeighborDegree:
    def test_c21(self):
        measured = mean_neighbor_degree_by_class(build_rcg(RcgParams(2, 1)))
        assert measured == {0: Fraction(7, 3), 1: Fraction(5, 2)}

    @pytest.mark.parametrize("q", [2, 4])
    def test_complete_graph(self, q):
        assert mean_neighbor_degree_by_class(build_rcg(RcgParams(q, 0))) == {
            0: Fraction(q - 1)
        }


class TestSymmetricEigenvalues:
    def test_diagonal(self):
        assert symmetric_eigenvalues(np.diag([3.0, 1.0, 2.0])) == [3.0, 2.0, 1.0]

    def test_k2_laplacian(self):
        values = symmetric_eigenvalues(matrix_of(complete_graph(2), "laplacian"))
        assert values == pytest.approx([2.0, 0.0], abs=1e-10)

    def test_c21_laplacian(self):
        values = symmetric_eigenvalues(
            matrix_of(build_rcg(RcgParams(2, 1)).graph, "laplacian")
        )
        root17 = math.sqrt(17)
        expected = [(5 + root17) / 2, 3, 3, 3, (5 - root17) / 2, 0]
        assert values == pytest.approx(expected, abs=1e-8)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_trace_and_frobenius(self, seed):
        rng = np.random.default_rng(seed)
        raw = rng.normal(size=(20, 20))
        a = (raw + raw.T) / 2
        values = np.array(symmetric_eigenvalues(a))
        n = a.shape[0]
        assert abs(values.sum() - np.trace(a)) < 1e-8 * n
        assert abs((values**2).sum() - np.linalg.norm(a) ** 2) < 1e-8 * n

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            symmetric_eigenvalues(np.array([[0.0, 1.0], [2.0, 0.0]]))

    def test_size_guard(self):
        with pytest.raises(ResourceLimitError):
            symmetric_eigenvalues(np.zeros((2001, 2001)))


class TestMatrixTreeCount:
    def test_k3_cayley(self):
        assert matrix_tree_count(complete_graph(3)) == 3

    @pytest.mark.parametrize("q", [4, 5, 6])
    def test_cayley_general(self, q):
        assert matrix_tree_count(complete_graph(q)) == q ** (q - 2)

    def test_c21(self):
        assert matrix_tree_count(build_rcg(RcgParams(2, 1)).graph) == 9

    def test_c22(self):
        assert matrix_tree_count(build_rcg(RcgParams(2, 2)).graph) == 6561

    @pytest.mark.parametrize("q,g", [(2, 2), (3, 1)])
    def test_removed_index_irrelevant(self, q, g):
        graph = build_rcg(RcgParams(q, g)).graph
        first = matrix_tree_count(graph, remove_index=0)
        last = matrix_tree_count(graph, remove_index=graph.vertex_count - 1)
        assert first == last

    def test_disconnected_returns_zero(self):
        assert matrix_tree_count(Graph.from_edges(4, [(0, 1), (2, 3)])) == 0


class TestResistanceSum:
    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_complete_graph(self, q):
        # each of the q(q-1)/2 pairs has resistance 2/q
        assert resistance_sum(complete_graph(q)) == pytest.approx(q - 1, rel=1e-10)

    def test_two_vertex_path(self):
        assert resistance_sum(complete_graph(2)) == pytest.approx(1.0, rel=1e-10)

    def test_c21(self):
        graph = build_rcg(RcgParams(2, 1)).graph
        assert resistance_sum(graph) == pytest.approx(21.0, abs=1e-6)

    @pytest.mark.parametrize("q,g", [(2, 2), (3, 1), (4, 1)])
    def test_matches_spectral_reciprocal_sum(self, q, g):
        graph = build_rcg(RcgParams(q, g)).graph
        eigenvalues = symmetric_eigenvalues(matrix_of(graph, "laplacian"))
        nonzero = [v for v in eigenvalues if abs(v) > 1e-9]
        assert len(nonzero) == graph.vertex_count - 1
        via_spectrum = graph.vertex_count * sum(1.0 / v for v in nonzero)
        assert resistance_sum(graph) == pytest.approx(via_spectrum, rel=1e-6)

    def test_disconnected_raises(self):
        with pytest.raises(ConnectivityError):
            resistance_sum(Graph.from_edges(3, [(0, 1)]))


def test_oracle_report_is_self_consistent():
    cg = build_rcg(RcgParams(2, 1))
    report = oracle_report(cg)
    assert report.total_distance == 27
    assert report.spanning_tree_count == 9
    assert report.resistance_sum == pytest.approx(21.0, abs=1e-6)
    assert sum(report.degree_histogram.values()) == cg.graph.vertex_count
    assert len(report.adjacency_eigenvalues) == cg.graph.vertex_count

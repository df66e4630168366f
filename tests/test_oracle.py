import math
from fractions import Fraction

import numpy as np
import pytest

from rcg import (
    ConnectivityError,
    NumericalError,
    RcgParams,
    ResourceLimitError,
    build_rcg,
    matrix_of,
)
from rcg.formulas import spanning_trees_closed
from rcg.oracle import (
    EIGENVALUE_SIZE_LIMIT,
    bfs_total_distance,
    degree_histogram,
    local_clustering,
    matrix_tree_count,
    mean_neighbor_degree_by_class,
    resistance_sum,
    symmetric_eigenvalues,
)

from reference import complete_graph, graph_of


def star(n):
    return graph_of(n + 1, [(0, i) for i in range(1, n + 1)])


def cycle(n):
    return graph_of(n, [(i, (i + 1) % n) for i in range(n)])


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return graph_of(10, outer + spokes + inner)


def failing_linalg(*args, **kwargs):
    raise np.linalg.LinAlgError("forced failure")


class TestBfsTotalDistance:
    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_complete_graph(self, q):
        assert bfs_total_distance(complete_graph(q)) == q * (q - 1) // 2

    def test_c21(self):
        # 7 pairs at distance 1, 4 at 2, 4 at 3
        assert bfs_total_distance(build_rcg(RcgParams(2, 1)).graph) == 27

    def test_path_of_three(self):
        assert bfs_total_distance(graph_of(3, [(0, 1), (1, 2)])) == 4

    def test_disconnected_raises(self):
        with pytest.raises(ConnectivityError):
            bfs_total_distance(graph_of(3, [(0, 1)]))


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

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            symmetric_eigenvalues(np.zeros((2, 3)))

    def test_size_guard(self):
        n = EIGENVALUE_SIZE_LIMIT + 1
        with pytest.raises(ResourceLimitError):
            symmetric_eigenvalues(np.zeros((n, n)))

    def test_solver_failure_is_numerical_error(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "eigvalsh", failing_linalg)
        with pytest.raises(NumericalError):
            symmetric_eigenvalues(np.eye(3))


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
        counts = {matrix_tree_count(graph, i) for i in range(graph.vertex_count)}
        assert len(counts) == 1

    def test_disconnected_returns_zero(self):
        assert matrix_tree_count(graph_of(4, [(0, 1), (2, 3)])) == 0

    def test_isolated_vertex_returns_zero(self):
        assert matrix_tree_count(graph_of(3, [(0, 1)]), remove_index=1) == 0

    # non-chordal graphs; a cycle's minor is a path, but the minors of K_{3,3}
    # and the Petersen graph fill in under elimination in any order
    @pytest.mark.parametrize("n", [3, 4, 7, 12])
    def test_cycle(self, n):
        assert matrix_tree_count(cycle(n)) == n

    def test_k33(self):
        k33 = graph_of(6, [(i, j) for i in range(3) for j in range(3, 6)])
        assert matrix_tree_count(k33) == 81

    def test_petersen(self):
        assert matrix_tree_count(petersen()) == 2000

    def test_matches_closed_form_at_q2_g5(self):
        params = RcgParams(2, 5)
        graph = build_rcg(params).graph
        assert matrix_tree_count(graph) == spanning_trees_closed(params).value


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
            resistance_sum(graph_of(3, [(0, 1)]))

    def test_solver_failure_is_numerical_error(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "inv", failing_linalg)
        with pytest.raises(NumericalError):
            resistance_sum(complete_graph(3))


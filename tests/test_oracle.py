import math
import re
import time
from fractions import Fraction

import numpy as np
import pytest

from rcg import (
    ConnectivityError,
    Graph,
    NumericalError,
    RcgParams,
    ResourceLimitError,
    build_rcg,
    matrix_of,
)
from rcg import oracle
from rcg.cli import verification_checks
from rcg.formulas import kirchhoff_closed, spanning_trees_closed
from rcg.oracle import (
    EIGENVALUE_SIZE_LIMIT,
    MATRIX_TREE_SIZE_LIMIT,
    bfs_total_distance,
    degree_histogram,
    local_clustering,
    matrix_tree_count,
    mean_neighbor_degree_by_class,
    resistance_sum,
    symmetric_eigenvalues,
)

from reference import complete_graph, edge_pairs, graph_of, traced_peak


def star(n):
    return graph_of(n + 1, [(0, i) for i in range(1, n + 1)])


def cycle(n):
    return graph_of(n, [(i, (i + 1) % n) for i in range(n)])


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return graph_of(10, outer + spokes + inner)


def grid(rows, cols):
    right = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    down = [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    return graph_of(rows * cols, right + down)


def k33():
    return graph_of(6, [(i, j) for i in range(3) for j in range(3, 6)])


def complete_plus_isolated(n, isolated=0):
    return Graph(n + isolated, *np.triu_indices(n, 1))


def no_rows(graph):
    raise AssertionError("rows built before the work was admitted")


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

    @pytest.mark.parametrize("edges", [[(0, 1)], [(1, 2)], [(0, 1), (2, 3)]])
    def test_disconnected_refused(self, edges):
        # [(1, 2)] leaves vertex 0 isolated
        with pytest.raises(ConnectivityError, match="^graph is disconnected$"):
            bfs_total_distance(graph_of(4, edges))

    @pytest.mark.parametrize("n", range(3, 9))
    def test_cycle(self, n):
        assert bfs_total_distance(cycle(n)) == n * (n * n // 4) // 2

    @pytest.mark.parametrize("n", range(1, 51))
    def test_path(self, n):
        # n - 1 levels, one per distance
        path = graph_of(n, [(i, i + 1) for i in range(n - 1)])
        assert bfs_total_distance(path) == (n**3 - n) // 6

    @pytest.mark.parametrize(
        "graph,total",
        [(petersen(), 75), (k33(), 21), (grid(4, 5), 570)],
        ids=["petersen", "k33", "grid4x5"],
    )
    def test_not_block_graphs(self, graph, total):
        assert bfs_total_distance(graph) == total

    def test_size_guard(self):
        # the balls would take N^2 bits, so the size is refused first
        with pytest.raises(ResourceLimitError, match="^graph size 2001 exceeds 2000$"):
            bfs_total_distance(graph_of(EIGENVALUE_SIZE_LIMIT + 1, []))
        edgeless = graph_of(10**6, [])

        def refused():
            with pytest.raises(ResourceLimitError):
                bfs_total_distance(edgeless)

        assert traced_peak(refused) < 10**6

    def test_empty_graph(self):
        assert bfs_total_distance(graph_of(0, [])) == 0


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

    def test_below_degree_two_zero(self):
        # the star's leaves have degree 1, the isolated vertex 0
        assert local_clustering(star(4))[1:] == [0] * 4
        assert local_clustering(graph_of(3, [(0, 1)])) == [0] * 3


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

    def test_rejects_near_symmetric(self):
        # symmetry is exact: the oracle's matrices are integer matrices
        with pytest.raises(ValueError):
            symmetric_eigenvalues(np.array([[0.0, 1.0], [1.0 + 1e-9, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            symmetric_eigenvalues(np.zeros((2, 3)))

    @pytest.mark.parametrize(
        "matrix,entry",
        [
            ([[math.inf, 0.0], [0.0, 0.0]], "(0, 0) is inf"),
            ([[0.0, 1.0], [1.0, -math.inf]], "(1, 1) is -inf"),
            # symmetric but for NaN, which equals nothing: named, not "symmetric"
            ([[0.0, math.nan], [math.nan, 0.0]], "(0, 1) is nan"),
            (np.array([[0.0, 1.0], [math.inf, 0.0]]), "(1, 0) is inf"),
        ],
    )
    def test_rejects_non_finite_entries(self, matrix, entry):
        with pytest.raises(ValueError, match=re.escape(f"matrix entry {entry}, not finite")):
            symmetric_eigenvalues(matrix)

    def test_size_guard(self):
        # refused from the shape: a float copy of this int64 matrix is 32 MB
        n = EIGENVALUE_SIZE_LIMIT + 1
        matrix = np.zeros((n, n), dtype=np.int64)

        def refused():
            with pytest.raises(ResourceLimitError):
                symmetric_eigenvalues(matrix)

        assert traced_peak(refused) < 10**6

    def test_large_non_square_refused_before_conversion(self):
        matrix = np.zeros((EIGENVALUE_SIZE_LIMIT + 1, EIGENVALUE_SIZE_LIMIT), dtype=np.int64)

        def refused():
            with pytest.raises(ValueError):
                symmetric_eigenvalues(matrix)

        assert traced_peak(refused) < 10**6

    def test_float_input_unchanged(self):
        lap = matrix_of(build_rcg(RcgParams(3, 2)).graph, "laplacian")
        before = lap.copy()
        symmetric_eigenvalues(lap)
        assert lap.tobytes() == before.tobytes()

    @pytest.mark.parametrize("kind", ["adjacency", "laplacian"])
    def test_same_values_for_every_input_form(self, kind):
        matrix = matrix_of(build_rcg(RcgParams(3, 2)).graph, kind)
        forms = [matrix, matrix.astype(np.int64), matrix.astype(np.int64).tolist()]
        values = [symmetric_eigenvalues(form) for form in forms]
        assert values[0] == values[1] == values[2]

    @pytest.mark.parametrize("q,g", [(5, 2), (4, 3)])
    @pytest.mark.parametrize("kind", ["adjacency", "laplacian"])
    def test_dense_stage_peak(self, q, g, kind):
        # one N x N float64 array, with no int64 temporaries or conversion
        # copy (which took 2.2-3.0 times it); eigvalsh's copy for LAPACK and
        # the work space are outside what tracemalloc sees
        graph = build_rcg(RcgParams(q, g)).graph
        n = graph.vertex_count
        peak = traced_peak(lambda: symmetric_eigenvalues(matrix_of(graph, kind)))
        assert peak <= 1.5 * 8 * n * n

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
        # swapping labels 0 and i grounds vertex i instead, and eliminates in an
        # order that is not a perfect elimination order: the count stays
        graph = build_rcg(RcgParams(q, g)).graph
        counts = set()
        for i in range(graph.vertex_count):
            swap = {0: i, i: 0}
            pairs = [(swap.get(u, u), swap.get(v, v)) for u, v in edge_pairs(graph)]
            counts.add(matrix_tree_count(graph_of(graph.vertex_count, pairs)))
        assert counts == {matrix_tree_count(graph)}

    def test_disconnected_returns_zero(self):
        assert matrix_tree_count(graph_of(4, [(0, 1), (2, 3)])) == 0

    def test_isolated_vertex_returns_zero(self):
        assert matrix_tree_count(graph_of(3, [(0, 1)])) == 0

    @pytest.mark.parametrize("n", [0, 1])
    def test_trivial_graphs_have_one_tree(self, n):
        # with vertex 0 grounded nothing is left to eliminate: the empty factor
        graph = graph_of(n, [])
        assert oracle._eliminate(graph) == []
        assert matrix_tree_count(graph) == 1

    def test_size_guard(self):
        with pytest.raises(ResourceLimitError, match="graph size 501 exceeds 500"):
            matrix_tree_count(graph_of(MATRIX_TREE_SIZE_LIMIT + 1, []))

    # non-chordal graphs; a cycle's minor is a path, but the minors of K_{3,3}
    # and the Petersen graph fill in under elimination in any order
    @pytest.mark.parametrize("n", [3, 4, 7, 12])
    def test_cycle(self, n):
        assert matrix_tree_count(cycle(n)) == n

    def test_k33(self):
        assert matrix_tree_count(k33()) == 81

    def test_petersen(self):
        assert matrix_tree_count(petersen()) == 2000

    def test_matches_closed_form_at_q2_g5(self):
        params = RcgParams(2, 5)
        graph = build_rcg(params).graph
        assert matrix_tree_count(graph) == spanning_trees_closed(params).value


ACCEPTANCE_GRID = [(q, g) for q in (2, 3, 4, 5) for g in (0, 1, 2)] + [(2, 3)]


class TestElimination:
    """The one exact elimination behind the tree and resistance oracles."""

    # neither graph is chordal, so reverse index order fills in: a limit one
    # short of the Schur updates refuses each by its count, the count itself passes
    @pytest.mark.parametrize(
        "graph,kirchhoff,work", [(k33(), 9, 10), (petersen(), 33, 57)], ids=["k33", "petersen"]
    )
    def test_work_is_counted(self, graph, kirchhoff, work, monkeypatch):
        monkeypatch.setattr(oracle, "WORK_LIMIT", work - 1)
        message = f"^elimination work {work} exceeds {work - 1}$"
        for call in (matrix_tree_count, resistance_sum):
            with pytest.raises(ResourceLimitError, match=message):
                call(graph)
        monkeypatch.setattr(oracle, "WORK_LIMIT", work)
        assert resistance_sum(graph) == kirchhoff

    def test_complete_graph_work_sets_the_limit(self, monkeypatch):
        # K_n makes (n-2)(n-1)n/6 updates, the most of any n-vertex graph, so
        # the work of K_500 admits every graph the tree oracle's size admits
        assert oracle.WORK_LIMIT == 498 * 499 * 500 // 6 and MATRIX_TREE_SIZE_LIMIT == 500
        n, graph = 30, complete_graph(30)
        work = (n - 2) * (n - 1) * n // 6
        monkeypatch.setattr(oracle, "WORK_LIMIT", work - 1)
        with pytest.raises(ResourceLimitError, match=f"^elimination work {work} exceeds"):
            matrix_tree_count(graph)
        monkeypatch.setattr(oracle, "WORK_LIMIT", work)
        assert matrix_tree_count(graph) == n ** (n - 2)

    @pytest.mark.parametrize("q,g", ACCEPTANCE_GRID + [(2, 5), (3, 4), (2, 6), (5, 3)])
    def test_corona_graphs_fill_nothing(self, q, g):
        # column k of the factor holds exactly k's neighbours below k, vertex 0
        # left out: no pivot adds an entry
        graph = build_rcg(RcgParams(q, g)).graph
        adj = graph.adjacency_lists()
        factor = oracle._eliminate(graph)
        assert [k for k, _, _ in factor] == list(range(graph.vertex_count - 1, 0, -1))
        for k, _, column in factor:
            assert sorted(column) == [j for j in adj[k] if 0 < j < k]

    def test_fill_budget_is_refused(self, monkeypatch):
        monkeypatch.setattr(oracle, "WORK_LIMIT", 1)
        for call in (matrix_tree_count, resistance_sum):
            with pytest.raises(ResourceLimitError):
                call(k33())
        # the default limit admits the corona graphs the tree oracle's size admits
        monkeypatch.undo()
        assert matrix_tree_count(build_rcg(RcgParams(2, 2)).graph) == 6561

    def test_grid_resistance_is_exact(self):
        # the 4x5 grid fills in; its Kirchhoff index against a dense pseudoinverse
        measured = resistance_sum(grid(4, 5))
        assert measured == Fraction(96431410, 460009)
        pinv = np.linalg.pinv(matrix_of(grid(4, 5), "laplacian"))
        assert float(measured) == pytest.approx(20 * np.trace(pinv) - pinv.sum(), rel=1e-12)

    def test_one_loop_serves_every_oracle(self, monkeypatch):
        calls = []
        eliminate = oracle._eliminate

        def counted(graph):
            calls.append(graph)
            return eliminate(graph)

        monkeypatch.setattr(oracle, "_eliminate", counted)
        graph = build_rcg(RcgParams(2, 2)).graph
        matrix_tree_count(graph)
        resistance_sum(graph)
        assert calls == [graph, graph]

    # K_n's pattern makes C(n, 3) updates; an isolated vertex adds none, and
    # though its zero pivot would end the loop first, the pattern is refused
    @pytest.mark.parametrize("n,isolated,work", [(2000, 0, 1331334000), (600, 1, 35820200)])
    def test_pattern_work_is_refused_before_any_row(self, n, isolated, work, monkeypatch):
        graph = complete_plus_isolated(n, isolated)
        monkeypatch.setattr(Graph, "adjacency_lists", no_rows)
        with pytest.raises(ResourceLimitError, match=f"^elimination work {work} exceeds 20708500$"):
            resistance_sum(graph)

    def test_k2000_is_refused_at_once(self):
        graph = complete_plus_isolated(2000)
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError):
            resistance_sum(graph)
        assert time.perf_counter() - start < 2.0


class TestResistanceSum:
    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_complete_graph(self, q):
        # each of the q(q-1)/2 pairs has resistance 2/q
        assert resistance_sum(complete_graph(q)) == q - 1

    def test_two_vertex_path(self):
        assert resistance_sum(complete_graph(2)) == 1

    @pytest.mark.parametrize("n", [0, 1])
    def test_trivial_graphs_sum_zero(self, n):
        assert resistance_sum(graph_of(n, [])) == 0

    def test_size_guard(self):
        with pytest.raises(ResourceLimitError, match="graph size 2001 exceeds 2000"):
            resistance_sum(graph_of(EIGENVALUE_SIZE_LIMIT + 1, []))

    def test_c21(self):
        graph = build_rcg(RcgParams(2, 1)).graph
        assert resistance_sum(graph) == 21

    @pytest.mark.parametrize("n", [3, 4, 7])
    def test_cycle(self, n):
        # a pair k steps apart has resistance k(n-k)/n; the n pairs per k sum to (n^3 - n)/12
        assert resistance_sum(cycle(n)) == Fraction(n**3 - n, 12)

    @pytest.mark.parametrize("q,g", [(2, 2), (3, 1), (4, 1)])
    def test_matches_spectral_reciprocal_sum(self, q, g):
        graph = build_rcg(RcgParams(q, g)).graph
        eigenvalues = symmetric_eigenvalues(matrix_of(graph, "laplacian"))
        nonzero = [v for v in eigenvalues if abs(v) > 1e-9]
        assert len(nonzero) == graph.vertex_count - 1
        via_spectrum = graph.vertex_count * sum(1.0 / v for v in nonzero)
        assert float(resistance_sum(graph)) == pytest.approx(via_spectrum, rel=1e-6)

    @pytest.mark.parametrize("q,g", ACCEPTANCE_GRID + [(2, 5), (3, 4)])
    def test_equals_closed_form(self, q, g):
        params = RcgParams(q, g)
        measured = resistance_sum(build_rcg(params).graph)
        assert isinstance(measured, Fraction)
        assert measured == kirchhoff_closed(params)

    def test_disconnected_raises(self):
        with pytest.raises(ConnectivityError):
            resistance_sum(graph_of(3, [(0, 1)]))

    def test_verify_needs_no_dense_inverse(self, monkeypatch):
        # the Kirchhoff row reads the exact elimination, so neither inverse is called
        monkeypatch.setattr(np.linalg, "inv", failing_linalg)
        monkeypatch.setattr(np.linalg, "pinv", failing_linalg)
        checks = verification_checks(RcgParams(5, 2))
        assert dict(checks)["kirchhoff vs resistance"]
        assert all(ok for _, ok in checks)

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcg import (
    CoronaGraph,
    Graph,
    RcgParams,
    ResourceLimitError,
    birth_generation,
    build_rcg,
    complete_graph,
    corona_product,
    matrix_of,
    parse_edgelist,
    write_edgelist,
)


class TestGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph(2, ((0, 0),))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph(2, ((0, 2),))

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError, match="out of order"):
            Graph(3, ((1, 2), (0, 1)))

    def test_rejects_duplicate(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph(2, ((0, 1), (0, 1)))

    def test_rejects_reversed_pair(self):
        with pytest.raises(ValueError, match="not normalized"):
            Graph(2, ((1, 0),))

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(2, ((-1, 1),))

    def test_rejects_negative_vertex_count(self):
        with pytest.raises(ValueError, match="nonnegative"):
            Graph(-1, ())

    def test_from_edges_normalizes(self):
        g = Graph.from_edges(3, [(2, 0), (0, 2), (1, 0)])
        assert g.edges == ((0, 1), (0, 2))

    def test_degrees_and_adjacency(self):
        g = complete_graph(4)
        assert g.degrees() == [3, 3, 3, 3]
        assert g.adjacency_lists()[0] == [1, 2, 3]


class TestCoronaProduct:
    def test_k1_k1_is_single_edge(self):
        g = corona_product(complete_graph(1), complete_graph(1))
        assert (g.vertex_count, g.edge_count) == (2, 1)

    def test_k2_k2(self):
        # two triangles joined by an edge: M = M1 + N1*M2 + N1*N2 = 1 + 2 + 4
        g = corona_product(complete_graph(2), complete_graph(2))
        assert (g.vertex_count, g.edge_count) == (6, 7)

    def test_k3_k3(self):
        g = corona_product(complete_graph(3), complete_graph(3))
        assert (g.vertex_count, g.edge_count) == (12, 21)

    def test_rejects_empty_second_factor(self):
        with pytest.raises(ValueError):
            corona_product(complete_graph(2), Graph(0, ()))

    def test_layout(self):
        g = corona_product(complete_graph(2), complete_graph(2))
        # vertex i of g1 keeps index i; copy i occupies N1 + i*N2 ..
        assert (0, 1) in g.edges
        assert (2, 3) in g.edges and (4, 5) in g.edges
        assert (0, 2) in g.edges and (0, 3) in g.edges
        assert (1, 4) in g.edges and (1, 5) in g.edges

    @settings(max_examples=30, deadline=None)
    @given(
        n1=st.integers(1, 5),
        n2=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_counts_for_random_factors(self, n1, n2, seed):
        import random

        rng = random.Random(seed)
        e1 = [
            (u, v)
            for u in range(n1)
            for v in range(u + 1, n1)
            if rng.random() < 0.5
        ]
        e2 = [
            (u, v)
            for u in range(n2)
            for v in range(u + 1, n2)
            if rng.random() < 0.5
        ]
        rng.shuffle(e1)
        g1 = Graph.from_edges(n1, [(v, u) for u, v in e1])
        g2 = Graph.from_edges(n2, e2)
        # from_edges output meets the strictly increasing contract as is
        assert Graph(n1, g1.edges) == g1 and Graph(n2, g2.edges) == g2
        result = corona_product(g1, g2)
        assert Graph(result.vertex_count, result.edges) == result
        assert result.vertex_count == n1 + n1 * n2
        assert result.edge_count == len(e1) + n1 * len(e2) + n1 * n2


class TestBuildRcg:
    def test_generation_zero_is_complete(self):
        cg = build_rcg(RcgParams(2, 0))
        assert (cg.graph.vertex_count, cg.graph.edge_count) == (2, 1)
        assert cg.birth == (0, 0)

    def test_q2_g1(self):
        cg = build_rcg(RcgParams(2, 1))
        assert (cg.graph.vertex_count, cg.graph.edge_count) == (6, 7)
        assert cg.birth == (0, 0, 1, 1, 1, 1)

    def test_q4_g2(self):
        # N = 4*25 = 100, M = 4*(5^3 - 2)/2 = 246, confirmed by construction
        cg = build_rcg(RcgParams(4, 2))
        assert (cg.graph.vertex_count, cg.graph.edge_count) == (100, 246)

    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    @pytest.mark.parametrize("g", [0, 1, 2, 3])
    def test_order_size_formulas(self, q, g):
        params = RcgParams(q, g)
        if params.vertex_count > 2000:
            pytest.skip("explicit construction too large for this check")
        cg = build_rcg(params)
        assert cg.graph.vertex_count == q * (q + 1) ** g
        assert cg.graph.edge_count == q * ((q + 1) ** (g + 1) - 2) // 2
        assert cg.graph.is_connected()

    @pytest.mark.parametrize(
        "q,g", [(2, 2), (3, 2), (2, 3), (4, 2), (5, 2), (3, 3), (2, 5)]
    )
    def test_iteration_is_index_identical(self, q, g):
        previous = build_rcg(RcgParams(q, g - 1))
        expected = corona_product(previous.graph, complete_graph(q))
        assert expected == build_rcg(RcgParams(q, g)).graph

    @pytest.mark.parametrize("q,g", [(2, 5), (3, 3), (5, 2)])
    def test_birth_matches_layout(self, q, g):
        params = RcgParams(q, g)
        cg = build_rcg(params)
        assert cg.birth == tuple(
            birth_generation(v, params) for v in range(params.vertex_count)
        )

    def test_values_are_python_ints(self):
        cg = build_rcg(RcgParams(3, 3))
        assert all(type(x) is int for edge in cg.graph.edges for x in edge)
        assert all(type(x) is int for x in cg.birth)

    def test_edgelist_hash_is_pinned(self):
        # sha256 of `rcg generate --q 3 --g 6`, taken from the per-generation
        # corona_product construction
        text = write_edgelist(build_rcg(RcgParams(3, 6)))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "bb94c17447cf568f9f8eef5eaa6d1308fd43cd128ca2ee06fd4d2c3b1377f33c"
        )

    @pytest.mark.parametrize("q,g", [(2, 3), (3, 2), (5, 1)])
    def test_birth_class_sizes(self, q, g):
        cg = build_rcg(RcgParams(q, g))
        for b in range(g + 1):
            expected = q if b == 0 else q * q * (q + 1) ** (b - 1)
            assert cg.birth.count(b) == expected

    def test_budget_refusal_names_required_count(self):
        with pytest.raises(ResourceLimitError, match="18"):
            build_rcg(RcgParams(2, 2), vertex_budget=10)

    def test_birth_metadata_mismatch_rejected(self):
        cg = build_rcg(RcgParams(2, 1))
        with pytest.raises(ValueError):
            CoronaGraph(cg.graph, cg.params, cg.birth[:-1])


class TestBirthGeneration:
    def test_initial_vertices_first(self):
        assert birth_generation(0, RcgParams(2, 3)) == 0

    def test_layout_rule(self):
        assert birth_generation(5, RcgParams(2, 1)) == 1
        assert birth_generation(17, RcgParams(2, 2)) == 2

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            birth_generation(6, RcgParams(2, 1))

    @settings(max_examples=50, deadline=None)
    @given(q=st.integers(2, 5), g=st.integers(0, 3), data=st.data())
    def test_matches_construction(self, q, g, data):
        params = RcgParams(q, g)
        cg = build_rcg(params)
        v = data.draw(st.integers(0, params.vertex_count - 1))
        assert birth_generation(v, params) == cg.birth[v]


class TestMatrixOf:
    def test_k2_laplacian(self):
        lap = matrix_of(complete_graph(2), "laplacian")
        assert lap.tolist() == [[1, -1], [-1, 1]]

    def test_adjacency_nonzeros(self):
        cg = build_rcg(RcgParams(2, 1))
        adj = matrix_of(cg.graph, "adjacency")
        assert adj.sum() == 14  # 2*M(1)

    @pytest.mark.parametrize("q,g", [(2, 1), (3, 1), (2, 2)])
    def test_laplacian_row_sums_zero(self, q, g):
        lap = matrix_of(build_rcg(RcgParams(q, g)).graph, "laplacian")
        assert lap.sum(axis=1).tolist() == [0] * lap.shape[0]

    @pytest.mark.parametrize("graph", [build_rcg(RcgParams(3, 2)).graph, Graph(3, ())])
    def test_adjacency_matches_edge_loop(self, graph):
        n = graph.vertex_count
        reference = [[0] * n for _ in range(n)]
        for u, v in graph.edges:
            reference[u][v] = reference[v][u] = 1
        assert matrix_of(graph, "adjacency").tolist() == reference

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            matrix_of(complete_graph(2), "incidence")


class TestEdgelist:
    def test_k2_output(self):
        text = write_edgelist(build_rcg(RcgParams(2, 0)))
        assert text.splitlines()[:4] == ["# q 2", "# g 0", "# N 2", "# M 1"]
        assert text.splitlines()[4] == "0 1"

    @pytest.mark.parametrize("q,g", [(2, 0), (2, 2), (3, 1)])
    def test_round_trip(self, q, g):
        cg = build_rcg(RcgParams(q, g))
        assert parse_edgelist(write_edgelist(cg)) == cg

    def test_missing_header_rejected(self):
        with pytest.raises(ValueError):
            parse_edgelist("0 1\n")

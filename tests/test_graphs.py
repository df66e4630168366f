import dataclasses
import hashlib
import io
import re
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcg import graphs, oracle
from rcg import (
    CoronaGraph,
    Graph,
    RcgParams,
    ResourceLimitError,
    build_rcg,
    matrix_of,
    write_dot,
    write_edgelist,
    write_json,
)

from reference import (
    birth_generation,
    complete_graph,
    corona_product,
    edge_pairs,
    graph_of,
    reference_text,
    traced_peak,
)


def _text(writer, cg):
    """What `writer` streams for the parameters of `cg`, as one str."""
    out = io.StringIO()
    writer(cg.params, out)
    return out.getvalue()


class _Discard(io.TextIOBase):
    """A text stream that keeps nothing, so a writer's peak is its own."""

    def write(self, text):
        return len(text)


class TestGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph(2, [0], [0])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph(2, [0], [2])

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError, match="out of order"):
            Graph(3, [1, 0], [2, 1])

    def test_rejects_duplicate(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph(2, [0, 0], [1, 1])

    def test_rejects_reversed_pair(self):
        with pytest.raises(ValueError, match="not normalized"):
            Graph(2, [1], [0])

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(2, [-1], [1])

    def test_rejects_float_endpoints(self):
        # a cast to int64 would read these as the edges (0, 1) and (1, 2)
        with pytest.raises(ValueError, match="integers"):
            Graph(3, [0.9, 1.2], [1.5, 2.99])
        # a float vertex count would fail later, in degrees(); a numpy
        # integer is an integer
        with pytest.raises(ValueError, match="integer"):
            Graph(3.0, [0], [1])
        n = Graph(np.int64(3), [0], [1]).vertex_count
        assert (n, type(n)) == (3, int)

    def test_rejects_negative_vertex_count(self):
        with pytest.raises(ValueError, match="nonnegative"):
            Graph(-1, [], [])

    def test_rejects_bool_vertex_count(self):
        # True would pass as one vertex, and the edge (0, 1) be out of range
        for flag in (True, False, np.bool_(True)):
            with pytest.raises(ValueError, match="^vertex_count must be a nonnegative integer$"):
                Graph(flag, [0], [1])

    @pytest.mark.parametrize(
        "u,v", [([[0]], [[1]]), ([0, 1], [1])], ids=["two-dimensional", "unequal-lengths"]
    )
    def test_rejects_malformed_endpoint_arrays(self, u, v):
        with pytest.raises(ValueError, match="one-dimensional and of equal length"):
            Graph(3, u, v)

    def test_accepts_empty_edges(self):
        g = Graph(3, [], [])
        assert (g.vertex_count, g.edge_count, edge_pairs(g)) == (3, 0, [])

    def test_accepts_pair_array(self):
        pairs = np.array([[0, 1], [0, 2], [1, 2]])
        g = Graph(3, pairs[:, 0], pairs[:, 1])
        assert g == complete_graph(3)
        assert g.u.tolist() == [0, 0, 1] and g.v.tolist() == [1, 2, 2]

    def test_adopts_contiguous_int64_arrays(self):
        # build_rcg's arrays are kept as they are, not copied
        u, v = np.array([0, 0, 1], dtype=np.int64), np.array([1, 2, 2], dtype=np.int64)
        g = Graph(3, u, v)
        assert g.u is u and g.v is v
        assert not u.flags.writeable and not v.flags.writeable

    def test_copies_a_view(self):
        # a view's base stays writable after the check, so a view is copied:
        # writing the base afterwards changes no edge
        base = np.array([0, 0, 1, 1, 2, 2], dtype=np.int64)
        g = Graph(3, base[0:3], base[3:6])
        base[3:6] = 0
        assert g.u.tolist() == [0, 0, 1] and g.v.tolist() == [1, 2, 2]
        assert g == complete_graph(3) and oracle.bfs_total_distance(g) == 3

    def test_arrays_are_read_only(self):
        g = complete_graph(3)
        with pytest.raises(ValueError):
            g.u[0] = 1

    def test_equal_graphs(self):
        a = build_rcg(RcgParams(3, 2)).graph
        b = graph_of(a.vertex_count, edge_pairs(a))
        c = Graph(a.vertex_count, a.u.copy(), a.v.copy())
        assert a == b == c
        assert a != graph_of(a.vertex_count + 1, edge_pairs(a))
        assert a != complete_graph(3)

    def test_not_equal_to_other_types(self):
        graph = complete_graph(3)
        assert graph.__eq__((3, [0, 0, 1], [1, 2, 2])) is NotImplemented
        assert graph != 3 and graph != "Graph(vertex_count=3, edge_count=3)"

    def test_repr(self):
        assert repr(complete_graph(3)) == "Graph(vertex_count=3, edge_count=3)"
        assert repr(Graph(0, [], [])) == "Graph(vertex_count=0, edge_count=0)"

    @pytest.mark.parametrize("kind", ["duplicate", "reversed", "out of order"])
    def test_planted_fault_names_first_offender(self, kind):
        # one fault deep inside the 24573 edges of C_3(6); every edge before
        # it is valid, so the vectorized pass must report exactly this edge
        graph = build_rcg(RcgParams(3, 6)).graph
        pairs = np.column_stack((graph.u, graph.v))
        k = 17_000
        if kind == "duplicate":
            pairs[k] = pairs[k - 1]
            a, b = pairs[k].tolist()
            message = f"duplicate edge ({a}, {b})"
        elif kind == "reversed":
            pairs[k] = pairs[k, ::-1]
            a, b = pairs[k].tolist()
            message = f"edge ({a}, {b}) not normalized (need u < v)"
        else:
            pairs[[k, k + 1]] = pairs[[k + 1, k]]
            a, b = pairs[k + 1].tolist()
            message = f"edge ({a}, {b}) out of order after {tuple(pairs[k].tolist())}"
        # a later fault of another kind must not mask the first one
        pairs[-1] = (graph.vertex_count, graph.vertex_count + 1)
        with pytest.raises(ValueError, match=re.escape(message)):
            Graph(graph.vertex_count, pairs[:, 0], pairs[:, 1])

    @pytest.mark.parametrize(
        "u,v,message", [([0, 0], [1, 1], "duplicate edge"), ([1, 0], [2, 1], "out of order")]
    )
    def test_checks_the_seams_between_chunks(self, u, v, message, monkeypatch):
        # one edge per chunk: every fault sits on a seam
        monkeypatch.setattr(graphs, "CHUNK_ROWS", 1)
        with pytest.raises(ValueError, match=message):
            Graph(3, u, v)

    def test_adjacency_and_degrees_match_edge_loop(self):
        graph = build_rcg(RcgParams(3, 3)).graph
        reference = [[] for _ in range(graph.vertex_count)]
        for u, v in edge_pairs(graph):
            reference[u].append(v)
            reference[v].append(u)
        assert graph.adjacency_lists() == [sorted(nbrs) for nbrs in reference]
        assert graph.degrees() == [len(nbrs) for nbrs in reference]
        assert Graph(2, [], []).adjacency_lists() == [[], []]
        assert Graph(2, [], []).degrees() == [0, 0]

    def test_degrees_and_adjacency(self):
        g = complete_graph(4)
        assert g.degrees() == [3, 3, 3, 3]
        assert g.adjacency_lists()[0] == [1, 2, 3]


class TestRcgParams:
    @pytest.mark.parametrize(
        "q,g,message",
        [
            (1, 0, "q must be an integer >= 2"),
            (2.0, 0, "q must be an integer >= 2"),
            (True, 0, "q must be an integer >= 2"),
            (2, -1, "g must be an integer >= 0"),
            (2, 1.0, "g must be an integer >= 0"),
            (2, True, "g must be an integer >= 0"),
            (2, False, "g must be an integer >= 0"),
            (np.bool_(True), 0, "q must be an integer >= 2"),
            (2, np.bool_(False), "g must be an integer >= 0"),
            (np.int64(1), 0, "q must be an integer >= 2"),
        ],
    )
    def test_rejects_non_integers_and_out_of_range(self, q, g, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            RcgParams(q, g)

    def test_accepts_ints(self):
        assert RcgParams(2, 0).vertex_count == 2
        assert repr(RcgParams(3, 1)) == "RcgParams(q=3, g=1)"

    def test_keeps_numpy_integers_as_ints(self):
        # 2 * 3^40 > 2^63: an int64 q would wrap in (q+1)^g
        params = RcgParams(np.int64(2), np.int64(40))
        assert params == RcgParams(2, 40)
        assert (type(params.q), type(params.g)) == (int, int)
        assert params.vertex_count == 2 * 3**40
        assert repr(RcgParams(np.uint8(3), np.int32(1))) == "RcgParams(q=3, g=1)"

    @pytest.mark.parametrize("digits", [4300, 640])
    def test_reprs_past_the_str_limit(self, str_limit, digits):
        # 10^digits has one digit more than the limit allows: the reprs name
        # it by its bit length, as a refusal does, without int->str
        sys.set_int_max_str_digits(digits)
        x = 10**digits
        name = f"<{x.bit_length()}-bit integer>"
        assert repr(RcgParams(x, 0)) == f"RcgParams(q={name}, g=0)"
        assert repr(RcgParams(2, x)) == f"RcgParams(q=2, g={name})"
        assert repr(Graph(x, [], [])) == f"Graph(vertex_count={name}, edge_count=0)"


LIMIT_EDGES = {
    "2^3L-1": lambda limit: 2 ** (3 * limit) - 1,
    "2^3L": lambda limit: 2 ** (3 * limit),
    "10^L-1": lambda limit: 10**limit - 1,
    "10^L": lambda limit: 10**limit,
}


class TestName:
    """`_name` writes an int below 10^L in decimal (L the int->str limit) and
    one from 10^L on by its sign and bit length; it reads the bit length
    first, so 10^L is built only for an int of more than 3L bits."""

    @pytest.mark.parametrize("sign", [1, -1], ids=["positive", "negative"])
    @pytest.mark.parametrize("edge", LIMIT_EDGES)
    @pytest.mark.parametrize("digits", [640, 4300])
    def test_decimal_below_ten_to_the_limit(self, str_limit, digits, edge, sign):
        sys.set_int_max_str_digits(digits)
        x = LIMIT_EDGES[edge](digits)
        if x < 10**digits:
            assert graphs._name(sign * x) == str(sign * x)
        else:
            assert graphs._name(sign * x) == "-" * (sign < 0) + f"<{x.bit_length()}-bit integer>"

    def test_builds_no_power_of_ten_per_call(self):
        # 10^4300 has 14285 bits and takes about 60 µs to build, so a small
        # int is named without it; a refusal names six integers
        start = time.perf_counter()
        for _ in range(10_000):
            graphs._name(5)
        assert time.perf_counter() - start < 0.1
        start = time.perf_counter()
        for _ in range(1000):
            with pytest.raises(ResourceLimitError):
                graphs.check_limits(RcgParams(2, 12))
        assert time.perf_counter() - start < 0.1


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
            corona_product(complete_graph(2), Graph(0, [], []))

    def test_layout(self):
        g = corona_product(complete_graph(2), complete_graph(2))
        # vertex i of g1 keeps index i; copy i occupies N1 + i*N2 ..
        edges = set(edge_pairs(g))
        assert (0, 1) in edges
        assert (2, 3) in edges and (4, 5) in edges
        assert (0, 2) in edges and (0, 3) in edges
        assert (1, 4) in edges and (1, 5) in edges

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
        g1 = graph_of(n1, [(v, u) for u, v in e1])
        g2 = graph_of(n2, e2)
        result = corona_product(g1, g2)
        assert result.vertex_count == n1 + n1 * n2
        assert result.edge_count == len(e1) + n1 * len(e2) + n1 * n2


def _over_limit_text(limit, params, count):
    """The count's text in the refusal of `over_limit`, or None where it admits."""
    try:
        graphs.over_limit(limit, params, count, "{n}")
    except ResourceLimitError as exc:
        return str(exc)
    return None


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
        # connected: the distance oracle refuses a disconnected graph
        oracle.bfs_total_distance(cg.graph)

    @pytest.mark.parametrize(
        "q,g",
        [(2, 2), (3, 2), (2, 3), (4, 2), (5, 2), (3, 3), (2, 5)]
        + [(q, g) for q in range(2, 13) for g in (0, 1)],
    )
    def test_iteration_is_index_identical(self, q, g):
        if g == 0:
            expected = complete_graph(q)
        else:
            previous = build_rcg(RcgParams(q, g - 1))
            expected = corona_product(previous.graph, complete_graph(q))
        assert expected == build_rcg(RcgParams(q, g)).graph

    # (130, 0) is one class; (100, 1) has a class whose block rows are split
    @pytest.mark.parametrize("q,g", [(2, 5), (3, 3), (5, 2), (130, 0), (100, 1)])
    def test_birth_matches_layout(self, q, g):
        params = RcgParams(q, g)
        cg = build_rcg(params)
        assert cg.birth == tuple(
            birth_generation(v, params) for v in range(params.vertex_count)
        )

    def test_values_are_python_ints(self):
        cg = build_rcg(RcgParams(3, 3))
        assert all(type(x) is int for edge in edge_pairs(cg.graph) for x in edge)
        assert all(type(x) is int for x in cg.birth)

    def test_edgelist_hash_is_pinned(self):
        # sha256 of `rcg generate --q 3 --g 6`, taken from the per-generation
        # corona_product construction
        text = _text(write_edgelist, build_rcg(RcgParams(3, 6)))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "bb94c17447cf568f9f8eef5eaa6d1308fd43cd128ca2ee06fd4d2c3b1377f33c"
        )

    @pytest.mark.parametrize("q,g", [(2, 3), (3, 2), (5, 1)])
    def test_birth_class_sizes(self, q, g):
        cg = build_rcg(RcgParams(q, g))
        for b in range(g + 1):
            expected = q if b == 0 else q * q * (q + 1) ** (b - 1)
            assert cg.birth.count(b) == expected

    def test_budget_refusal_names_required_count(self, monkeypatch):
        monkeypatch.setattr(graphs, "VERTEX_BUDGET", 10)
        with pytest.raises(ResourceLimitError, match="18"):
            build_rcg(RcgParams(2, 2))

    @pytest.mark.parametrize(
        "count,g,text",
        [
            # 10 has 4 bits: up to g = 4 the count is built and named in decimal
            ("vertices", 4, "162"),
            ("edges", 3, "79"),
            ("eigenvalues", 4, "47"),
            # past g = 4 it is at least 2^g > 10, named by its formula unbuilt,
            # however few digits it has
            ("vertices", 5, "2*3^5"),
            ("edges", 5, "2*(3^6-2)/2"),
            ("eigenvalues", 5, "3*2^5-1"),
            ("vertices", 104, "2*3^104"),
            ("vertices", 105, "2*3^105"),
            ("edges", 103, "2*(3^104-2)/2"),
            ("edges", 104, "2*(3^105-2)/2"),
            ("eigenvalues", 164, "3*2^164-1"),
            ("eigenvalues", 165, "3*2^165-1"),
        ],
    )
    def test_over_limit_names_the_count(self, monkeypatch, count, g, text):
        # the digit limit plays no part where the count is not built
        monkeypatch.setattr(graphs, "str_digit_limit", lambda: 50)
        assert _over_limit_text(10, RcgParams(2, g), count) == text

    @pytest.mark.parametrize("count", ["vertices", "edges", "eigenvalues"])
    def test_over_limit_admits_up_to_the_limit(self, count):
        params = RcgParams(2, 3)  # N = 54, M = 79, 3 * 2^3 - 1 = 23
        limit = {"vertices": 54, "edges": 79, "eigenvalues": 23}[count]
        assert _over_limit_text(limit, params, count) is None
        assert _over_limit_text(limit - 1, params, count) == str(limit)

    def test_over_limit_without_str_limit(self, monkeypatch):
        # where the interpreter sets no limit, a built count is named in decimal
        # up to 4300 digits and by its bit length past them; 2^9100 has 9101
        # bits, so the count at g = 9102 is named by its formula unbuilt
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)
        assert graphs.str_digit_limit() == graphs.DEFAULT_STR_DIGITS
        limit, n = 2**9100, 2 * 3**9100
        assert _over_limit_text(limit, RcgParams(2, 9000), "vertices") == str(2 * 3**9000)
        assert _over_limit_text(limit, RcgParams(2, 9100), "vertices") == (
            f"<{n.bit_length()}-bit integer>"
        )
        assert _over_limit_text(limit, RcgParams(2, 9102), "vertices") == "2*3^9102"

    def test_over_limit_builds_no_large_count(self):
        start = time.perf_counter()
        for g in (10**5, 10**6, 10**7):
            assert _over_limit_text(10**6, RcgParams(2, g), "edges") == f"2*(3^{g + 1}-2)/2"
        assert time.perf_counter() - start < 0.1

    @pytest.mark.parametrize("call", [graphs.check_limits, build_rcg])
    def test_budget_governs(self, monkeypatch, call):
        # (2, 2) has N = 18: a budget of 18 admits it, 17 refuses it
        monkeypatch.setattr(graphs, "VERTEX_BUDGET", 18)
        call(RcgParams(2, 2))
        monkeypatch.setattr(graphs, "VERTEX_BUDGET", 17)
        with pytest.raises(ResourceLimitError, match="budget is 17"):
            call(RcgParams(2, 2))

    @pytest.mark.parametrize("q,g,edges", [(999, 1, 499_499_001), (10**6, 0, 499_999_500_000)])
    def test_edge_limit_refuses_before_any_array(self, q, g, edges):
        # both points are within the default vertex budget
        def refused():
            with pytest.raises(ResourceLimitError, match=f"has {edges} edges"):
                build_rcg(RcgParams(q, g))

        assert traced_peak(refused) < 10**5

    def test_edge_limit_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(graphs, "EDGE_LIMIT", 7)
        assert build_rcg(RcgParams(2, 1)).graph.edge_count == 7
        monkeypatch.setattr(graphs, "EDGE_LIMIT", 6)
        with pytest.raises(ResourceLimitError, match=r"\(q=2, g=1\) has 7 edges, the limit is 6"):
            build_rcg(RcgParams(2, 1))

    @pytest.mark.parametrize("chunk_rows", [1, 7, 50])
    @pytest.mark.parametrize("q,g", [(2, 4), (5, 2), (12, 1), (40, 0)])
    def test_chunk_size_leaves_the_graph_unchanged(self, q, g, chunk_rows, monkeypatch):
        # small chunks split block rows by members, even a single member's row
        expected = build_rcg(RcgParams(q, g)).graph
        monkeypatch.setattr(graphs, "CHUNK_ROWS", chunk_rows)
        assert build_rcg(RcgParams(q, g)).graph == expected

    # at (100, 1) class 0 is split by members and class 1 is broadcast whole
    @pytest.mark.parametrize("q,g", [(2, 8), (7, 3), (2000, 0), (100, 1)])
    def test_chunks_are_bounded(self, q, g):
        params = RcgParams(q, g)
        bound = max(graphs.CHUNK_ROWS, q * (g + 1))
        sizes = [len(u) for u, v in graphs._edge_chunks(params)]
        assert 0 < max(sizes) <= bound and sum(sizes) == params.edge_count

    def test_generation_zero_peak(self):
        # at g = 0 one block's row is the whole graph: it is split by members,
        # so beside u and v only chunk-sized arrays exist
        params = RcgParams(2000, 0)
        edge_bytes = 16 * params.edge_count
        assert traced_peak(lambda: build_rcg(params)) <= 1.2 * edge_bytes
        assert traced_peak(lambda: write_edgelist(params, _Discard())) <= 4 * 10**6

    @pytest.mark.parametrize("q,g", [(5, 6), (2, 11)])
    def test_peak_is_near_the_edge_arrays(self, q, g):
        # u and v hold 16 bytes per edge; the rest of the peak is one chunk
        # and the boolean temporaries of the Graph's check of one chunk
        params = RcgParams(q, g)
        assert traced_peak(lambda: build_rcg(params)) <= 1.5 * 16 * params.edge_count

    @pytest.mark.parametrize("fault", ["duplicate", "swap", "drop"])
    def test_faulty_chunks_are_refused(self, fault, monkeypatch):
        # one fault at a seam between two chunks of (2, 5); build_rcg refuses
        # it with the text that Graph gives for the same edges, and a stream
        # that runs short leaves (0, 0) rows, refused as a self-loop
        params = RcgParams(2, 5)
        monkeypatch.setattr(graphs, "CHUNK_ROWS", 7)
        chunks = list(graphs._edge_chunks(params))
        k = len(chunks) // 2
        if fault == "duplicate":
            (u, v), (next_u, next_v) = chunks[k - 1 : k + 1]
            chunks[k] = (np.r_[u[-1], next_u[1:]], np.r_[v[-1], next_v[1:]])
        elif fault == "swap":
            chunks[k - 1], chunks[k] = chunks[k], chunks[k - 1]
        else:
            chunks.pop()
        monkeypatch.setattr(graphs, "_edge_chunks", lambda params: iter(chunks))
        if fault == "drop":
            message = "self-loop at vertex 0"
        else:
            u, v = (np.concatenate(column) for column in zip(*chunks))
            with pytest.raises(ValueError) as expected:
                Graph(params.vertex_count, u, v)
            message = str(expected.value)
            assert fault.replace("swap", "out of order") in message
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build_rcg(params)

    def test_graph_order_mismatch_rejected(self):
        cg = build_rcg(RcgParams(2, 1))
        with pytest.raises(ValueError, match="graph order"):
            CoronaGraph(cg.graph, RcgParams(2, 2))

    def test_birth_is_derived_from_params(self):
        # (q, g) fixes every birth, so a CoronaGraph holds only the two
        assert [f.name for f in dataclasses.fields(CoronaGraph)] == ["graph", "params"]
        cg = build_rcg(RcgParams(2, 3))
        assert "birth" not in vars(cg)  # built on first use
        assert cg.birth is cg.birth


def _born_and_parent(q: int, g: int, x: np.ndarray):
    """The birth step b of each vertex in `x`, and its parent where b >= 1.

    From the class starts alone: class 0 is the initial K_q, 0..q-1, and
    class b >= 1 starts at N_{b-1} = q (q+1)^(b-1), where a vertex v has
    the parent (v - N_{b-1}) // q.  Class 0 reads as parent 0, its one block.
    """
    starts = np.array([0, *(q * (q + 1) ** b for b in range(g))], dtype=np.int64)
    born = np.searchsorted(starts, x, side="right") - 1
    return born, (x - starts[born]) // q


def _stream_fault(q: int, g: int, chunks) -> str | None:
    """The first way the (u, v) chunks fail to be the edges of C_q(g) in order.

    Reads no construction code.  An edge of C_q(g) joins two mates of one
    block (same birth and same parent) or a parent u and its child v, on the
    vertices 0..N-1, N = q (q+1)^g.  If every edge is one of these, the
    edges are strictly increasing in (u, v) with u < v across the seams
    too, so distinct, and they number M = q ((q+1)^(g+1) - 2) / 2, the size
    of that edge set, then they are that set, in order.  None if so.
    """
    n, m = q * (q + 1) ** g, q * ((q + 1) ** (g + 1) - 2) // 2
    previous_u, previous_v, rows = -1, -1, 0
    for u, v in chunks:
        born_u, parent_u = _born_and_parent(q, g, u)
        born_v, parent_v = _born_and_parent(q, g, v)
        mates = (born_u == born_v) & (parent_u == parent_v) & (u < v)
        child = (born_v > 0) & (parent_v == u)
        bad = ~(mates | child) | (u < 0) | (v >= n)
        if bad.any():
            i = bad.argmax()
            return f"({u[i]}, {v[i]}) is no edge of C_{q}({g})"
        before_u, before_v = np.r_[previous_u, u[:-1]], np.r_[previous_v, v[:-1]]
        later = (u > before_u) | ((u == before_u) & (v > before_v))
        if not later.all():
            i = later.argmin()
            return f"({u[i]}, {v[i]}) does not follow ({before_u[i]}, {before_v[i]})"
        previous_u, previous_v, rows = u[-1], v[-1], rows + len(u)
    if rows != m:
        return f"{rows} edges, C_{q}({g}) has {m}"
    return None


class TestEdgeStream:
    """`_edge_chunks` yields the edge set of C_q(g), in order, by `_stream_fault`.

    The writers stream these chunks unchecked, so this is their proof.
    """

    # the grid, the largest explicit points, and (130, 0) and (100, 1), where
    # block rows are split by members
    @pytest.mark.parametrize(
        "q,g",
        [(q, g) for q in range(2, 6) for g in range(4)]
        + [(2, 11), (5, 6), (9, 5), (130, 0), (100, 1)],
    )
    def test_is_the_edge_set_in_order(self, q, g):
        assert _stream_fault(q, g, graphs._edge_chunks(RcgParams(q, g))) is None

    def test_small_chunks(self, monkeypatch):
        # every block row is split, so most edges sit next to a seam
        monkeypatch.setattr(graphs, "CHUNK_ROWS", 7)
        chunks = list(graphs._edge_chunks(RcgParams(2, 5)))
        assert len(chunks) > 100
        assert _stream_fault(2, 5, chunks) is None

    @pytest.mark.parametrize("q,g", [(3, 2), (2, 5)])
    @pytest.mark.parametrize(
        "fault,found",
        [("moved-child", "is no edge"), ("swap", "does not follow"), ("drop", "edges, C_")],
        ids=["moved-child", "swap", "drop"],
    )
    def test_faults_are_found(self, q, g, fault, found, monkeypatch):
        # each fault keeps the other two properties, so only one check finds it
        monkeypatch.setattr(graphs, "CHUNK_ROWS", 7)
        chunks = [(u.copy(), v.copy()) for u, v in graphs._edge_chunks(RcgParams(q, g))]
        assert _stream_fault(q, g, chunks) is None
        if fault == "moved-child":
            # the last edge of vertex 0 joins it to its last child; join it
            # to the same member of vertex 1's last block instead
            u, v = next(chunk for chunk in reversed(chunks) if (chunk[0] == 0).any())
            i = np.flatnonzero(u == 0)[-1]
            assert v[i] == q * (q + 1) ** (g - 1) + q - 1
            v[i] += q
        elif fault == "swap":
            # the rows of two children of one block, on both sides of a seam
            def mates(a, b):
                born, parent = _born_and_parent(q, g, np.array([a, b]))
                return born[0] == born[1] > 0 and parent[0] == parent[1]

            (u, v), (next_u, next_v) = next(
                pair for pair in zip(chunks, chunks[1:]) if mates(pair[0][0][-1], pair[1][0][0])
            )
            u[-1], next_u[0] = next_u[0], u[-1]
            v[-1], next_v[0] = next_v[0], v[-1]
        else:
            # every row of the last block of class 1, which ends at N_1 = q (q+1)
            end = q * (q + 1)
            keep = [(u < end - q) | (u >= end) for u, v in chunks]
            chunks = [(u[k], v[k]) for (u, v), k in zip(chunks, keep) if k.any()]
        assert found in _stream_fault(q, g, chunks)


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

    @pytest.mark.parametrize("graph", [build_rcg(RcgParams(3, 2)).graph, Graph(3, [], [])])
    def test_adjacency_matches_edge_loop(self, graph):
        n = graph.vertex_count
        reference = [[0] * n for _ in range(n)]
        for u, v in edge_pairs(graph):
            reference[u][v] = reference[v][u] = 1
        adj = matrix_of(graph, "adjacency")
        assert adj.dtype == np.float64 and adj.flags.c_contiguous
        assert adj.tolist() == reference

    @pytest.mark.parametrize("graph", [build_rcg(RcgParams(3, 2)).graph, Graph(3, [], [])])
    def test_laplacian_matches_edge_loop(self, graph):
        n = graph.vertex_count
        reference = [[0] * n for _ in range(n)]
        for u, v in edge_pairs(graph):
            reference[u][v] = reference[v][u] = -1
            reference[u][u] += 1
            reference[v][v] += 1
        lap = matrix_of(graph, "laplacian")
        assert lap.dtype == np.float64 and lap.flags.c_contiguous
        assert lap.tolist() == reference

    @pytest.mark.parametrize("q,g", [(2, 2), (5, 1)])
    def test_laplacian_diagonal_and_zero_signs(self, q, g):
        # 0 - A rather than -A: no -0.0 off the diagonal, so the matrix is
        # bit for bit the integer Laplacian converted to float
        graph = build_rcg(RcgParams(q, g)).graph
        lap = matrix_of(graph, "laplacian")
        assert np.diagonal(lap).tolist() == graph.degrees()
        assert not np.signbit(lap[lap == 0]).any()
        integer = np.diag(graph.degrees()) - matrix_of(graph, "adjacency").astype(np.int64)
        assert lap.tobytes() == integer.astype(float).tobytes()

    def test_unknown_kind(self):
        for kind in ("incidence", "degree"):
            with pytest.raises(ValueError):
                matrix_of(complete_graph(2), kind)

    @pytest.mark.parametrize("kind", ["adjacency", "laplacian"])
    def test_size_guard_before_allocation(self, kind):
        # refused before the N x N array, which would take 32 MB here
        graph = Graph(graphs.MATRIX_VERTEX_LIMIT + 1, [], [])

        def refused():
            with pytest.raises(ResourceLimitError, match="^graph size 2001 exceeds 2000$"):
                matrix_of(graph, kind)

        assert traced_peak(refused) < 10**6


class TestEdgelist:
    def test_k2_output(self):
        text = _text(write_edgelist, build_rcg(RcgParams(2, 0)))
        assert text.splitlines()[:4] == ["# q 2", "# g 0", "# N 2", "# M 1"]
        assert text.splitlines()[4] == "0 1"

    @pytest.mark.parametrize("q,g", [(2, 0), (2, 2), (3, 1)])
    def test_round_trip(self, q, g):
        cg = build_rcg(RcgParams(q, g))
        assert _text(write_edgelist, cg) == reference_text(write_edgelist, cg)

    def test_round_trip_large(self):
        cg = build_rcg(RcgParams(2, 11))
        assert _text(write_edgelist, cg) == reference_text(write_edgelist, cg)

    @pytest.mark.parametrize(
        "rows,message",
        [("0 0\n", "self-loop"), ("0 2\n", "out of range"), ("-1 1\n", "out of range")],
    )
    def test_invalid_edge_rejected(self, rows, message):
        u, v = map(int, rows.split())
        with pytest.raises(ValueError, match=message):
            Graph(2, [u], [v])


class _Recorder(io.StringIO):
    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, text):
        self.sizes.append(text.count("\n"))
        return super().write(text)


class TestWriters:
    # at (130, 0) the one block's row is split by members at the default
    # CHUNK_ROWS, and its births are one run
    @pytest.mark.parametrize(
        "q,g", [(2, 0), (2, 2), (3, 1), (4, 2), (2, 4), (5, 3), (7, 2), (2, 8), (130, 0)]
    )
    def test_match_reference(self, q, g):
        cg = build_rcg(RcgParams(q, g))
        for writer in (write_edgelist, write_dot, write_json):
            assert _text(writer, cg) == reference_text(writer, cg)

    def test_edgelist_peak_is_bounded(self):
        # the writer streams the edges from (q, g): at (2, 8) and (2, 11),
        # 19681 and 531439 edges, it holds a few chunks, never a whole column
        def peak(q, g):
            return traced_peak(lambda: write_edgelist(RcgParams(q, g), _Discard()))

        assert peak(2, 11) - peak(2, 8) <= 10**6
        assert peak(5, 6) <= 3 * 10**5

    # the longest edge row of each writer, as text; a chunk holds CHUNK_ROWS
    # such rows and their int64 (u, v) pairs, 16 bytes more per row
    @pytest.mark.parametrize(
        "writer,q,g,row",
        [
            (write_json, 2, 9, ",\n    [\n      {n},\n      {n}\n    ]"),
            (write_dot, 3, 6, "  {n} -- {n};\n"),
            (write_edgelist, 5, 6, "{n} {n}\n"),
        ],
        ids=["json", "dot", "edgelist"],
    )
    def test_peak_is_two_chunks(self, writer, q, g, row):
        # each copy on the way from a chunk's block to its str replaces the
        # one before, so no more than two chunks' worth is ever alive
        params = RcgParams(q, g)
        row_bytes = len(row.format(n=params.vertex_count - 1)) + 16
        peak = traced_peak(lambda: writer(params, _Discard()))
        assert peak <= 2 * graphs.CHUNK_ROWS * row_bytes

    @pytest.mark.parametrize("writer", [write_edgelist, write_dot, write_json])
    def test_streams_bounded_chunks(self, writer, monkeypatch):
        # rows reach the stream in chunks of CHUNK_ROWS, and chunk seams,
        # including the separator left off the first row, leave the text unchanged
        monkeypatch.setattr(graphs, "CHUNK_ROWS", 7)
        params = RcgParams(2, 3)
        out = _Recorder()
        assert writer(params, out) is None
        assert out.getvalue() == reference_text(writer, build_rcg(params))
        lines_per_row = {write_edgelist: 1, write_dot: 1, write_json: 4}[writer]
        assert len(out.sizes) > 10
        assert max(out.sizes) <= 7 * lines_per_row + 4

    @pytest.mark.parametrize("writer", [write_edgelist, write_dot, write_json])
    @pytest.mark.parametrize("case", ["vertex-budget", "edge-limit", "long-q"])
    def test_refuses_before_the_first_byte(self, writer, case, monkeypatch):
        # each writer refuses (q, g) itself, with the message of check_limits
        # (so of `generate`), and writes nothing
        params = RcgParams(2, 3)  # N = 54, M = 79
        if case == "vertex-budget":
            monkeypatch.setattr(graphs, "VERTEX_BUDGET", 10)
        elif case == "edge-limit":
            monkeypatch.setattr(graphs, "EDGE_LIMIT", 78)
        else:
            params = RcgParams(10**4300, 0)
        with pytest.raises(ResourceLimitError) as expected:
            graphs.check_limits(params)
        out = _Recorder()
        with pytest.raises(ResourceLimitError, match=f"^{re.escape(str(expected.value))}$"):
            writer(params, out)
        assert (out.sizes, out.getvalue()) == ([], "")


class TestDecimalRows:
    # both sides of every power of ten up to 10 digits, the largest vertex id
    # that EDGE_LIMIT admits and the largest uint32
    VALUES = sorted(
        {0, graphs.EDGE_LIMIT, 2**32 - 1, *(10**k + d for k in range(1, 10) for d in (-1, 0))}
    )

    def test_vertex_ids_fit_in_uint32(self):
        # C_q(g) is connected, so N <= M + 1 <= EDGE_LIMIT + 1, and every
        # vertex id a writer formats is below 2**32, the kernel's range
        assert graphs.EDGE_LIMIT + 1 < 2**32

    # the literal shapes of the edge-list, dot (vertex and edge) and JSON rows;
    # a JSON row starts with its "," separator, and the writer drops the first
    # byte of its first chunk
    @pytest.mark.parametrize(
        "shape",
        [
            ("u", " ", "v", "\n"),
            ("  ", "u", ' [label="3"];\n'),
            ("  ", "u", " -- ", "v", ";\n"),
            (",\n    [\n      ", "u", ",\n      ", "v", "\n    ]"),
        ],
        ids=["edgelist", "dot-vertices", "dot-edges", "json"],
    )
    # one chunk; a one-row chunk first; four chunks, one whose u cells all have two digits
    @pytest.mark.parametrize("bounds", [[0, 21], [0, 1, 21], [0, 2, 4, 10, 21]])
    def test_rows_match_str(self, shape, bounds):
        values = np.array(self.VALUES, dtype=np.int64)
        assert len(values) == 21
        columns = {"u": values, "v": values[::-1].copy()}
        separator = "," if shape[0].startswith(",") else ""
        skip = len(separator)

        def parts(lo, hi):
            return tuple(columns[p][lo:hi] if p in columns else p for p in shape)

        text = [graphs._chunk_text(parts(lo, hi)) for lo, hi in zip(bounds, bounds[1:])]
        text[0] = text[0][skip:]
        rows = [
            "".join(str(columns[p][i]) if p in columns else p for p in shape)[skip:]
            for i in range(len(values))
        ]
        assert "".join(text) == separator.join(rows)


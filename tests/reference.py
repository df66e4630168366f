"""Definitional routes that the tests compare the library against.

`graph_of` builds a `Graph` from (u, v) pairs in any order or orientation;
`corona_product` builds the corona product straight from its definition,
so iterating it from K_q gives C_q(g) with the vertex indices of
`rcg.build_rcg`; `birth_generation` reads one vertex's birth step off that
layout, vertex by vertex, where `CoronaGraph.birth` builds all of them at
once; `laplacian_reciprocal_sum` reads the reciprocal eigenvalue sum off
the Kirchhoff index; `reference_text` renders each output format line by
line with f-strings, or with `json.dumps`.  None of these is used by the
`rcg` package itself.  `traced_peak` is the in-process memory measure of
the footprint tests.
"""
import json
import tracemalloc
from fractions import Fraction

import numpy as np

from rcg import Graph, RcgParams, kirchhoff_spectral, write_dot, write_edgelist, write_json


def graph_of(n: int, pairs) -> Graph:
    """Graph on n vertices with the edges `pairs`, in any order and orientation."""
    edges = sorted({(min(pair), max(pair)) for pair in pairs})
    u, v = np.array(edges, dtype=np.int64).reshape(-1, 2).T
    return Graph(n, u, v)


def edge_pairs(graph: Graph) -> list[tuple[int, int]]:
    """The edges of `graph` as (u, v) pairs of Python ints, in stored order."""
    return list(zip(graph.u.tolist(), graph.v.tolist()))


def complete_graph(n: int) -> Graph:
    """K_n."""
    return graph_of(n, ((u, v) for u in range(n) for v in range(u + 1, n)))


def corona_product(g1: Graph, g2: Graph) -> Graph:
    """Corona product: one copy of g1 plus one copy of g2 per g1 vertex.

    Vertex i of g1 keeps index i; its private copy of g2 occupies the block
    N1 + i*N2 .. N1 + (i+1)*N2 - 1 and is fully joined to vertex i.
    """
    n1, n2 = g1.vertex_count, g2.vertex_count
    if n1 < 1:
        raise ValueError("corona product needs a nonempty first factor")
    if n2 < 1:
        raise ValueError("corona product with an empty graph is degenerate")
    edges = edge_pairs(g1)
    for i in range(n1):
        base = n1 + i * n2
        edges.extend((base + a, base + b) for a, b in edge_pairs(g2))
        edges.extend((i, base + j) for j in range(n2))
    return graph_of(n1 + n1 * n2, edges)


def birth_generation(v: int, params: RcgParams) -> int:
    """Generation at which vertex v appears, from the deterministic layout."""
    if not (0 <= v < params.vertex_count):
        raise ValueError(f"vertex {v} out of range for {params}")
    q = params.q
    n = q
    b = 0
    while v >= n:
        n *= q + 1
        b += 1
    return b


def laplacian_reciprocal_sum(params: RcgParams) -> Fraction:
    """Sum of 1/lambda over the nonzero Laplacian eigenvalues, Kf / N."""
    return kirchhoff_spectral(params) / params.vertex_count


def reference_text(writer, cg) -> str:
    """What `writer` streams for `cg`, rendered by per-line f-strings or json.dumps."""
    graph, pairs = cg.graph, edge_pairs(cg.graph)
    if writer is write_edgelist:
        lines = [f"# q {cg.params.q}", f"# g {cg.params.g}"]
        lines += [f"# N {graph.vertex_count}", f"# M {graph.edge_count}"]
        return "\n".join(lines + [f"{u} {v}" for u, v in pairs]) + "\n"
    if writer is write_dot:
        lines = ["graph rcg {"]
        lines += [f'  {v} [label="{b}"];' for v, b in enumerate(cg.birth)]
        return "\n".join(lines + [f"  {u} -- {v};" for u, v in pairs] + ["}"]) + "\n"
    payload = {
        "q": cg.params.q,
        "g": cg.params.g,
        "N": graph.vertex_count,
        "M": graph.edge_count,
        "edges": [list(pair) for pair in pairs],
        "birth": list(cg.birth),
    }
    return json.dumps(payload, indent=2) + "\n"


def traced_peak(call) -> int:
    """Peak bytes that tracemalloc sees allocated while `call()` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

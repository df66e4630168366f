"""Definitional routes that the tests compare the library against.

`corona_product` builds the corona product straight from its definition,
so iterating it from K_q gives C_q(g) with the vertex indices of
`rcg.build_rcg`; `birth_generation` reads one vertex's birth step off that
layout, vertex by vertex, where `CoronaGraph.birth` builds all of them at
once; `laplacian_reciprocal_sum` reads the reciprocal eigenvalue sum off
the Kirchhoff index.  None of these is used by the `rcg` package itself.
"""
from fractions import Fraction

from rcg import Graph, RcgParams, kirchhoff_spectral


def edge_pairs(graph: Graph) -> list[tuple[int, int]]:
    """The edges of `graph` as (u, v) pairs of Python ints, in stored order."""
    return list(zip(graph.u.tolist(), graph.v.tolist()))


def complete_graph(n: int) -> Graph:
    """K_n."""
    return Graph.from_edges(n, ((u, v) for u in range(n) for v in range(u + 1, n)))


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
    return Graph.from_edges(n1 + n1 * n2, edges)


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

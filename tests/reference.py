"""Definitional routes that the tests compare the library against.

`graph_of` builds a `Graph` from (u, v) pairs in any order or orientation;
`corona_product` builds the corona product straight from its definition,
so iterating it from K_q gives C_q(g) with the vertex indices of
`rcg.build_rcg`; `birth_generation` reads one vertex's birth step off that
layout, vertex by vertex, where `CoronaGraph.birth` builds all of them at
once; `reference_walk` steps the total distance, the Kirchhoff index and
the spanning-tree exponent by their generation recursions, which the closed
forms of `rcg.formulas` are proved equal to, in integers or mod an odd
modulus for the checks at large g; `lcm_walk` steps the clustering
sum as one integer over the lcm of its class denominators, and its rows read
each rational quantity as a `Fraction`, the route whose values the reduced
pairs of `rcg.formulas.curve` are checked against; `laplacian_reciprocal_sum`
reads the reciprocal eigenvalue sum off the Kirchhoff index;
`reference_text` renders each output format line by line with f-strings,
or with `json.dumps`.  None of these is used by the `rcg` package itself.
`traced_peak` is the in-process memory measure of the footprint tests.
"""
import json
import math
import tracemalloc
from fractions import Fraction
from itertools import count
from typing import NamedTuple

import numpy as np

from rcg import (
    Graph,
    RcgParams,
    kirchhoff_spectral,
    vertex_clustering,
    write_dot,
    write_edgelist,
    write_json,
)


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


def reference_walk(q: int, modulus: int | None = None):
    """(g, total distance, Kirchhoff index, exponent b of the spanning-tree count
    q^{q-2} (q+1)^b) at g = 0, 1, 2, ..., each by its generation recursion; with
    an odd `modulus`, each value mod it, halving by the inverse of 2."""
    if modulus is None:
        reduce, half = (lambda x: x), (lambda x: x // 2)
    else:
        inverse = pow(2, -1, modulus)
        reduce, half = (lambda x: x % modulus), (lambda x: x * inverse % modulus)
    qp, qp2, q2, births = q + 1, (q + 1) ** 2, q * q, (q - 1) * q
    p, square, distance, kirchhoff, trees = 1, 1, q * (q - 1) // 2, q - 1, 0
    for g in count():
        yield g, distance, kirchhoff, trees
        # step g + 1 reads (q+1)^g and its square; q(q+1) is even
        growth = q2 * (2 * q * square - p)
        distance = reduce(qp2 * distance + half(qp * growth))
        kirchhoff = reduce(qp2 * kirchhoff + growth)
        trees = reduce(trees + births * p)
        p, square = reduce(p * qp), reduce(square * qp2)


class LcmRow(NamedTuple):
    """Generation g of `lcm_walk`: the state that each quantity's reader reads."""

    q: int
    g: int
    power: int  # (q+1)^g
    square: int  # (q+1)^{2g}
    lcm: int  # lcm of kq - 1 for k = 1..g
    clustering: int  # sum over k = 1..g of lcm/(kq-1) (q+1)^{g-k}

    def average_degree(self) -> Fraction:
        q, n = self.q, self.q * self.power
        # 2M = q (q+1)^{g+1} - 2q = (q+1) N - 2q, with no product of two large integers
        return Fraction((q + 1) * n - 2 * q, n)

    def total_distance(self) -> int:
        q, p, square = self.q, self.power, self.square
        # (q+1)^{2g-1} as square // (q+1), exact since its factor 2g is 0 at g = 0;
        # twice the total is even, as the recursion is integer
        return q * (2 * self.g * q * q * square // (q + 1) + p + (q - 2) * square) // 2

    def average_distance(self) -> Fraction:
        # T / C(N, 2) = X / (N - 1) with X = 2T / N, so the reduction works on
        # half the digits; N >= q >= 2.  N divides the closed form:
        # X = 2g q^2 (q+1)^{g-1} + 1 + (q-2)(q+1)^g, and q - 1 at g = 0
        n = self.q * self.power
        return Fraction(2 * self.total_distance() // n, n - 1)

    def kirchhoff_closed(self) -> Fraction:
        q, qp = self.q, self.q + 1
        # (q+1)^2 times the closed form, at every g, g = 0 included; the index
        # is an integer, as the resistance recursion is
        scaled = (q**3 * (2 * self.g + 1) - 2 * q - 1) * self.square + q * self.power * qp
        return Fraction(scaled // (qp * qp))

    def global_clustering(self) -> Fraction:
        q, lcm, initial = self.q, self.lcm, vertex_clustering(RcgParams(self.q, self.g), 0)
        numerator = (q - 1) * q * q * self.clustering * initial.denominator
        numerator += q * initial.numerator * lcm  # the c(0) term
        return Fraction(numerator, lcm * initial.denominator * q * self.power)


def lcm_walk(q: int):
    """`LcmRow`s at g = 0, 1, 2, ...: a step takes a few products with small
    integers, one exact division and one gcd of the lcm with kq - 1."""
    qp, qp2 = q + 1, (q + 1) ** 2
    p, square, lcm, clustering = 1, 1, 1, 0
    for g in count():
        yield LcmRow(q, g, p, square, lcm, clustering)
        k = (g + 1) * q - 1
        ratio = k // math.gcd(lcm, k)
        lcm *= ratio
        clustering = clustering * qp * ratio + lcm // k
        p, square = p * qp, square * qp2


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

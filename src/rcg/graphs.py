"""Simple undirected graphs, corona products, and the recursive corona family.

The recursive corona graph with parameters (q, g) is the g-fold iterated
corona of the complete graph K_q with K_q.  Vertex indices are deterministic:
the vertices of the previous generation keep their indices and the new
complete-graph copies are appended in order, so every construction is
reproducible byte for byte.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimitError

DEFAULT_VERTEX_BUDGET = 10**6

# matrix_of materializes an N x N dense array; refuse above this many vertices
MATRIX_VERTEX_LIMIT = 10**4


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph on vertices 0..vertex_count-1."""

    vertex_count: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.vertex_count < 0:
            raise ValueError("vertex_count must be nonnegative")
        seen = set()
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise ValueError(f"edge ({u}, {v}) out of range")
            if u > v:
                raise ValueError(f"edge ({u}, {v}) not normalized (need u < v)")
            if (u, v) in seen:
                raise ValueError(f"duplicate edge ({u}, {v})")
            seen.add((u, v))

    @classmethod
    def from_edges(cls, vertex_count, edges):
        """Build a graph from any iterable of (u, v) pairs, normalizing order."""
        normalized = sorted({(min(u, v), max(u, v)) for u, v in edges})
        return cls(vertex_count, tuple(normalized))

    @property
    def edge_count(self):
        return len(self.edges)

    def adjacency_lists(self):
        """Neighbor lists, sorted ascending."""
        adj = [[] for _ in range(self.vertex_count)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        for nbrs in adj:
            nbrs.sort()
        return adj

    def degrees(self):
        deg = [0] * self.vertex_count
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def is_connected(self):
        if self.vertex_count == 0:
            return True
        adj = self.adjacency_lists()
        seen = [False] * self.vertex_count
        seen[0] = True
        queue = deque([0])
        count = 1
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    count += 1
                    queue.append(v)
        return count == self.vertex_count


@dataclass(frozen=True)
class RcgParams:
    """Parameters (q, g) of a recursive corona graph: K_q coronated g times."""

    q: int
    g: int

    def __post_init__(self):
        if not isinstance(self.q, int) or self.q < 2:
            raise ValueError("q must be an integer >= 2")
        if not isinstance(self.g, int) or self.g < 0:
            raise ValueError("g must be an integer >= 0")

    @property
    def vertex_count(self):
        return self.q * (self.q + 1) ** self.g

    @property
    def edge_count(self):
        q, g = self.q, self.g
        return q * ((q + 1) ** (g + 1) - 2) // 2


@dataclass(frozen=True)
class CoronaGraph:
    """Explicit recursive corona graph with per-vertex birth generations."""

    graph: Graph
    params: RcgParams
    birth: tuple[int, ...]

    def __post_init__(self):
        if self.graph.vertex_count != self.params.vertex_count:
            raise ValueError("graph order does not match parameters")
        if len(self.birth) != self.graph.vertex_count:
            raise ValueError("birth metadata length mismatch")


def complete_graph(n):
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
    edges = list(g1.edges)
    for i in range(n1):
        base = n1 + i * n2
        edges.extend((base + a, base + b) for a, b in g2.edges)
        edges.extend((i, base + j) for j in range(n2))
    return Graph.from_edges(n1 + n1 * n2, edges)


def build_rcg(params: RcgParams, vertex_budget: int | None = None) -> CoronaGraph:
    """Construct the explicit recursive corona graph for (q, g)."""
    budget = DEFAULT_VERTEX_BUDGET if vertex_budget is None else vertex_budget
    n_final = params.vertex_count
    if n_final > budget:
        raise ResourceLimitError(
            f"(q={params.q}, g={params.g}) requires {n_final} vertices, "
            f"budget is {budget}"
        )
    q = params.q
    kq = complete_graph(q)
    graph = kq
    birth = [0] * q
    for step in range(1, params.g + 1):
        previous = graph.vertex_count
        graph = corona_product(graph, kq)
        birth.extend([step] * (graph.vertex_count - previous))
    return CoronaGraph(graph=graph, params=params, birth=tuple(birth))


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


def matrix_of(graph: Graph, kind: str) -> np.ndarray:
    """Dense integer adjacency, degree, or laplacian matrix."""
    if kind not in ("adjacency", "degree", "laplacian"):
        raise ValueError(f"unknown matrix kind {kind!r}")
    n = graph.vertex_count
    if n > MATRIX_VERTEX_LIMIT:
        raise ResourceLimitError(
            f"dense matrix for {n} vertices exceeds limit {MATRIX_VERTEX_LIMIT}"
        )
    a = np.zeros((n, n), dtype=np.int64)
    u, v = np.array(graph.edges, dtype=np.int64).reshape(-1, 2).T
    a[u, v] = 1
    a[v, u] = 1
    if kind == "adjacency":
        return a
    d = np.diag(a.sum(axis=1))
    if kind == "degree":
        return d
    return d - a


def write_edgelist(cg: CoronaGraph) -> str:
    """Text edge list with header comments recording q, g, N, M."""
    lines = [
        f"# q {cg.params.q}",
        f"# g {cg.params.g}",
        f"# N {cg.graph.vertex_count}",
        f"# M {cg.graph.edge_count}",
    ]
    lines.extend(f"{u} {v}" for u, v in cg.graph.edges)
    return "\n".join(lines) + "\n"


def parse_edgelist(text: str) -> CoronaGraph:
    """Inverse of write_edgelist."""
    header = {}
    edges = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line[1:].split()
            if len(parts) == 2 and parts[0] in ("q", "g", "N", "M"):
                header[parts[0]] = int(parts[1])
            continue
        u, v = line.split()
        edges.append((int(u), int(v)))
    if "q" not in header or "g" not in header:
        raise ValueError("edge list header must record q and g")
    params = RcgParams(header["q"], header["g"])
    graph = Graph.from_edges(params.vertex_count, edges)
    if "M" in header and graph.edge_count != header["M"]:
        raise ValueError("edge count does not match header M")
    birth = tuple(birth_generation(v, params) for v in range(graph.vertex_count))
    return CoronaGraph(graph=graph, params=params, birth=birth)

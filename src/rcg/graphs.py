"""Simple undirected graphs and the recursive corona family.

The recursive corona graph with parameters (q, g) is the g-fold iterated
corona of the complete graph K_q with K_q.  Vertex indices are deterministic:
the vertices of the previous generation keep their indices and the new
complete-graph copies are appended in order, so every construction is
reproducible byte for byte.  In closed form, with N_b = q (q+1)^b, the
vertices born at step b >= 1 are the blocks N_{b-1} + i*q .. N_{b-1} + i*q + q-1,
one K_q per parent vertex i < N_{b-1}, each fully joined to i.
`CoronaGraph.birth` reads every vertex's birth step off this layout.

A `Graph` stores its edges as two int64 arrays u and v, strictly increasing
in (u, v) with u < v; `Graph(n, u, v)` is the one constructor, and
`build_rcg` is the one caller in the package.  numpy is imported on first
use, never at module import.  The edge-list, dot and JSON writers take a
text stream, `writer(cg, out)`; they build their text with one vectorized
decimal-row kernel and write it to `out` in chunks of at most CHUNK_ROWS
rows.
"""
from __future__ import annotations

from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, TextIO

from .errors import ResourceLimitError

if TYPE_CHECKING:
    import numpy as np

DEFAULT_VERTEX_BUDGET = 10**6

# matrix_of materializes an N x N dense array; refuse above this many vertices
MATRIX_VERTEX_LIMIT = 10**4

# the writers emit their text in chunks of at most this many rows
CHUNK_ROWS = 1 << 16


class Graph:
    """Immutable simple undirected graph on vertices 0..vertex_count-1.

    `Graph(n, u, v)` has the edges (u[i], v[i]).  They must be strictly
    increasing in (u, v) with u < v, which rules out self-loops and
    duplicates; one vectorized pass checks it and names the first offending
    edge.  Contiguous int64 arrays are kept without a copy and made
    read-only.
    """

    __slots__ = ("_n", "_u", "_v")

    def __init__(self, vertex_count: int, u: np.ndarray, v: np.ndarray):
        import numpy as np

        n = vertex_count
        if n < 0:
            raise ValueError("vertex_count must be nonnegative")
        u = np.ascontiguousarray(u, dtype=np.int64)
        v = np.ascontiguousarray(v, dtype=np.int64)
        if u.ndim != 1 or u.shape != v.shape:
            raise ValueError("u and v must be one-dimensional and of equal length")
        bad = (u < 0) | (u >= v) | (v >= n)
        bad[1:] |= (u[1:] < u[:-1]) | ((u[1:] == u[:-1]) & (v[1:] <= v[:-1]))
        if bad.any():
            i = int(bad.argmax())
            a, b = int(u[i]), int(v[i])
            if a == b:
                raise ValueError(f"self-loop at vertex {a}")
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"edge ({a}, {b}) out of range")
            if a > b:
                raise ValueError(f"edge ({a}, {b}) not normalized (need u < v)")
            previous = (int(u[i - 1]), int(v[i - 1]))
            if (a, b) == previous:
                raise ValueError(f"duplicate edge ({a}, {b})")
            raise ValueError(f"edge ({a}, {b}) out of order after {previous}")
        u.flags.writeable = False
        v.flags.writeable = False
        self._n, self._u, self._v = n, u, v

    @property
    def vertex_count(self) -> int:
        return self._n

    @property
    def u(self) -> np.ndarray:
        return self._u

    @property
    def v(self) -> np.ndarray:
        return self._v

    @property
    def edge_count(self) -> int:
        return len(self._u)

    def __eq__(self, other):
        import numpy as np

        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self._n == other._n
            and np.array_equal(self._u, other._u)
            and np.array_equal(self._v, other._v)
        )

    def __repr__(self):
        return f"Graph(vertex_count={self._n}, edge_count={self.edge_count})"

    def adjacency_lists(self):
        """Neighbor lists, sorted ascending, read off a CSR layout.

        Each edge appears as (v, u) then as (u, v); a stable sort by the first
        vertex keeps, for each w, its smaller neighbors (from edges (x, w),
        ascending in x) ahead of its larger ones, so every list is ascending.
        """
        import numpy as np

        source = np.concatenate((self._v, self._u))
        target = np.concatenate((self._u, self._v))
        bounds = [0, *np.cumsum(np.bincount(source, minlength=self._n)).tolist()]
        flat = target[np.argsort(source, kind="stable")].tolist()
        return [flat[bounds[w] : bounds[w + 1]] for w in range(self._n)]

    def degrees(self):
        import numpy as np

        n = self._n
        degree = np.bincount(self._u, minlength=n) + np.bincount(self._v, minlength=n)
        return degree.tolist()

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
    """Explicit recursive corona graph; (q, g) fixes every vertex's birth."""

    graph: Graph
    params: RcgParams

    def __post_init__(self):
        if self.graph.vertex_count != self.params.vertex_count:
            raise ValueError("graph order does not match parameters")

    @cached_property
    def birth(self) -> tuple[int, ...]:
        """Birth generation of every vertex: step b appends q * N_{b-1} vertices."""
        birth = [0] * self.params.q
        for step in range(1, self.params.g + 1):
            birth.extend([step] * (len(birth) * self.params.q))
        return tuple(birth)


def build_rcg(params: RcgParams, vertex_budget: int | None = None) -> CoronaGraph:
    """Construct the explicit recursive corona graph for (q, g).

    The edges come straight from the block layout (see the module docstring):
    the initial K_q, then for each step b and parent i < N_{b-1} the q spokes
    (i, N_{b-1} + i*q + j) and the clique edges of that block.  They are sorted
    once by u*N + v, so the result equals the iterated corona product of K_q
    with K_q index for index, and the Graph validates them once.
    """
    import numpy as np

    budget = DEFAULT_VERTEX_BUDGET if vertex_budget is None else vertex_budget
    n_final = params.vertex_count
    if n_final > budget:
        raise ResourceLimitError(
            f"(q={params.q}, g={params.g}) requires {n_final} vertices, "
            f"budget is {budget}"
        )
    q = params.q
    clique_u, clique_v = np.triu_indices(q, 1)
    keys = [clique_u * n_final + clique_v]
    previous = q
    for _ in range(params.g):
        parents = np.arange(previous, dtype=np.int64)
        children = previous + np.arange(previous * q, dtype=np.int64)
        keys.append(np.repeat(parents, q) * n_final + children)
        bases = children[::q, None]
        keys.append(((bases + clique_u) * n_final + bases + clique_v).ravel())
        previous += previous * q
    # u*N + v < N^2 fits int64 for every N whose edge arrays fit in memory
    key = np.sort(np.concatenate(keys))
    u, v = np.divmod(key, n_final)
    graph = Graph(n_final, u, v)
    return CoronaGraph(graph=graph, params=params)


def matrix_of(graph: Graph, kind: str) -> np.ndarray:
    """Dense integer adjacency or laplacian matrix."""
    import numpy as np

    if kind not in ("adjacency", "laplacian"):
        raise ValueError(f"unknown matrix kind {kind!r}")
    n = graph.vertex_count
    if n > MATRIX_VERTEX_LIMIT:
        raise ResourceLimitError(
            f"dense matrix for {n} vertices exceeds limit {MATRIX_VERTEX_LIMIT}"
        )
    a = np.zeros((n, n), dtype=np.int64)
    a[graph.u, graph.v] = 1
    a[graph.v, graph.u] = 1
    if kind == "adjacency":
        return a
    return np.diag(a.sum(axis=1)) - a


def _decimal_rows(parts, separator: str = "") -> Iterator[str]:
    """Text rows from columns of integers, in chunks of at most CHUNK_ROWS rows.

    `parts` mixes str literals and equal-length arrays of nonnegative
    integers; row i joins the literals with the decimal digits of each
    array's element i, and `separator` ends every row but the last.  A chunk
    is one uint8 block with a fixed-width cell per part: digits sit
    right-aligned in their cell, the unused leading bytes are 0, and dropping
    the 0 bytes (which no literal contains) leaves the text.
    """
    import numpy as np

    cells = []
    for part in (*parts, separator):
        if isinstance(part, str):
            if part:
                cells.append((np.frombuffer(part.encode(), np.uint8), None))
        else:
            count = len(part)
            top = int(part.max()) if count else 0
            part = part.astype(np.uint32 if top < 2**32 else np.uint64)
            cells.append((part, len(str(top))))
    width = sum(len(part) if digits is None else digits for part, digits in cells)
    for lo in range(0, count, CHUNK_ROWS):
        hi = min(lo + CHUNK_ROWS, count)
        block = np.empty((hi - lo, width), dtype=np.uint8)
        start = 0
        for part, digits in cells:
            if digits is None:
                block[:, start : start + len(part)] = part
                start += len(part)
                continue
            rest = part[lo:hi].copy()
            last = start + digits - 1
            np.add(rest % 10, ord("0"), out=block[:, last], casting="unsafe")
            for j in range(last - 1, start - 1, -1):
                # a digit left of the leading one becomes a 0 pad byte
                rest //= 10
                digit = rest % 10 + ord("0")
                np.multiply(digit, rest != 0, out=block[:, j], casting="unsafe")
            start += digits
        text = block[block != 0].tobytes().decode("ascii")
        yield text[: len(text) - len(separator)] if hi == count else text


def write_edgelist(cg: CoronaGraph, out: TextIO) -> None:
    """Text edge list with header comments recording q, g, N, M."""
    graph = cg.graph
    out.write(
        f"# q {cg.params.q}\n# g {cg.params.g}\n"
        f"# N {graph.vertex_count}\n# M {graph.edge_count}\n"
    )
    out.writelines(_decimal_rows((graph.u, " ", graph.v, "\n")))


def write_dot(cg: CoronaGraph, out: TextIO) -> None:
    """Graphviz text, each vertex labelled with its birth generation."""
    import numpy as np

    graph = cg.graph
    vertices = np.arange(graph.vertex_count, dtype=np.int64)
    birth = np.array(cg.birth, dtype=np.int64)
    out.write("graph rcg {\n")
    out.writelines(_decimal_rows(("  ", vertices, ' [label="', birth, '"];\n')))
    out.writelines(_decimal_rows(("  ", graph.u, " -- ", graph.v, ";\n")))
    out.write("}\n")


def write_json(cg: CoronaGraph, out: TextIO) -> None:
    """JSON object with q, g, N, M, edges and birth.

    The bytes are those of `json.dumps(payload, indent=2)` plus a newline.
    """
    import numpy as np

    params, graph = cg.params, cg.graph
    out.write(
        f'{{\n  "q": {params.q},\n  "g": {params.g},\n'
        f'  "N": {graph.vertex_count},\n  "M": {graph.edge_count},\n  "edges": ['
    )
    edge = ("\n    [\n      ", graph.u, ",\n      ", graph.v, "\n    ]")
    out.writelines(_decimal_rows(edge, separator=","))
    out.write('\n  ],\n  "birth": [')
    out.writelines(_decimal_rows(("\n    ", np.array(cg.birth, dtype=np.int64)), separator=","))
    out.write("\n  ]\n}\n")

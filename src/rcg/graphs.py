"""Simple undirected graphs and the recursive corona family.

The recursive corona graph with parameters (q, g) is the g-fold iterated
corona of the complete graph K_q with K_q.  Vertex indices are deterministic:
the vertices of the previous generation keep their indices and the new
complete-graph copies are appended in order, so every construction is
reproducible byte for byte.  In closed form, with N_b = q (q+1)^b, the
vertices born at step b >= 1 are the blocks N_{b-1} + i*q .. N_{b-1} + i*q + q-1,
one K_q per parent vertex i < N_{b-1}, each fully joined to i.
`CoronaGraph.birth` and the dot and JSON writers read every vertex's birth
step off this layout, through one helper.

A `Graph` stores its edges as two int64 arrays u and v, strictly increasing
in (u, v) with u < v; `Graph(n, u, v)` is the one constructor, and
`build_rcg` is the one caller in the package; it writes each edge straight
to its final place in u and v, so nothing sorts them.  numpy is imported on
first use, never at module import.  The edge-list, dot and JSON writers take
a text stream, `writer(cg, out)`; they build their text with one vectorized
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

# build_rcg keeps 16 bytes per edge in u and v; refuse above this many edges
EDGE_LIMIT = 2 * 10**7

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
        """Birth generation of every vertex, as Python ints."""
        return tuple(_birth_column(self.params).tolist())


def _birth_column(params: RcgParams) -> np.ndarray:
    """Birth generation of every vertex: step b appends q * N_{b-1} vertices."""
    import numpy as np

    q, g = params.q, params.g
    sizes = [q, *(q * q * (q + 1) ** (b - 1) for b in range(1, g + 1))]
    return np.repeat(np.arange(g + 1), sizes)


def build_rcg(params: RcgParams, vertex_budget: int | None = None) -> CoronaGraph:
    """Construct the explicit recursive corona graph for (q, g).

    The edges come from the block layout (see the module docstring), written
    straight into two preallocated arrays in their final (u, v) order.  The
    initial K_q is the one block of birth class 0; the block N_{b-1} + i*q
    of parent i is a block of class b.  Member j of a block has as larger
    neighbours its clique mates base + k for k > j, then, at each later step
    s, its q children N_{s-1} + q*(base + j) + k.  So the blocks of a class
    share one row of columns c, with u = base + j_c and
    v = a_c + scale_c * base (scale 1 for a mate, q for a child); they are
    consecutive in u, and one broadcast per class fills their rows.  The
    result equals the iterated corona product of K_q with K_q index for
    index, and the Graph validates it once.  The vertex budget and
    EDGE_LIMIT are checked before any array is made.
    """
    import numpy as np

    budget = DEFAULT_VERTEX_BUDGET if vertex_budget is None else vertex_budget
    n_final = params.vertex_count
    if n_final > budget:
        raise ResourceLimitError(
            f"(q={params.q}, g={params.g}) requires {n_final} vertices, "
            f"budget is {budget}"
        )
    m = params.edge_count
    if m > EDGE_LIMIT:
        raise ResourceLimitError(
            f"(q={params.q}, g={params.g}) has {m} edges, the limit is {EDGE_LIMIT}"
        )
    q, g = params.q, params.g
    # bounds[b] = N_{b-1}, with N_{-1} = 0: class b is bounds[b] .. bounds[b+1]-1
    bounds = [0, *(q * (q + 1) ** b for b in range(g + 1))]
    u = np.empty(m, dtype=np.int64)
    v = np.empty(m, dtype=np.int64)
    k = np.arange(q)
    j = k[:, None, None]
    row = 0
    for b in range(g + 1):
        # axes (j, t, k): t = 0 holds the clique mates, t >= 1 the children
        # born at step b + t, whose blocks start at N_{b+t-1}
        offset = np.array([0, *bounds[b + 1 : g + 1]])[:, None]
        child = np.arange(g - b + 1)[:, None] > 0
        keep = child | (k > j)
        shape = keep.shape
        a = (offset + k + q * j * child)[keep]
        scale = np.broadcast_to(np.where(child, q, 1), shape)[keep]
        member = np.broadcast_to(j, shape)[keep]
        bases = np.arange(bounds[b], bounds[b + 1], q)[:, None]
        end = row + len(bases) * len(a)
        np.add(bases, member, out=u[row:end].reshape(len(bases), -1))
        block_v = v[row:end].reshape(len(bases), -1)
        np.multiply(bases, scale, out=block_v)
        block_v += a
        row = end
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
            # converted a chunk at a time; nine digits fit in uint32
            rest = part[lo:hi].astype(np.uint32 if digits < 10 else np.uint64)
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
    out.write("graph rcg {\n")
    out.writelines(
        _decimal_rows(("  ", vertices, ' [label="', _birth_column(cg.params), '"];\n'))
    )
    out.writelines(_decimal_rows(("  ", graph.u, " -- ", graph.v, ";\n")))
    out.write("}\n")


def write_json(cg: CoronaGraph, out: TextIO) -> None:
    """JSON object with q, g, N, M, edges and birth.

    The bytes are those of `json.dumps(payload, indent=2)` plus a newline.
    """
    params, graph = cg.params, cg.graph
    out.write(
        f'{{\n  "q": {params.q},\n  "g": {params.g},\n'
        f'  "N": {graph.vertex_count},\n  "M": {graph.edge_count},\n  "edges": ['
    )
    edge = ("\n    [\n      ", graph.u, ",\n      ", graph.v, "\n    ]")
    out.writelines(_decimal_rows(edge, separator=","))
    out.write('\n  ],\n  "birth": [')
    out.writelines(_decimal_rows(("\n    ", _birth_column(params)), separator=","))
    out.write("\n  ]\n}\n")

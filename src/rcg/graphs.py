"""Simple undirected graphs and the recursive corona family.

The recursive corona graph with parameters (q, g) is the g-fold iterated
corona of the complete graph K_q with K_q.  Vertex indices are deterministic:
the vertices of the previous generation keep their indices and the new
complete-graph copies are appended in order, so every construction is
reproducible byte for byte.  In closed form, with N_b = q (q+1)^b, the
vertices born at step b >= 1 are the blocks N_{b-1} + i*q .. N_{b-1} + i*q + q-1,
one K_q per parent vertex i < N_{b-1}, each fully joined to i.  One walk
over the birth classes, `_classes`, is the only place that computes these
bounds: the edges, `CoronaGraph.birth` and the births that the dot and JSON
writers write, run by run, are all read off it.

A `Graph` stores its edges as two int64 arrays u and v, strictly increasing
in (u, v) with u < v; `Graph(n, u, v)` is the one constructor, and one
helper checks that rule a chunk at a time, given the edge before the chunk.
One generator, `_edge_chunks`, yields the edges of C_q(g) straight from the
block layout in their final (u, v) order, in chunks of at most CHUNK_ROWS
(4096) rows: `build_rcg` copies them into two preallocated arrays, and
the edge-list, dot and JSON writers, `writer(params, out)`, check each chunk
(seam included) and the final row count, and write its text to the stream
`out`, so the writers never hold a whole-graph array.  `_decimal_rows`
turns each chunk into text through one column-major uint8 block:
floor-division digits, then the 0 pad bytes dropped from its row-major
bytes.  numpy is imported on first use, never at module import.
`vertex_budget` is the one reader of
CORONA_VERTEX_BUDGET, for `check_limits` (so `build_rcg`) and the spectra;
`over_limit` decides each size refusal (there and in `verify`) from (q, g)
without building a count too large to print.
"""
from __future__ import annotations

import contextlib
import math
import os
import sys
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, TextIO

from .errors import ResourceLimitError

if TYPE_CHECKING:
    import numpy as np

DEFAULT_VERTEX_BUDGET = 10**6

# the int->str digit limit of Python 3.11, used where the interpreter sets none
DEFAULT_STR_DIGITS = 4300

# matrix_of materializes an N x N dense array; refuse above this many vertices
MATRIX_VERTEX_LIMIT = 10**4

# build_rcg keeps 16 bytes per edge in u and v; refuse above this many edges
EDGE_LIMIT = 2 * 10**7

# edges, vertices and their text go in chunks of at most this many rows, or
# of one block member's row, at most q (g+1) edges, where that is longer
CHUNK_ROWS = 1 << 12


class Graph:
    """Immutable simple undirected graph on vertices 0..vertex_count-1.

    `Graph(n, u, v)` has the edges (u[i], v[i]).  They must be strictly
    increasing in (u, v) with u < v, which rules out self-loops and
    duplicates; `_check_edges` checks it a chunk at a time and names the
    first offending edge.  `n` must be an int or a numpy integer, and
    nonempty endpoint arrays must have an integer dtype.  Contiguous int64
    arrays are kept without a copy and made read-only.
    """

    __slots__ = ("_n", "_u", "_v")

    def __init__(self, vertex_count: int, u: np.ndarray, v: np.ndarray):
        import numpy as np

        n = vertex_count
        if not isinstance(n, (int, np.integer)) or n < 0:
            raise ValueError("vertex_count must be a nonnegative integer")
        u, v = np.asarray(u), np.asarray(v)
        if any(a.size and a.dtype.kind not in "iu" for a in (u, v)):
            raise ValueError("edge endpoints must be integers")
        u = np.ascontiguousarray(u, dtype=np.int64)
        v = np.ascontiguousarray(v, dtype=np.int64)
        if u.ndim != 1 or u.shape != v.shape:
            raise ValueError("u and v must be one-dimensional and of equal length")
        previous = None
        for lo in range(0, len(u), CHUNK_ROWS):
            hi = lo + CHUNK_ROWS
            previous = _check_edges(n, u[lo:hi], v[lo:hi], previous)
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


def _check_edges(n: int, u: np.ndarray, v: np.ndarray, previous: tuple[int, int] | None):
    """Check edges (u[i], v[i]) on n vertices that follow the edge `previous`.

    The edges must be strictly increasing in (u, v) with u < v, from
    `previous` on (None before the first edge); one vectorized pass checks
    it, and the ValueError names the first offending edge.  Returns the last
    edge, the `previous` of the next chunk.
    """
    if not len(u):
        return previous
    bad = (u < 0) | (u >= v) | (v >= n)
    bad[1:] |= (u[1:] < u[:-1]) | ((u[1:] == u[:-1]) & (v[1:] <= v[:-1]))
    if previous is not None and (int(u[0]), int(v[0])) <= previous:
        bad[0] = True
    if bad.any():
        i = int(bad.argmax())
        a, b = int(u[i]), int(v[i])
        if a == b:
            raise ValueError(f"self-loop at vertex {a}")
        if not (0 <= a < n and 0 <= b < n):
            raise ValueError(f"edge ({a}, {b}) out of range")
        if a > b:
            raise ValueError(f"edge ({a}, {b}) not normalized (need u < v)")
        before = (int(u[i - 1]), int(v[i - 1])) if i else previous
        if (a, b) == before:
            raise ValueError(f"duplicate edge ({a}, {b})")
        raise ValueError(f"edge ({a}, {b}) out of order after {before}")
    return int(u[-1]), int(v[-1])


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
        return tuple(b for b, lo, hi in _classes(self.params) for _ in range(hi - lo))


def _classes(params: RcgParams) -> Iterator[tuple[int, int, int]]:
    """(b, lo, hi) per birth class: the vertices lo..hi-1 are born at step b.

    Class 0 is the initial K_q; step b >= 1 appends q * N_{b-1} vertices, so
    class b is N_{b-1} .. N_b - 1 with N_b = q (q+1)^b.
    """
    q, lo, hi = params.q, 0, params.q
    for b in range(params.g + 1):
        yield b, lo, hi
        lo, hi = hi, hi * (q + 1)


def _runs(params: RcgParams) -> Iterator[tuple[int, int, int]]:
    """(b, lo, hi) for runs of at most CHUNK_ROWS vertices lo..hi-1 of class b."""
    for b, lo, hi in _classes(params):
        for start in range(lo, hi, CHUNK_ROWS):
            yield b, start, min(start + CHUNK_ROWS, hi)


def vertex_budget() -> int:
    """CORONA_VERTEX_BUDGET, a nonnegative integer, or DEFAULT_VERTEX_BUDGET if unset."""
    raw = os.environ.get("CORONA_VERTEX_BUDGET")
    if raw is None:
        return DEFAULT_VERTEX_BUDGET
    with contextlib.suppress(ValueError):
        if (budget := int(raw)) >= 0:
            return budget
    raise ValueError(f"CORONA_VERTEX_BUDGET must be a nonnegative integer, got {raw!r}")


def str_digit_limit() -> int:
    """The int->str digit limit that decimal output keeps to.

    The interpreter's limit, or DEFAULT_STR_DIGITS where it sets none (0,
    as with PYTHONINTMAXSTRDIGITS=0, or before Python 3.11), so every
    caller reads one positive bound.
    """
    return getattr(sys, "get_int_max_str_digits", lambda: 0)() or DEFAULT_STR_DIGITS


def over_limit(limit: int, params: RcgParams, count: str) -> str | None:
    """The `count` of (q, g) as text where it exceeds `limit`, else None.

    `count` is "vertices" (N), "edges" (M) or "eigenvalues" (3*2^g - 1, the
    bound on the distinct eigenvalues of either spectrum).  Each lies in
    [b^g, b^(g+2)), with b = q+1 for N and M and b = 2 for the bound.  So a
    g past limit.bit_length() is over the limit, and where b^g also has more
    digits than `str_digit_limit()` the count is named by its formula, such
    as 2*3^9100, without being built.  Otherwise g is at most
    limit.bit_length() or b^g has at most that many digits, so the count is
    small enough to build; it is named in decimal where it has at most that
    many digits.
    """
    q, g = params.q, params.g
    if count == "vertices":
        base, formula, value = q + 1, f"{q}*{q + 1}^{g}", lambda: params.vertex_count
    elif count == "edges":
        base, formula, value = q + 1, f"{q}*({q + 1}^{g + 1}-2)/2", lambda: params.edge_count
    else:
        base, formula, value = 2, f"3*2^{g}-1", lambda: 3 * 2**g - 1
    digits = str_digit_limit()
    if g > limit.bit_length() and g * math.log10(base) >= digits:
        return formula
    n = value()
    if n <= limit:
        return None
    return str(n) if n < 10**digits else formula


def check_limits(params: RcgParams) -> None:
    """Refuse (q, g) past the vertex budget or EDGE_LIMIT, before any work."""
    budget = vertex_budget()
    if n := over_limit(budget, params, "vertices"):
        raise ResourceLimitError(
            f"(q={params.q}, g={params.g}) requires {n} vertices, budget is {budget}"
        )
    if m := over_limit(EDGE_LIMIT, params, "edges"):
        raise ResourceLimitError(
            f"(q={params.q}, g={params.g}) has {m} edges, the limit is {EDGE_LIMIT}"
        )


def _member_rows(q: int, offset: np.ndarray, j0: int, j1: int):
    """The columns of members j0..j1-1 in every block of one birth class.

    Returns (member, a, scale): the block at base has the edges
    (base + member, a + scale * base), in order.  Member j's larger
    neighbours are its clique mates base + k for k > j (t = 0), then, at each
    later step s, its q children N_{s-1} + q*(base + j) + k (t >= 1, with
    offset[t] = N_{s-1}).  They are read off a (j, t, k) grid of
    (j1 - j0) * len(offset) * q entries through a mask.
    """
    import numpy as np

    k = np.arange(q)
    j = np.arange(j0, j1)[:, None, None]
    child = np.arange(len(offset))[:, None] > 0
    keep = child | (k > j)
    a = (offset[:, None] + k + q * j * child)[keep]
    scale = np.broadcast_to(np.where(child, q, 1), keep.shape)[keep]
    member = np.broadcast_to(j, keep.shape)[keep]
    return member, a, scale


def _edge_chunks(params: RcgParams) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The edges of C_q(g) in their final (u, v) order, as int64 (u, v) chunks.

    The blocks of class b (the initial K_q for b = 0, else one K_q per parent)
    are consecutive in u and share one row of columns (`_member_rows`), whose
    child offsets are the starts of the later classes.  Where the (j, t, k)
    grid of a whole block's row fits CHUNK_ROWS, that row is built once per
    class and broadcast over runs of block bases; otherwise one block goes
    out at a time, one member range after another.  So no chunk and no row
    array has more than max(CHUNK_ROWS, q (g+1)) entries.
    """
    import numpy as np

    q = params.q
    classes = list(_classes(params))
    for b, start, stop in classes:
        offset = np.array([0, *(lo for _, lo, _ in classes[b + 1 :])], dtype=np.int64)
        # members per row piece, so that its (j, t, k) grid fits in a chunk
        step = min(q, max(1, CHUNK_ROWS // (q * len(offset))))
        row = _member_rows(q, offset, 0, q) if step == q else None
        stride = q * (CHUNK_ROWS // len(row[1])) if row else q
        for lo in range(start, stop, stride):
            bases = np.arange(lo, min(lo + stride, stop), q)[:, None]
            for j0 in range(0, q, step):
                member, a, scale = row or _member_rows(q, offset, j0, min(j0 + step, q))
                if len(a):
                    v = bases * scale
                    v += a
                    yield (bases + member).ravel(), v.ravel()


def _check_count(params: RcgParams, rows: int) -> None:
    """Refuse a number of edge rows other than M."""
    if rows != params.edge_count:
        raise ValueError(
            f"{rows} edges made, (q={params.q}, g={params.g}) has {params.edge_count}"
        )


def _checked_edges(params: RcgParams) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The chunks of `_edge_chunks`, each checked as `Graph` checks its edges.

    The check of each chunk starts from the last edge of the one before, so
    the seams are checked too; at the end the rows must number M.
    """
    n, previous, rows = params.vertex_count, None, 0
    for u, v in _edge_chunks(params):
        previous = _check_edges(n, u, v, previous)
        rows += len(u)
        yield u, v
    _check_count(params, rows)


def build_rcg(params: RcgParams) -> CoronaGraph:
    """Construct the explicit recursive corona graph for (q, g).

    `check_limits` refuses (q, g) before any array is made.  The chunks of
    `_edge_chunks`, the one construction of the edges, are copied into two
    preallocated arrays of M edges, and the Graph checks them once.  The
    result equals the iterated corona product of K_q with K_q index for
    index.
    """
    import numpy as np

    check_limits(params)
    m = params.edge_count
    u = np.empty(m, dtype=np.int64)
    v = np.empty(m, dtype=np.int64)
    row = 0
    for chunk_u, chunk_v in _edge_chunks(params):
        end = row + len(chunk_u)
        if end <= m:
            u[row:end] = chunk_u
            v[row:end] = chunk_v
        row = end
    _check_count(params, row)
    return CoronaGraph(graph=Graph(params.vertex_count, u, v), params=params)


def matrix_of(graph: Graph, kind: str) -> np.ndarray:
    """Dense float64 adjacency or laplacian matrix, one C-contiguous N x N array.

    Its entries are small integers held exactly, equal bit for bit to the
    integer matrix converted to float, so `symmetric_eigenvalues` needs no
    conversion copy.
    The Laplacian is formed in place from the adjacency matrix: 0 - A, which
    leaves no -0.0 where A is 0, then the degrees on the zero diagonal.
    """
    import numpy as np

    if kind not in ("adjacency", "laplacian"):
        raise ValueError(f"unknown matrix kind {kind!r}")
    n = graph.vertex_count
    if n > MATRIX_VERTEX_LIMIT:
        raise ResourceLimitError(
            f"dense matrix for {n} vertices exceeds limit {MATRIX_VERTEX_LIMIT}"
        )
    a = np.zeros((n, n))
    a[graph.u, graph.v] = 1
    a[graph.v, graph.u] = 1
    if kind == "adjacency":
        return a
    degrees = a.sum(axis=1)
    np.subtract(0.0, a, out=a)
    a.flat[:: n + 1] = degrees
    return a


def _decimal_rows(chunks, separator: str = "") -> Iterator[str]:
    """Text rows from chunks of integer columns, one str per chunk.

    Each chunk mixes str literals and equal-length, nonempty arrays of
    integers in [0, 2**32); row i joins the literals with the decimal digits
    of each array's element i, and `separator` starts every row but the
    first.  Nothing of a chunk outlives its str, which the caller holds.
    """
    skip = len(separator)
    for parts in chunks:
        yield _chunk_text((separator, *parts))[skip:]
        skip = 0


def _chunk_text(parts) -> str:
    """The rows of one chunk of `_decimal_rows`.

    The chunk is one uint8 block, built column-major so that every array
    operation is contiguous, with a fixed-width cell per part: the digits
    sit right-aligned in their cell, the unused leading bytes are 0, and
    dropping the 0 bytes (which no literal contains) from the row-major
    bytes leaves the text.  Each copy on the way to the str replaces the one
    before it, so at most two are alive at once.
    """
    import numpy as np

    count = next(len(part) for part in parts if not isinstance(part, str))
    widths = [len(part) if isinstance(part, str) else len(str(int(part.max()))) for part in parts]
    block = np.empty((sum(widths), count), dtype=np.uint8)
    start = 0
    for part, width in zip(parts, widths):
        # no view of the block outlives this loop, so `del block` frees it
        if isinstance(part, str):
            block[start : start + width] = np.frombuffer(part.encode(), np.uint8)[:, None]
        else:
            _digits(part, block[start : start + width])
        start += width
    rows = np.ascontiguousarray(block.T)
    del block
    rows = rows.tobytes()
    rows = rows.replace(b"\0", b"")
    return rows.decode("ascii")


def _digits(part: np.ndarray, cell: np.ndarray) -> None:
    """Write the decimals of `part` into `cell`, one column per element.

    Row k of the cell takes the low byte of `part` floor-divided by 10 once
    per row below it, so that digit k is row k minus 10 times row k - 1,
    modulo 256.  A digit left of an element's leading one becomes a 0 pad
    byte; only the rows left of the shortest element's digits can hold one.
    """
    import numpy as np

    width = len(cell)
    rest = part.astype(np.uint32)
    cell[-1] = rest
    for k in range(width - 2, -1, -1):
        rest //= 10
        cell[k] = rest
    cell[1:] -= 10 * cell[:-1]
    cell += ord("0")
    pads = width - len(str(int(part.min())))
    if pads:
        place = 10 ** np.arange(width - 1, width - 1 - pads, -1)
        cell[:pads] *= part >= place[:, None]


def write_edgelist(params: RcgParams, out: TextIO) -> None:
    """Text edge list with header comments recording q, g, N, M."""
    out.write(
        f"# q {params.q}\n# g {params.g}\n"
        f"# N {params.vertex_count}\n# M {params.edge_count}\n"
    )
    out.writelines(_decimal_rows((u, " ", v, "\n") for u, v in _checked_edges(params)))


def write_dot(params: RcgParams, out: TextIO) -> None:
    """Graphviz text, each vertex labelled with its birth generation."""
    import numpy as np

    out.write("graph rcg {\n")
    runs = (("  ", np.arange(lo, hi), f' [label="{b}"];\n') for b, lo, hi in _runs(params))
    out.writelines(_decimal_rows(runs))
    out.writelines(_decimal_rows(("  ", u, " -- ", v, ";\n") for u, v in _checked_edges(params)))
    out.write("}\n")


def write_json(params: RcgParams, out: TextIO) -> None:
    """JSON object with q, g, N, M, edges and birth.

    The bytes are those of `json.dumps(payload, indent=2)` plus a newline.
    """
    out.write(
        f'{{\n  "q": {params.q},\n  "g": {params.g},\n'
        f'  "N": {params.vertex_count},\n  "M": {params.edge_count},\n  "edges": ['
    )
    edges = (("\n    [\n      ", u, ",\n      ", v, "\n    ]") for u, v in _checked_edges(params))
    out.writelines(_decimal_rows(edges, separator=","))
    out.write('\n  ],\n  "birth": [')
    births = (f",\n    {b}" * (hi - lo) for b, lo, hi in _runs(params))
    out.write(next(births)[1:])
    out.writelines(births)
    out.write("\n  ]\n}\n")

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
helper checks that rule a chunk at a time, led by the edge before the chunk.
It is the one run-time check of edges.  One generator, `_edge_chunks`,
yields the edges of C_q(g) straight from the block layout in their final
(u, v) order, in chunks of at most CHUNK_ROWS (4096) rows: `build_rcg`
copies them into two zeroed arrays that the Graph checks, and the writers,
`writer(params, out)`, refuse (q, g) by `check_limits` before their first
byte and write each chunk's text to the stream `out` unchecked, never
holding a whole-graph array.  That the stream is the edge set of C_q(g),
in order, is proved from vertex arithmetic alone by the tests
(`TestEdgeStream` in tests/test_graphs.py).
`_chunk_text` turns each chunk into text through one column-major uint8
block: floor-division digits, then the 0 pad bytes dropped from its
row-major bytes.  numpy is imported on first use, never at module import.
VERTEX_BUDGET caps the vertices of `check_limits` (so `build_rcg` and the
writers) and the distinct eigenvalues of the spectra, each reading it when
called; `over_limit` decides and raises each size refusal (there and in
`verify`) from (q, g): it builds a count only at g <= limit.bit_length(),
to compare it, and names it in decimal there (by `_name`, which writes
each integer a refusal names) and by its formula past that bound.
MATRIX_VERTEX_LIMIT (2000) caps `matrix_of` and four oracles, each refusing
through `_checked_size`.
"""
from __future__ import annotations

import numbers
import sys
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, TextIO

from .errors import ResourceLimitError

if TYPE_CHECKING:
    import numpy as np

# vertices of explicit construction, and distinct eigenvalues of the spectra
VERTEX_BUDGET = 10**6

# the int->str digit limit of Python 3.11, used where the interpreter sets none
DEFAULT_STR_DIGITS = 4300

# vertices of matrix_of's N x N array and of four oracles, by `_checked_size`
MATRIX_VERTEX_LIMIT = 2000

# the (alpha, beta) of each matrix kind alpha*D + beta*A, for matrix_of and the spectra
MATRIX_KINDS = {"adjacency": (0, 1), "laplacian": (1, -1)}

# build_rcg keeps 16 bytes per edge in u and v; refuse above this many edges
EDGE_LIMIT = 2 * 10**7

# edges, vertices and their text go in chunks of at most this many rows, or
# of one block member's row, at most q (g+1) edges, where that is longer
CHUNK_ROWS = 1 << 12


def _checked_int(value, low: int, message: str, high: int | None = None) -> int:
    """`value` as an int, or ValueError unless it is an integer in low..high
    (no top if `high` is None; numpy's integers are `numbers.Integral`, a bool
    is not); only a refusal formats `message`, naming {value} and {high} by `_name`."""
    if type(value) is int or isinstance(value, numbers.Integral) and not isinstance(value, bool):
        if low <= (value := int(value)) and (high is None or value <= high):
            return value
    raise ValueError(message.format(value=_name(value), high=_name(high)))


class Graph:
    """Immutable simple undirected graph on vertices 0..vertex_count-1.

    `Graph(n, u, v)` has the edges (u[i], v[i]).  They must be strictly
    increasing in (u, v) with u < v, which rules out self-loops and
    duplicates; `_check_edges` checks it a chunk at a time and names the
    first offending edge.  `n` must be an integer and not a bool, and is
    kept as an int; nonempty endpoint arrays must have an integer dtype.
    An int64 array that owns its data is kept, made read-only; a view is copied.
    """

    __slots__ = ("_n", "_u", "_v")

    def __init__(self, vertex_count: int, u: np.ndarray, v: np.ndarray):
        import numpy as np

        n = _checked_int(vertex_count, 0, "vertex_count must be a nonnegative integer")
        u, v = np.asarray(u), np.asarray(v)
        if any(a.size and a.dtype.kind not in "iu" for a in (u, v)):
            raise ValueError("edge endpoints must be integers")
        u, v = (np.ascontiguousarray(a if a.base is None else a.copy(), np.int64) for a in (u, v))
        if u.ndim != 1 or u.shape != v.shape:
            raise ValueError("u and v must be one-dimensional and of equal length")
        for lo in range(0, len(u), CHUNK_ROWS):
            rows = slice(max(lo - 1, 0), lo + CHUNK_ROWS)  # led by the edge before
            _check_edges(n, u[rows], v[rows])
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
        return f"Graph(vertex_count={_name(self._n)}, edge_count={self.edge_count})"

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


def _check_edges(n: int, u: np.ndarray, v: np.ndarray) -> None:
    """Check edges (u[i], v[i]) on n vertices.

    The edges must be strictly increasing in (u, v) with u < v; one
    vectorized pass checks it, and the ValueError names the first offending
    edge.  A chunk that starts with the last edge of the chunk before it
    checks the seam between the two.
    """
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
        before = int(u[i - 1]), int(v[i - 1])
        if (a, b) == before:
            raise ValueError(f"duplicate edge ({a}, {b})")
        raise ValueError(f"edge ({a}, {b}) out of order after {before}")


@dataclass(frozen=True, init=False, repr=False)
class RcgParams:
    """Parameters (q, g) of a recursive corona graph: K_q coronated g times."""

    q: int
    g: int

    def __init__(self, q: int, g: int):
        # kept as ints, so that no count of (q, g) wraps as a numpy integer would
        object.__setattr__(self, "q", _checked_int(q, 2, "q must be an integer >= 2"))
        object.__setattr__(self, "g", _checked_int(g, 0, "g must be an integer >= 0"))

    def __repr__(self):
        return f"RcgParams(q={_name(self.q)}, g={_name(self.g)})"

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


def str_digit_limit() -> int:
    """The int->str digit limit that decimal output keeps to.

    The interpreter's limit, or DEFAULT_STR_DIGITS where it sets none (0,
    as with PYTHONINTMAXSTRDIGITS=0), so every caller reads one positive bound.
    """
    return sys.get_int_max_str_digits() or DEFAULT_STR_DIGITS


def _name(value) -> str:
    """`value` as a refusal writes it: f"{value}", except that an int of more
    decimal digits than `str_digit_limit()` is named by its sign and bit
    length, as `<14285-bit integer>` or `-<14285-bit integer>`, without int->str.
    It decides by bit length first: an int of at most 3*L bits (L the limit)
    is below 2^(3L) < 10^L, so 10^L is built, to compare, only past 3*L bits."""
    limit = str_digit_limit()
    if isinstance(value, int) and value.bit_length() > 3 * limit and abs(value) >= 10**limit:
        return "-" * (value < 0) + f"<{value.bit_length()}-bit integer>"
    return f"{value}"


def over_limit(limit: int, params: RcgParams, count: str, message: str) -> None:
    """Raise ResourceLimitError(message) where the `count` of (q, g) exceeds `limit`.

    `count` is "vertices" (N), "edges" (M) or "eigenvalues" (3*2^g - 1, the
    bound on the distinct eigenvalues of either spectrum).  Each is at least
    2^g, so a g past limit.bit_length() is over the limit without the count
    being built, and the count {n} is named by its formula, such as
    2*3^9100.  Otherwise the count is built to compare it, and a count over
    the limit is named by `_name`: in decimal, or by its bit length past
    `str_digit_limit()`.  Only a refusal formats `message`; `_name` names
    {q}, {g}, {limit} and the integers of the formula.
    """
    q, g = params.q, params.g
    if count == "vertices":
        formula, value = "{q}*{p}^{g}", lambda: params.vertex_count
    elif count == "edges":
        formula, value = "{q}*({p}^{h}-2)/2", lambda: params.edge_count
    else:
        formula, value = "3*2^{g}-1", lambda: 3 * 2**g - 1
    if g <= limit.bit_length():
        if (n := value()) <= limit:
            return
        formula = _name(n)
    names = {"q": _name(q), "g": _name(g), "limit": _name(limit)}
    names["n"] = formula.format(p=_name(q + 1), h=_name(g + 1), **names)
    raise ResourceLimitError(message.format(**names))


def _checked_size(n: int) -> int:
    """`n` vertices, refused past MATRIX_VERTEX_LIMIT before any work."""
    if n > MATRIX_VERTEX_LIMIT:
        raise ResourceLimitError(f"graph size {_name(n)} exceeds {MATRIX_VERTEX_LIMIT}")
    return n


def check_limits(params: RcgParams) -> None:
    """Refuse (q, g) past VERTEX_BUDGET or EDGE_LIMIT, before any work."""
    message = "(q={q}, g={g}) requires {n} vertices, budget is {limit}"
    over_limit(VERTEX_BUDGET, params, "vertices", message)
    over_limit(EDGE_LIMIT, params, "edges", "(q={q}, g={g}) has {n} edges, the limit is {limit}")


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


def build_rcg(params: RcgParams) -> CoronaGraph:
    """Construct the explicit recursive corona graph for (q, g).

    `check_limits` refuses (q, g) before numpy is imported or any array is
    made.  The chunks of `_edge_chunks`, the one construction of the edges,
    are copied into two zeroed arrays of M edges, and the Graph checks them
    once: a stream that ran short would leave (0, 0) rows, which it refuses.
    The result equals the iterated corona product of K_q with K_q index for
    index.
    """
    check_limits(params)
    import numpy as np

    u = np.zeros(params.edge_count, dtype=np.int64)
    v = np.zeros(params.edge_count, dtype=np.int64)
    row = 0
    for chunk_u, chunk_v in _edge_chunks(params):
        u[row : row + len(chunk_u)] = chunk_u
        v[row : row + len(chunk_v)] = chunk_v
        row += len(chunk_u)
    return CoronaGraph(graph=Graph(params.vertex_count, u, v), params=params)


def matrix_of(graph: Graph, kind: str) -> np.ndarray:
    """Dense float64 alpha*D + beta*A, (alpha, beta) = MATRIX_KINDS[kind], C-contiguous N x N.

    beta goes on the edges and alpha * degree on the diagonal, over zeros, so
    no -0.0 appears: the entries are small integers held exactly, equal bit
    for bit to the integer matrix converted to float, and
    `symmetric_eigenvalues` needs no conversion copy.
    """
    import numpy as np

    if kind not in MATRIX_KINDS:
        raise ValueError(f"unknown matrix kind {kind!r}")
    alpha, beta = MATRIX_KINDS[kind]
    n = _checked_size(graph.vertex_count)
    a = np.zeros((n, n))
    a[graph.u, graph.v] = beta
    a[graph.v, graph.u] = beta
    a.flat[:: n + 1] = np.multiply(alpha, graph.degrees())
    return a


def _chunk_text(parts) -> str:
    """The text rows of one chunk of integer columns, as one str.

    `parts` mixes str literals and equal-length, nonempty arrays of integers
    in [0, 2**32); row i joins the literals with the decimal digits of each
    array's element i.  The chunk is one uint8 block, built column-major so
    that every array operation is contiguous, with a fixed-width cell per
    part: the digits sit right-aligned in their cell, the unused leading
    bytes are 0, and dropping the 0 bytes (which no literal contains) from
    the row-major bytes leaves the text.  Each copy on the way to the str
    replaces the one before it, so at most two are alive at once.
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
    """Text edge list, headed by q, g, N and M, once `check_limits` admits (q, g)."""
    check_limits(params)
    out.write(
        f"# q {params.q}\n# g {params.g}\n"
        f"# N {params.vertex_count}\n# M {params.edge_count}\n"
    )
    out.writelines(_chunk_text((u, " ", v, "\n")) for u, v in _edge_chunks(params))


def write_dot(params: RcgParams, out: TextIO) -> None:
    """Graphviz text labelling each vertex with its birth, once `check_limits` admits (q, g)."""
    check_limits(params)
    import numpy as np

    out.write("graph rcg {\n")
    runs = (("  ", np.arange(lo, hi), f' [label="{b}"];\n') for b, lo, hi in _runs(params))
    out.writelines(map(_chunk_text, runs))
    out.writelines(_chunk_text(("  ", u, " -- ", v, ";\n")) for u, v in _edge_chunks(params))
    out.write("}\n")


def write_json(params: RcgParams, out: TextIO) -> None:
    """JSON object with q, g, N, M, edges and birth, once `check_limits` admits (q, g).

    The bytes are those of `json.dumps(payload, indent=2)` plus a newline.
    Each row starts with its `,` separator, dropped from the first row.
    """
    check_limits(params)
    out.write(
        f'{{\n  "q": {params.q},\n  "g": {params.g},\n'
        f'  "N": {params.vertex_count},\n  "M": {params.edge_count},\n  "edges": ['
    )
    pairs = _edge_chunks(params)
    edges = (_chunk_text((",\n    [\n      ", u, ",\n      ", v, "\n    ]")) for u, v in pairs)
    out.write(next(edges)[1:])
    out.writelines(edges)
    out.write('\n  ],\n  "birth": [')
    births = (f",\n    {b}" * (hi - lo) for b, lo, hi in _runs(params))
    out.write(next(births)[1:])
    out.writelines(births)
    out.write("\n  ]\n}\n")

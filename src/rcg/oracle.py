"""Brute-force measurements on explicitly constructed graphs.

Everything here is an independent ground truth for the closed forms and
spectral recursions: the distance sum by one bit-parallel BFS sweep, degree
histograms, clustering by neighbor-set intersections, neighbor-degree averages
and LAPACK eigenvalues.  One exact sparse LDLᵀ elimination of the Laplacian
grounded at vertex 0 (`_eliminate`) serves two more: the spanning-tree count
as the determinant of that minor, and the Kirchhoff index as an exact
Fraction, by selected inversion of the same minor; no dense inverse is
formed.  The elimination (its pattern before any row, then fill as it
comes) and clustering (before any set) refuse work past that of K_500, the
most of any graph of at most WORK_VERTICES = 500 vertices.  The distance,
eigenvalue, tree and resistance oracles refuse past
`graphs.MATRIX_VERTEX_LIMIT` vertices, before any of their work.
No function in this module consults any formula it is meant to check.
"""
from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction

from .errors import ConnectivityError, NumericalError, ResourceLimitError
from .graphs import CoronaGraph, Graph, _checked_size, _classes

# the work of K_500, the most of any graph of at most 500 vertices; `verify`
# takes at most WORK_VERTICES, so no graph it admits is refused for its work
WORK_VERTICES = 500
WORK_LIMIT = math.comb(WORK_VERTICES, 3)  # Schur updates
CLUSTERING_WORK_LIMIT = WORK_VERTICES * (WORK_VERTICES - 1) ** 2  # intersection steps


def bfs_total_distance(graph: Graph) -> int:
    """Sum of shortest-path distances over unordered vertex pairs.

    One breadth-first sweep from every source at once, with each vertex's
    ball as a bitset (bit-parallel BFS; Akiba, Iwata & Yoshida, SIGMOD 2013):
    at each level a ball takes the union of its neighbors' balls.  A pair at
    distance d lies outside both its balls at levels 0..d-1, so the vertices
    outside the balls, summed over the levels, count every distance twice.
    A level that grows no ball before all are full means a disconnected graph.
    """
    n = _checked_size(graph.vertex_count)
    adj = graph.adjacency_lists()
    balls = [1 << v for v in range(n)]
    total = outside = n * n - n
    while outside:
        grown = []
        for ball, nbrs in zip(balls, adj):
            for u in nbrs:
                ball |= balls[u]
            grown.append(ball)
        balls = grown
        left = n * n - sum(ball.bit_count() for ball in balls)
        if left == outside:
            raise ConnectivityError("graph is disconnected")
        total += left
        outside = left
    return total // 2


def degree_histogram(graph: Graph) -> dict[int, int]:
    return dict(Counter(graph.degrees()))


def local_clustering(graph: Graph) -> list[Fraction]:
    """Per-vertex clustering coefficient 2*e_v/(d_v(d_v-1)); 0 below degree 2.

    Each of the e_v links among v's neighbors lies in the neighbor sets of
    both its ends, so the sum of |N(u) ∩ N(v)| over u in N(v) is 2*e_v: one
    set intersection per edge end, at the cost of the smaller set.  That
    work, 2 * sum over edges of min(d_u, d_v) <= n(n-1)^2, is refused first.
    """
    import numpy as np

    degree = np.array(graph.degrees(), dtype=np.int64)
    work = 2 * int(np.minimum(degree[graph.u], degree[graph.v]).sum())
    if work > CLUSTERING_WORK_LIMIT:
        raise ResourceLimitError(f"clustering work {work} exceeds {CLUSTERING_WORK_LIMIT}")
    sets = [set(nbrs) for nbrs in graph.adjacency_lists()]
    return [
        Fraction(sum(len(nbrs & sets[u]) for u in nbrs), len(nbrs) * (len(nbrs) - 1) or 1)
        for nbrs in sets
    ]


def mean_neighbor_degree_by_class(cg: CoronaGraph) -> dict[int, Fraction]:
    """Mean neighbor degree, averaged over each birth class.

    Individual vertices of one class can disagree (their attachment vertex
    may be older or younger), so the class value is the average of the
    per-vertex means, which is what the closed form describes.  The classes
    are the vertex ranges of `graphs._classes`, the one source of births.
    """
    adj = cg.graph.adjacency_lists()
    means = [Fraction(sum(len(adj[u]) for u in nbrs), len(nbrs)) for nbrs in adj]
    return {b: sum(means[lo:hi], Fraction(0)) / (hi - lo) for b, lo, hi in _classes(cg.params)}


def symmetric_eigenvalues(matrix) -> list[float]:
    """All eigenvalues of a dense symmetric matrix (LAPACK), sorted descending.

    The shape is checked first, so a non-square or oversized input is
    refused before it is converted.  A float64 array, as `matrix_of` gives,
    reaches `eigvalsh` without a conversion copy; an integer array or nested
    lists are converted to float64 once.  A non-finite entry is refused by
    its position, before symmetry is checked (NaN equals nothing, itself
    included).  The input is never modified.
    """
    import numpy as np

    shape = np.shape(matrix)
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ValueError("matrix must be square")
    _checked_size(shape[0])
    a = np.asarray(matrix, dtype=float)
    if not np.isfinite(a).all():
        i, j = np.argwhere(~np.isfinite(a))[0].tolist()
        raise ValueError(f"matrix entry ({i}, {j}) is {a[i, j]}, not finite")
    if not np.array_equal(a, a.T):
        raise ValueError("matrix must be symmetric")
    try:
        values = np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigvalsh failed: {exc}") from exc
    return values[::-1].tolist()


def _sub_mul(t: tuple[int, int], a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """t - a*b on (numerator, denominator) pairs, reduced, denominators positive.

    The elimination keeps its rationals as bare pairs: on Python 3.11,
    `t - a*b` takes 4.2 us on Fractions, mostly in operator dispatch, and
    0.25 us here.
    """
    num, den = a[0] * b[0], a[1] * b[1]
    num, den = t[0] * den - num * t[1], t[1] * den
    common = math.gcd(num, den)
    return num // common, den // common


def _div(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """a / b on reduced pairs, for b positive."""
    num, den = a[0] * b[1], a[1] * b[0]
    common = math.gcd(num, den)
    return num // common, den // common


_ZERO = (0, 1)
_MINUS_ONE = (-1, 1)


def _eliminate(graph: Graph) -> list:
    """The LDLᵀ factor of the Laplacian without row and column 0.

    Exact symmetric Gaussian elimination on dict rows of `_sub_mul` pairs,
    in reverse index order: a perfect elimination order of the chordal
    corona graphs, which fill in nothing.  A pivot whose row has r
    off-diagonal entries makes r(r+1)/2 Schur updates.  Fill only adds
    entries, so the pattern's updates (r_k: k's neighbours below k, 0 left
    out) are refused past WORK_LIMIT before any row is built, and the
    running count refuses fill before the pivot that passes the limit.
    Returns (k, d_k, l_k) in elimination order, l_k mapping each later
    vertex i to L[i, k].  The minor is positive semidefinite, so pivots are
    positive until a zero one shows it singular and ends the factor.
    """
    import numpy as np

    n = _checked_size(graph.vertex_count)
    below = np.bincount(graph.v[graph.u > 0], minlength=n)
    if (pattern := int(below @ (below + 1)) // 2) > WORK_LIMIT:
        raise ResourceLimitError(f"elimination work {pattern} exceeds {WORK_LIMIT}")
    rows = [
        {k: (len(nbrs), 1)} | dict.fromkeys(filter(None, nbrs), _MINUS_ONE)
        for k, nbrs in enumerate(graph.adjacency_lists())
    ]
    factor, work = [], 0
    for k in range(len(rows) - 1, 0, -1):
        row = rows[k]
        pivot = row.pop(k)
        if not pivot[0]:
            factor.append((k, pivot, {}))
            break
        work += len(row) * (len(row) + 1) // 2
        if work > WORK_LIMIT:
            raise ResourceLimitError(f"elimination work {work} exceeds {WORK_LIMIT}")
        column = {i: _div(a_ik, pivot) for i, a_ik in row.items()}
        factor.append((k, pivot, column))
        # the Schur complement, over each unordered pair of row entries
        entries = list(row.items())
        for x, (i, a_ik) in enumerate(entries):
            target, l_ik = rows[i], column[i]
            del target[k]
            target[i] = _sub_mul(target[i], l_ik, a_ik)
            for j, a_kj in entries[x + 1 :]:
                target[j] = rows[j][i] = _sub_mul(target.get(j, _ZERO), l_ik, a_kj)
    return factor


def matrix_tree_count(graph: Graph) -> int:
    """Spanning-tree count: exact determinant of a Laplacian minor.

    The product of the pivots of `_eliminate`; any other ground gives the
    same count.  A zero pivot means a singular minor, so disconnected graphs
    return 0, and the empty factor of 0 or 1 vertices gives 1.
    """
    factor = _eliminate(graph)
    return math.prod(d[0] for _, d, _ in factor) // math.prod(d[1] for _, d, _ in factor)


def resistance_sum(graph: Graph) -> Fraction:
    """Exact sum of pairwise effective resistances, the Kirchhoff index.

    With X the inverse of the Laplacian grounded at vertex 0, padded with
    zeros, the sum is N*tr(X) - 1ᵀX1.  From the factor of `_eliminate`:
    1ᵀX1 = sum z_k^2/d_k with z = L⁻¹1, one forward solve; the diagonal of X
    comes from Takahashi's recurrences over the factor's own pattern
    (Takahashi, Fagan & Chen, 1973; Erisman & Tinney, Comm. ACM 18, 1975),
    in reverse elimination order:
    X[j, k] = -sum_i L[i, k] X[j, i] and X[k, k] = 1/d_k - sum_j L[j, k] X[j, k],
    for i, j in the pattern of column k, where X[j, i] is already known.
    """
    factor = _eliminate(graph)
    n = graph.vertex_count
    if factor and not factor[-1][1][0]:
        raise ConnectivityError("graph is disconnected")
    z = [(1, 1)] * n
    ones = _ZERO
    for k, pivot, column in factor:
        z_k = z[k]
        for i, l_ik in column.items():
            z[i] = _sub_mul(z[i], l_ik, z_k)
        ones = _sub_mul(ones, (-z_k[0], z_k[1]), _div(z_k, pivot))
    # known[j] holds X[j, i] for j itself and every i sharing a column with j
    known: list[dict[int, tuple[int, int]]] = [{} for _ in range(n)]
    trace = _ZERO
    for k, pivot, column in reversed(factor):
        row = known[k]
        for j in column:
            x_j, x_jk = known[j], _ZERO
            for i, l_ik in column.items():
                x_jk = _sub_mul(x_jk, l_ik, x_j[i])
            row[j] = known[j][k] = x_jk
        x_kk = (pivot[1], pivot[0])  # 1/d_k; every pivot is positive
        for j, l_jk in column.items():
            x_kk = _sub_mul(x_kk, l_jk, row[j])
        row[k] = x_kk
        trace = _sub_mul(trace, x_kk, _MINUS_ONE)
    return n * Fraction(*trace) - Fraction(*ones)

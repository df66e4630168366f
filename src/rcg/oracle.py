"""Brute-force measurements on explicitly constructed graphs.

Everything here is an independent ground truth for the closed forms and
spectral recursions: BFS distance sums, degree histograms, neighbor-degree
averages and LAPACK eigenvalues.  One exact sparse LDLᵀ elimination of
`L + sI` (`_eliminate`) serves three more: the spanning-tree count as the
determinant of a Laplacian minor, the rooted-forest count det(I + L), and
the Kirchhoff index as an exact Fraction, by selected inversion of the
grounded Laplacian; no dense inverse is formed.  No function in this
module consults any formula it is meant to check.
"""
from __future__ import annotations

import math
from collections import Counter, deque
from fractions import Fraction

from .errors import ConnectivityError, NumericalError, ResourceLimitError
from .graphs import CoronaGraph, Graph

EIGENVALUE_SIZE_LIMIT = 2000
MATRIX_TREE_SIZE_LIMIT = 500
RESISTANCE_SIZE_LIMIT = 2000

# new entries the elimination may create before it is refused
FILL_LIMIT = 10**5


def _bfs_distances(adj: list[list[int]], source: int) -> list[int]:
    """Distances from `source` over the neighbor lists `adj`; -1 where unreached."""
    dist = [-1] * len(adj)
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def bfs_total_distance(graph: Graph) -> int:
    """Sum of shortest-path distances over unordered vertex pairs.

    A graph that one BFS reaches whole is connected, so only the first BFS
    looks for an unreached vertex.
    """
    adj = graph.adjacency_lists()
    total = 0
    for source in range(graph.vertex_count):
        dist = _bfs_distances(adj, source)
        if source == 0 and -1 in dist:
            raise ConnectivityError("graph is disconnected")
        total += sum(dist)
    return total // 2


def degree_histogram(graph: Graph) -> dict[int, int]:
    return dict(Counter(graph.degrees()))


def local_clustering(graph: Graph) -> list[Fraction]:
    """Per-vertex clustering coefficient 2*e_v/(d_v(d_v-1)); 0 below degree 2."""
    adj = graph.adjacency_lists()
    neighbor_sets = [set(nbrs) for nbrs in adj]
    result = []
    for v in range(graph.vertex_count):
        degree = len(adj[v])
        if degree < 2:
            result.append(Fraction(0))
            continue
        links = sum(
            1
            for i, u in enumerate(adj[v])
            for w in adj[v][i + 1 :]
            if w in neighbor_sets[u]
        )
        result.append(Fraction(2 * links, degree * (degree - 1)))
    return result


def mean_neighbor_degree_by_class(cg: CoronaGraph) -> dict[int, Fraction]:
    """Mean neighbor degree, averaged over each birth class.

    Individual vertices of one class can disagree (their attachment vertex
    may be older or younger), so the class value is the average of the
    per-vertex means, which is what the closed form describes.
    """
    adj = cg.graph.adjacency_lists()
    degrees = cg.graph.degrees()
    sums: dict[int, Fraction] = {}
    counts: dict[int, int] = {}
    for v in range(cg.graph.vertex_count):
        mean = Fraction(sum(degrees[u] for u in adj[v]), degrees[v])
        b = cg.birth[v]
        sums[b] = sums.get(b, Fraction(0)) + mean
        counts[b] = counts.get(b, 0) + 1
    return {b: sums[b] / counts[b] for b in sums}


def symmetric_eigenvalues(matrix) -> list[float]:
    """All eigenvalues of a dense symmetric matrix (LAPACK), sorted descending.

    The shape is checked first, so a non-square or oversized input is
    refused before it is converted.  A float64 array, as `matrix_of` gives,
    reaches `eigvalsh` without a conversion copy; an integer array or nested
    lists are converted to float64 once.  The input is never modified.
    """
    import numpy as np

    shape = np.shape(matrix)
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ValueError("matrix must be square")
    n = shape[0]
    if n > EIGENVALUE_SIZE_LIMIT:
        raise ResourceLimitError(f"matrix size {n} exceeds {EIGENVALUE_SIZE_LIMIT}")
    a = np.asarray(matrix, dtype=float)
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
    """a / b on reduced pairs, for b nonzero."""
    num, den = a[0] * b[1], a[1] * b[0]
    if den < 0:
        num, den = -num, -den
    common = math.gcd(num, den)
    return num // common, den // common


_ZERO = (0, 1)
_MINUS_ONE = (-1, 1)


def _eliminate(graph: Graph, shift: int, ground: int | None) -> tuple[list, int]:
    """The LDLᵀ factor of `L + shift*I`, without row and column `ground` if given.

    Exact symmetric Gaussian elimination on dict rows of `_sub_mul` pairs,
    in reverse index order.  That is a perfect elimination order of the
    chordal corona graphs, so they fill in nothing; on any other graph the
    order only changes the fill-in, which is counted (one per new entry, so
    two per new edge) and refused past FILL_LIMIT.  Returns the factor as
    (k, d_k, l_k) in elimination order, with l_k mapping each later vertex
    i to L[i, k], and the fill-in.  The matrix is positive semidefinite for
    shift >= 0, so a zero pivot means it is singular: the factor then ends
    at that pivot.
    """
    n = graph.vertex_count
    rows: list[dict[int, tuple[int, int]]] = [{a: (shift, 1)} for a in range(n)]
    for u, v in zip(graph.u.tolist(), graph.v.tolist()):
        rows[u][u] = (rows[u][u][0] + 1, 1)
        rows[v][v] = (rows[v][v][0] + 1, 1)
        if ground not in (u, v):
            rows[u][v] = rows[v][u] = _MINUS_ONE
    factor, fill = [], 0
    for k in reversed(range(n)):
        if k == ground:
            continue
        row = rows[k]
        pivot = row.pop(k)
        if not pivot[0]:
            factor.append((k, pivot, {}))
            break
        column = {i: _div(a_ik, pivot) for i, a_ik in row.items()}
        factor.append((k, pivot, column))
        # the Schur complement, over each unordered pair of row entries
        entries = list(row.items())
        for x, (i, a_ik) in enumerate(entries):
            target, l_ik = rows[i], column[i]
            del target[k]
            target[i] = _sub_mul(target[i], l_ik, a_ik)
            for j, a_kj in entries[x + 1 :]:
                if j in target:
                    target[j] = rows[j][i] = _sub_mul(target[j], l_ik, a_kj)
                else:
                    target[j] = rows[j][i] = _sub_mul(_ZERO, l_ik, a_kj)
                    fill += 2
        if fill > FILL_LIMIT:
            raise ResourceLimitError(f"elimination fill-in {fill} exceeds {FILL_LIMIT}")
    return factor, fill


def _determinant(factor) -> int:
    """The product of the pivots, an integer for an integer matrix."""
    return math.prod(d[0] for _, d, _ in factor) // math.prod(d[1] for _, d, _ in factor)


def matrix_tree_count(graph: Graph) -> int:
    """Spanning-tree count: exact determinant of a Laplacian minor.

    The product of the pivots of `_eliminate` with vertex 0 grounded; any
    other ground gives the same count.  The minor is positive semidefinite,
    so a zero pivot means a singular minor: disconnected graphs return 0.
    """
    n = graph.vertex_count
    if n > MATRIX_TREE_SIZE_LIMIT:
        raise ResourceLimitError(f"graph size {n} exceeds {MATRIX_TREE_SIZE_LIMIT}")
    if n <= 1:
        return 1
    return _determinant(_eliminate(graph, 0, 0)[0])


def forest_count(graph: Graph) -> int:
    """Rooted spanning-forest count det(I + L), by the matrix-forest theorem.

    The product of the pivots of `_eliminate` with shift 1 and nothing
    grounded (Chebotarev & Shamis, Automation and Remote Control 58, 1997).
    """
    n = graph.vertex_count
    if n > MATRIX_TREE_SIZE_LIMIT:
        raise ResourceLimitError(f"graph size {n} exceeds {MATRIX_TREE_SIZE_LIMIT}")
    return _determinant(_eliminate(graph, 1, None)[0])


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
    n = graph.vertex_count
    if n > RESISTANCE_SIZE_LIMIT:
        raise ResourceLimitError(f"graph size {n} exceeds {RESISTANCE_SIZE_LIMIT}")
    if n < 2:
        return Fraction(0)
    factor, _ = _eliminate(graph, 0, 0)
    if not factor[-1][1][0]:
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

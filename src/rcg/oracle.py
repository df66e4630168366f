"""Brute-force measurements on explicitly constructed graphs.

Everything here is an independent ground truth for the closed forms and
spectral recursions: BFS distance sums, degree histograms, neighbor-degree
averages, LAPACK eigenvalues, an exact sparse matrix-tree determinant, and
effective-resistance sums.  No function in this module consults any formula
it is meant to check.
"""
from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction

from .errors import ConnectivityError, NumericalError, ResourceLimitError
from .graphs import CoronaGraph, Graph, matrix_of

EIGENVALUE_SIZE_LIMIT = 2000
MATRIX_TREE_SIZE_LIMIT = 500
RESISTANCE_SIZE_LIMIT = 2000


def bfs_total_distance(graph: Graph) -> int:
    """Sum of shortest-path distances over unordered vertex pairs."""
    n = graph.vertex_count
    adj = graph.adjacency_lists()
    total = 0
    for source in range(n):
        dist = [-1] * n
        dist[source] = 0
        queue = deque([source])
        reached = 1
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    reached += 1
                    queue.append(v)
        if reached != n:
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
    """All eigenvalues of a dense symmetric matrix (LAPACK), sorted descending."""
    import numpy as np

    a = np.array(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    n = a.shape[0]
    if n > EIGENVALUE_SIZE_LIMIT:
        raise ResourceLimitError(f"matrix size {n} exceeds {EIGENVALUE_SIZE_LIMIT}")
    if not np.allclose(a, a.T, atol=1e-12):
        raise ValueError("matrix must be symmetric")
    try:
        values = np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigvalsh failed: {exc}") from exc
    return values[::-1].tolist()


def matrix_tree_count(graph: Graph, remove_index: int = 0) -> int:
    """Spanning-tree count: exact determinant of a Laplacian minor.

    Symmetric elimination over Fractions on a sparse minor, in reverse index
    order; the result does not depend on which row/column is removed, and
    the order only affects fill-in.  Reverse index order is a perfect
    elimination order of the chordal corona graphs, so they fill in nothing.
    The minor is positive semidefinite, so a zero pivot means a singular
    minor: disconnected graphs return 0.
    """
    n = graph.vertex_count
    if n > MATRIX_TREE_SIZE_LIMIT:
        raise ResourceLimitError(f"graph size {n} exceeds {MATRIX_TREE_SIZE_LIMIT}")
    if not (0 <= remove_index < max(n, 1)):
        raise ValueError("remove_index out of range")
    if n <= 1:
        return 1
    rows: list[dict[int, int | Fraction]] = [{} for _ in range(n)]
    for u, v in graph.edges:
        for a, b in ((u, v), (v, u)):
            rows[a][a] = rows[a].get(a, 0) + 1
            if b != remove_index:
                rows[a][b] = -1
    det = Fraction(1)
    for k in reversed(range(n)):
        if k == remove_index:
            continue
        row = rows[k]
        pivot = row.pop(k, 0)
        if pivot == 0:
            return 0
        det *= pivot
        for i, a_ik in row.items():
            target = rows[i]
            del target[k]
            scale = Fraction(a_ik) / pivot
            for j, a_kj in row.items():
                target[j] = target.get(j, 0) - scale * a_kj
    return int(det)


def resistance_sum(graph: Graph) -> float:
    """Sum of pairwise effective resistances via the Laplacian pseudoinverse."""
    import numpy as np

    n = graph.vertex_count
    if n > RESISTANCE_SIZE_LIMIT:
        raise ResourceLimitError(f"graph size {n} exceeds {RESISTANCE_SIZE_LIMIT}")
    if not graph.is_connected():
        raise ConnectivityError("graph is disconnected")
    if n < 2:
        return 0.0
    laplacian = matrix_of(graph, "laplacian").astype(float)
    # ground the Laplacian by shifting with the all-ones projector; exact
    # inverse of (L + J/n) minus J/n is the pseudoinverse for connected graphs
    shift = np.full((n, n), 1.0 / n)
    try:
        pinv = np.linalg.inv(laplacian + shift) - shift
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"inv failed: {exc}") from exc
    # sum over pairs of P_uu + P_vv - 2 P_uv
    return float(n * np.trace(pinv) - pinv.sum())


@dataclass(frozen=True)
class OracleReport:
    """All brute-force measurements for one explicit corona graph."""

    degree_histogram: dict[int, int]
    mean_neighbor_degree_by_class: dict[int, Fraction]
    total_distance: int
    local_clustering_by_vertex: list[Fraction]
    adjacency_eigenvalues: list[float]
    laplacian_eigenvalues: list[float]
    spanning_tree_count: int
    resistance_sum: float


def oracle_report(cg: CoronaGraph) -> OracleReport:
    graph = cg.graph
    return OracleReport(
        degree_histogram=degree_histogram(graph),
        mean_neighbor_degree_by_class=mean_neighbor_degree_by_class(cg),
        total_distance=bfs_total_distance(graph),
        local_clustering_by_vertex=local_clustering(graph),
        adjacency_eigenvalues=symmetric_eigenvalues(matrix_of(graph, "adjacency")),
        laplacian_eigenvalues=symmetric_eigenvalues(matrix_of(graph, "laplacian")),
        spanning_tree_count=matrix_tree_count(graph),
        resistance_sum=resistance_sum(graph),
    )

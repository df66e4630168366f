"""Brute-force measurements on explicitly constructed graphs.

Everything here is an independent ground truth for the closed forms and
spectral recursions: BFS distance sums, degree histograms, neighbor-degree
averages, a cyclic Jacobi eigensolver, an exact integer matrix-tree
determinant, and effective-resistance sums.  No function in this module
consults any formula it is meant to check.
"""
from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConnectivityError, NumericalError, ResourceLimitError
from .graphs import CoronaGraph, Graph, matrix_of

JACOBI_MAX_SWEEPS = 100
JACOBI_SIZE_LIMIT = 2000
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


def symmetric_eigenvalues(matrix, tol: float = 1e-12) -> list[float]:
    """All eigenvalues of a dense symmetric matrix via cyclic Jacobi rotations.

    Sweeps until the off-diagonal Frobenius norm falls below tol * ||A||_F;
    returns eigenvalues sorted descending.
    """
    a = np.array(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if not np.allclose(a, a.T, atol=1e-12):
        raise ValueError("matrix must be symmetric")
    if tol <= 0:
        raise ValueError("tol must be positive")
    n = a.shape[0]
    if n > JACOBI_SIZE_LIMIT:
        raise ResourceLimitError(f"matrix size {n} exceeds {JACOBI_SIZE_LIMIT}")
    if n <= 1:
        return [a[0, 0]] if n == 1 else []
    norm = np.linalg.norm(a)
    if norm == 0.0:
        return [0.0] * n
    for _ in range(JACOBI_MAX_SWEEPS):
        off = np.linalg.norm(a - np.diag(np.diag(a)))
        if off < tol * norm:
            return sorted(np.diag(a).tolist(), reverse=True)
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) < 1e-300:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = np.sign(theta) if theta != 0 else 1.0
                # hypot avoids overflow of theta**2 for nearly-converged entries
                t = t / (abs(theta) + np.hypot(theta, 1.0))
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p - s * row_q
                a[q, :] = s * row_p + c * row_q
                a[p, q] = 0.0
                a[q, p] = 0.0
    raise NumericalError(f"Jacobi did not converge in {JACOBI_MAX_SWEEPS} sweeps")


def matrix_tree_count(graph: Graph, remove_index: int = 0) -> int:
    """Spanning-tree count: exact integer determinant of a Laplacian minor.

    Bareiss fraction-free elimination over Python ints; the result does not
    depend on which row/column is removed.  Returns 0 for disconnected
    graphs (the minor is singular).
    """
    n = graph.vertex_count
    if n > MATRIX_TREE_SIZE_LIMIT:
        raise ResourceLimitError(f"graph size {n} exceeds {MATRIX_TREE_SIZE_LIMIT}")
    if not (0 <= remove_index < max(n, 1)):
        raise ValueError("remove_index out of range")
    if n <= 1:
        return 1
    laplacian = matrix_of(graph, "laplacian")
    keep = [i for i in range(n) if i != remove_index]
    minor = [[int(laplacian[i, j]) for j in keep] for i in keep]
    return _bareiss_determinant(minor)


def _bareiss_determinant(m: list[list[int]]) -> int:
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def resistance_sum(graph: Graph) -> float:
    """Sum of pairwise effective resistances via the Laplacian pseudoinverse."""
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
    pinv = np.linalg.inv(laplacian + shift) - shift
    diag = np.diag(pinv)
    total = 0.0
    for u in range(n):
        total += float(np.sum(diag[u] + diag[u + 1 :] - 2.0 * pinv[u, u + 1 :]))
    return total


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


def oracle_report(cg: CoronaGraph, eig_tol: float = 1e-12) -> OracleReport:
    graph = cg.graph
    return OracleReport(
        degree_histogram=degree_histogram(graph),
        mean_neighbor_degree_by_class=mean_neighbor_degree_by_class(cg),
        total_distance=bfs_total_distance(graph),
        local_clustering_by_vertex=local_clustering(graph),
        adjacency_eigenvalues=symmetric_eigenvalues(matrix_of(graph, "adjacency"), eig_tol),
        laplacian_eigenvalues=symmetric_eigenvalues(matrix_of(graph, "laplacian"), eig_tol),
        spanning_tree_count=matrix_tree_count(graph),
        resistance_sum=resistance_sum(graph),
    )

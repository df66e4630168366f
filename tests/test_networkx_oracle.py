"""networkx as a second brute-force oracle, independent of `rcg.oracle`."""
from fractions import Fraction

import pytest

from rcg import ConnectivityError, RcgParams, build_rcg
from rcg.formulas import (
    global_clustering,
    kirchhoff_closed,
    spanning_trees_closed,
    total_distance,
)
from rcg.oracle import bfs_total_distance, local_clustering

from reference import edge_pairs, graph_of

nx = pytest.importorskip("networkx")

POINTS = [(2, 3), (3, 2), (5, 2), (2, 4)]


def nx_graph(params):
    graph = build_rcg(params).graph
    result = nx.Graph()
    result.add_nodes_from(range(graph.vertex_count))
    result.add_edges_from(edge_pairs(graph))
    return result


@pytest.fixture(scope="module", params=POINTS, ids=lambda p: f"q{p[0]}g{p[1]}")
def point(request):
    params = RcgParams(*request.param)
    return params, nx_graph(params)


def test_wiener_index(point):
    params, graph = point
    assert nx.wiener_index(graph) == total_distance(params)


def test_average_clustering(point):
    params, graph = point
    assert nx.average_clustering(graph) == pytest.approx(
        float(global_clustering(params)), abs=1e-12
    )


def test_number_of_spanning_trees(point):
    params, graph = point
    expected = spanning_trees_closed(params).value
    assert nx.number_of_spanning_trees(graph) == pytest.approx(expected, rel=1e-9)


def test_effective_graph_resistance(point):
    params, graph = point
    expected = float(kirchhoff_closed(params))
    assert nx.effective_graph_resistance(graph) == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("seed", range(200))
def test_bfs_total_distance_random(seed):
    # the distance oracle against networkx on dense and sparse random graphs
    n, p = 1 + seed % 40, (1 + seed % 7) / 8
    graph = nx.gnp_random_graph(n, p, seed=seed)
    ours = graph_of(n, graph.edges)
    if nx.is_connected(graph):
        assert bfs_total_distance(ours) == nx.wiener_index(graph)
    else:
        with pytest.raises(ConnectivityError, match="^graph is disconnected$"):
            bfs_total_distance(ours)


@pytest.mark.parametrize("seed", range(200))
def test_local_clustering_random(seed):
    # the clustering oracle against networkx's triangle counts, exactly, on
    # graphs that are mostly not block graphs
    n, p = 1 + seed % 40, (1 + seed % 7) / 8
    graph = nx.gnp_random_graph(n, p, seed=seed)
    triangles = nx.triangles(graph)
    expected = [
        Fraction(2 * triangles[v], d * (d - 1)) if (d := graph.degree(v)) >= 2 else 0
        for v in range(n)
    ]
    assert local_clustering(graph_of(n, graph.edges)) == expected

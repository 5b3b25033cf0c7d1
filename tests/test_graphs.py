import json
import math

import networkx as nx
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from conftest import small_graphs
from rslab.errors import (
    DuplicateEdgeError,
    IndexOutOfRangeError,
    RslabError,
    SelfLoopError,
)
from rslab.graphs import Graph, build_graph, disjoint_union, from_graph6, to_graph6


def test_build_triangle():
    g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    assert g.n == 3
    assert len(g.edges) == 3
    assert g.degrees() == (2, 2, 2)


def test_build_k1():
    g = build_graph(1, [])
    assert g.n == 1
    assert g.edges == ()


def test_duplicate_edge_rejected():
    with pytest.raises(DuplicateEdgeError):
        build_graph(4, [(0, 1), (0, 1)])
    with pytest.raises(DuplicateEdgeError):
        build_graph(4, [(0, 1), (1, 0)])


def test_self_loop_rejected():
    with pytest.raises(SelfLoopError):
        build_graph(3, [(1, 1)])


def test_out_of_range_rejected():
    with pytest.raises(IndexOutOfRangeError):
        build_graph(3, [(0, 3)])


@pytest.mark.parametrize("n, edges, error, message", [
    (-1, (), IndexOutOfRangeError, "negative vertex count"),
    (3, ((1, 1),), SelfLoopError, "self-loop"),
    (3, ((1, 0),), RslabError, "not normalised"),
    (3, ((0, 3),), IndexOutOfRangeError, "outside"),
    (3, ((0, 1), (0, 1)), DuplicateEdgeError, "repeated"),
    (3, ((0, 2), (0, 1)), RslabError, "not sorted"),
])
def test_graph_constructor_validates(n, edges, error, message):
    with pytest.raises(error, match=message):
        Graph(n, edges)


def test_derived_graphs_validate_their_arguments():
    g = build_graph(3, [(0, 1)])
    with pytest.raises(SelfLoopError):
        g.add_edge(2, 2)
    with pytest.raises(IndexOutOfRangeError):
        g.add_edge(1, 3)
    with pytest.raises(IndexOutOfRangeError):
        g.add_edge(-1, 1)
    with pytest.raises(DuplicateEdgeError):
        g.add_edge(1, 0)
    with pytest.raises(RslabError, match="permutation"):
        g.relabel([0, 0, 1])
    with pytest.raises(RslabError, match="permutation"):
        g.relabel([0, 1])


def _assert_same_graph(g, ref):
    assert g == ref and hash(g) == hash(ref)
    assert g.adjacency == ref.adjacency
    assert g.edge_set() == ref.edge_set()
    assert g.degrees() == ref.degrees()


@given(small_graphs(max_n=8), st.data())
def test_derived_graphs_equal_validated_ones(g, data):
    perm = data.draw(st.permutations(range(g.n)))
    _assert_same_graph(g.relabel(perm), build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges]))
    non_edges = g.non_edges()
    assume(non_edges)
    u, v = data.draw(st.sampled_from(non_edges))
    _assert_same_graph(g.add_edge(v, u), build_graph(g.n, g.edges + ((u, v),)))


def test_adjacency_consistent():
    g = build_graph(4, [(2, 0), (3, 1), (1, 2)])
    assert g.edges == ((0, 2), (1, 2), (1, 3))
    assert g.neighbours(2) == (0, 1)
    assert g.has_edge(3, 1) and not g.has_edge(0, 1)


def test_distance_and_components():
    g = build_graph(5, [(0, 1), (1, 2), (3, 4)])
    assert g.distance(0, 2) == 2
    assert g.distance(0, 3) == math.inf
    assert g.components() == [[0, 1, 2], [3, 4]]
    assert not g.is_connected()
    assert build_graph(3, [(0, 1), (1, 2)]).is_tree()


def test_non_edges():
    g = build_graph(3, [(0, 1)])
    assert g.non_edges() == ((0, 2), (1, 2))


def test_disjoint_union_offsets():
    a = build_graph(2, [(0, 1)])
    b = build_graph(3, [(0, 2)])
    u = disjoint_union(a, b)
    assert u.n == 5
    assert u.edges == ((0, 1), (2, 4))


def test_graph6_known_vectors():
    k4 = build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    assert to_graph6(k4) == "C~"
    p4 = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    assert to_graph6(p4) == "Ch"
    assert from_graph6("C~") == k4
    assert from_graph6("Ch") == p4


def test_graph6_header_tolerated():
    assert from_graph6(">>graph6<<C~").n == 4


@given(small_graphs(max_n=8))
def test_graph6_roundtrip(g):
    assert from_graph6(to_graph6(g)) == g


@given(small_graphs(min_n=1, max_n=7))
def test_graph6_matches_networkx(g):
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n))
    nxg.add_edges_from(g.edges)
    theirs = nx.to_graph6_bytes(nxg, nodes=range(g.n), header=False).decode().strip()
    assert to_graph6(g) == theirs
    back = nx.from_graph6_bytes(to_graph6(g).encode())
    assert {(min(u, v), max(u, v)) for u, v in back.edges()} == set(g.edges)


def test_json_roundtrip_and_edge_order():
    g = build_graph(4, [(3, 1), (2, 0), (0, 1)])
    d = g.to_json_dict()
    assert d["edges"] == [[0, 1], [0, 2], [1, 3]]
    assert Graph.from_json_dict(json.loads(json.dumps(d))) == g


def test_dot_export():
    g = build_graph(3, [(0, 1)])
    dot = g.to_dot()
    assert "0 -- 1;" in dot and "2;" in dot

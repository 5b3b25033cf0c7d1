import itertools
import json
import random
import tracemalloc

import networkx as nx
import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from conftest import all_graphs_on, enumerate_graphs, has_edge, small_graphs
from rslab.colouring import EdgeColouring
from rslab.errors import (
    DuplicateEdgeError,
    IndexOutOfRangeError,
    RslabError,
    SelfLoopError,
)
from rslab.graphs import Graph, build_graph, disjoint_union, from_graph6, to_graph6
from rslab.patterns import PatternSpec


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
    assert [g.neighbours(v) for v in range(g.n)] == [ref.neighbours(v) for v in range(ref.n)]
    assert list(g.non_edges()) == list(ref.non_edges())
    assert g.degrees() == ref.degrees()


@given(small_graphs(max_n=8), st.data())
def test_derived_graphs_equal_validated_ones(g, data):
    perm = data.draw(st.permutations(range(g.n)))
    _assert_same_graph(g.relabel(perm), build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges]))
    non_edges = list(g.non_edges())
    assume(non_edges)
    u, v = data.draw(st.sampled_from(non_edges))
    _assert_same_graph(g.add_edge(v, u), build_graph(g.n, g.edges + ((u, v),)))


@seed(20)
@settings(max_examples=300, deadline=None)
@given(small_graphs(max_n=12), st.data())
def test_add_edge_and_graph6_match_references(g, data):
    u, v = (data.draw(st.integers(-1, g.n)) for _ in range(2))
    try:
        want = build_graph(g.n, g.edges + ((u, v),))
    except (SelfLoopError, IndexOutOfRangeError, DuplicateEdgeError) as exc:
        with pytest.raises(type(exc)):
            g.add_edge(u, v)
    else:
        assert g.add_edge(u, v) == want
    x = nx.Graph()
    x.add_nodes_from(range(g.n))
    x.add_edges_from(g.edges)
    assert to_graph6(g) == nx.to_graph6_bytes(x, header=False).decode().rstrip("\n")
    assert list(g.non_edges()) == sorted((min(e), max(e)) for e in nx.non_edges(x))
    assert all(has_edge(g, a, b) == x.has_edge(a, b) for a in range(g.n) for b in range(g.n))
    assert set(vars(g)) <= {"n", "edges", "_adj"}  # the neighbour lists are the one cache


def test_adjacency_consistent():
    g = build_graph(4, [(2, 0), (3, 1), (1, 2)])
    assert g.edges == ((0, 2), (1, 2), (1, 3))
    assert g.neighbours(2) == (0, 1)
    assert has_edge(g, 3, 1) and not has_edge(g, 0, 1)


def test_components_and_trees():
    g = build_graph(5, [(0, 1), (1, 2), (3, 4)])
    assert g.components() == [[0, 1, 2], [3, 4]]
    assert not g.is_connected()
    assert build_graph(3, [(0, 1), (1, 2)]).is_tree()


def test_components_match_networkx():
    rng = random.Random(5)
    isolated = 0
    for _ in range(200):
        n = rng.randrange(0, 40)
        p = rng.choice((0.02, 0.05, 0.1, 0.3))
        g = build_graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p])
        x = nx.Graph()
        x.add_nodes_from(range(n))
        x.add_edges_from(g.edges)
        assert g.components() == sorted(sorted(c) for c in nx.connected_components(x))
        assert g.is_connected() == (n == 0 or nx.is_connected(x))
        isolated += nx.number_of_isolates(x)
    assert isolated > 0


def test_components_walk_the_neighbour_lists_not_the_bitmasks(monkeypatch):
    # A flood over adjacency bitmasks takes time quadratic in n on a long
    # sparse graph; the neighbour lists take linear time.
    calls = []
    real = Graph.adjacency_bits
    monkeypatch.setattr(Graph, "adjacency_bits", lambda self: calls.append(self) or real(self))
    g = build_graph(6, [(0, 4), (2, 4), (1, 5)])
    assert g.components() == [[0, 2, 4], [1, 5], [3]]
    assert PatternSpec.path(5000).graph.is_connected()
    assert not Graph(5000, ()).is_connected()
    assert calls == []


def test_non_edges():
    g = build_graph(3, [(0, 1)])
    assert list(g.non_edges()) == [(0, 2), (1, 2)]


def test_graph6_decoding_of_a_sparse_graph_is_linear_in_the_input():
    # 53,267 body bytes for 400 edges: no table of the n(n-1)/2 bits is made
    g = build_graph(800, [(i, i + 1) for i in range(0, 800, 2)])
    text = to_graph6(g)
    tracemalloc.start()
    try:
        decoded = from_graph6(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert decoded == g
    assert peak < 2**20


def string_to_graph6(g):
    """graph6 by way of a string of the n(n-1)/2 triangle bits, column by
    column, packed six to a byte."""
    head = chr(g.n + 63) if g.n <= 62 else "~" + "".join(
        chr((g.n >> s & 63) + 63) for s in (12, 6, 0))
    adjb = g.adjacency_bits()
    bits = "".join(format(adjb[j] & (1 << j) - 1, f"0{j}b")[::-1] for j in range(1, g.n))
    bits += "0" * (-len(bits) % 6)
    return head + "".join(chr(int(bits[k:k + 6], 2) + 63) for k in range(0, len(bits), 6))


def test_graph6_encoding_matches_the_bit_string_reference():
    graphs = [g for n in range(7) for g in all_graphs_on(n)] + list(enumerate_graphs(7))
    rng = random.Random(6)
    for n in (8, 13, 62, 63, 64, 100, 199, 200):
        for density in (0.0, 0.03, 0.5, 1.0):
            graphs.append(build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                          if rng.random() < density]))
    for g in graphs:
        assert to_graph6(g) == string_to_graph6(g), g


def test_graph6_encoding_of_a_sparse_graph_is_linear_in_the_output():
    # 333,171 bytes of text for 1,000 edges: no string of the 1,999,000
    # triangle bits is made
    g = build_graph(2000, [(i, i + 1) for i in range(0, 2000, 2)])
    tracemalloc.start()
    try:
        text = to_graph6(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert from_graph6(text) == g
    assert peak < 4 * len(text)


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


@pytest.mark.parametrize("text", ["C~ ~", "C~\u00e9", "C\x7f", "C>"])
def test_graph6_refuses_bytes_outside_the_printable_range(text):
    with pytest.raises(RslabError, match="byte out of range"):
        from_graph6(text)


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


def test_dot_text_of_a_graph_and_a_colouring_is_pinned():
    g = build_graph(3, [(0, 1), (1, 2)])
    assert g.to_dot() == "graph G {\n  0;\n  1;\n  2;\n  0 -- 1;\n  1 -- 2;\n}"
    assert EdgeColouring(g, (2, 1)).to_dot() == (
        'graph G {\n  0;\n  1;\n  2;\n  0 -- 1 [label="2"];\n  1 -- 2 [label="1"];\n}')

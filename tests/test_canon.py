import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    all_graphs_on,
    brute_force_automorphisms,
    brute_force_isomorphic,
    small_graphs,
)
from rslab.canon import (
    automorphism_generators,
    automorphism_group,
    canonical_form,
    canonical_graph,
    is_isomorphic,
    non_edge_orbit_representatives,
    pair_orbits,
    vertex_orbits,
)
from rslab.graphs import build_graph
from rslab.patterns import PatternSpec, realize_pattern


def test_relabelled_path_equal_labels():
    p4 = realize_pattern(PatternSpec.path(4))
    assert canonical_form(p4) == canonical_form(p4.relabel([2, 0, 3, 1]))


def test_path_vs_star_differ():
    assert canonical_form(realize_pattern(PatternSpec.path(4))) != canonical_form(
        realize_pattern(PatternSpec.star(3))
    )


def test_eleven_classes_on_four_vertices(graphs_n4):
    assert len({canonical_form(g) for g in graphs_n4}) == 11


def test_canonical_graph_is_isomorphic_relabelling():
    g = build_graph(5, [(0, 3), (3, 4), (1, 4), (0, 1)])
    cg = canonical_graph(g)
    assert brute_force_isomorphic(g, cg)
    assert canonical_form(cg) == canonical_form(g)


@given(small_graphs(max_n=6), st.randoms(use_true_random=False))
def test_canonical_invariant_under_relabelling(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    assert canonical_form(g) == canonical_form(g.relabel(perm))


@given(small_graphs(max_n=5), small_graphs(max_n=5))
@settings(max_examples=60)
def test_agrees_with_brute_force_isomorphism(a, b):
    assert is_isomorphic(a, b) == brute_force_isomorphic(a, b)


def test_pair_orbits_k4():
    k4 = build_graph(4, list(itertools.combinations(range(4), 2)))
    orbits = pair_orbits(k4)
    assert len(orbits) == 1 and len(orbits[0]) == 6
    assert non_edge_orbit_representatives(k4) == []


def test_pair_orbits_p3():
    p3 = build_graph(3, [(0, 1), (1, 2)])
    assert pair_orbits(p3) == [((0, 1), (1, 2)), ((0, 2),)]


def test_pair_orbits_star_non_edges():
    k13 = realize_pattern(PatternSpec.star(3))
    non_edge_orbits = [o for o in pair_orbits(k13) if o[0] not in k13.edge_set()]
    assert len(non_edge_orbits) == 1
    assert len(non_edge_orbits[0]) == 3


def test_no_orbit_mixes_edges_and_non_edges():
    for g in all_graphs_on(4):
        es = g.edge_set()
        for orbit in pair_orbits(g):
            inside = [p in es for p in orbit]
            assert all(inside) or not any(inside)


@given(small_graphs(max_n=6))
@settings(max_examples=80)
def test_generators_are_automorphisms(g):
    es = g.edge_set()
    for sigma in automorphism_generators(g):
        assert sorted(sigma) == list(range(g.n))
        for u, v in g.edges:
            assert (min(sigma[u], sigma[v]), max(sigma[u], sigma[v])) in es


def _brute_pair_orbits(g):
    auts = brute_force_automorphisms(g)
    pairs = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)]
    seen = set()
    orbits = []
    for p in pairs:
        if p in seen:
            continue
        orbit = {
            (min(s[p[0]], s[p[1]]), max(s[p[0]], s[p[1]])) for s in auts
        }
        seen |= orbit
        orbits.append(tuple(sorted(orbit)))
    return sorted(orbits)


def test_orbits_exact_on_all_graphs_up_to_5():
    for n in range(1, 6):
        for g in all_graphs_on(n):
            assert pair_orbits(g) == _brute_pair_orbits(g)


@pytest.mark.slow
def test_orbits_exact_on_all_graphs_at_6():
    for g in all_graphs_on(6):
        assert pair_orbits(g) == _brute_pair_orbits(g)


def test_generators_generate_the_whole_group():
    for n in range(1, 6):
        for g in all_graphs_on(n):
            assert len(automorphism_group(g)) == len(brute_force_automorphisms(g))


def test_automorphism_group_sizes():
    k4 = build_graph(4, list(itertools.combinations(range(4), 2)))
    assert len(automorphism_group(k4)) == 24
    p4 = realize_pattern(PatternSpec.path(4))
    assert len(automorphism_group(p4)) == 2
    # complete bipartite K_{3,3}
    k33 = build_graph(6, [(i, j) for i in range(3) for j in range(3, 6)])
    assert len(automorphism_group(k33)) == 72


def test_vertex_orbits_star():
    k13 = realize_pattern(PatternSpec.star(3))
    assert vertex_orbits(k13) == [(0,), (1, 2, 3)]

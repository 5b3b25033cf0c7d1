import hashlib
import itertools
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from networkx.algorithms.isomorphism import GraphMatcher

from conftest import (
    all_graphs_on,
    brute_force_automorphisms,
    brute_force_isomorphic,
    small_graphs,
)
from rslab import canon, oracle
from rslab.canon import (
    _pair_table,
    automorphism_generators,
    automorphism_group,
    canonical_form,
    canonical_graph,
    is_isomorphic,
    non_edge_orbit_representatives,
    non_edge_representatives,
    pair_orbit_roots,
    pair_orbits,
    vertex_orbits,
)
from rslab.constructions import (
    FoldedCube,
    broom_saturated,
    caterpillar_construction,
    star_forest,
)
from rslab.errors import RslabError
from rslab.graphs import build_graph, to_graph6
from rslab.oracle import _augmented_levels
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


def _assert_generators_are_automorphisms(g):
    es = g.edge_set()
    for sigma in automorphism_generators(g):
        assert sorted(sigma) == list(range(g.n))
        for u, v in g.edges:
            assert (min(sigma[u], sigma[v]), max(sigma[u], sigma[v])) in es


@given(small_graphs(max_n=6))
@settings(max_examples=80)
def test_generators_are_automorphisms(g):
    _assert_generators_are_automorphisms(g)


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
def test_orbits_exact_on_all_graphs_at_6(labelled_graphs_on_6, monkeypatch):
    monkeypatch.setattr(canon, "labelling", dict(labelled_graphs_on_6).__getitem__)
    for g, _ in labelled_graphs_on_6:
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


def test_labelling_digest_pins_positions_and_generators():
    # The level digest pins canonical graphs only; this one pins the whole
    # output of `labelling`, the position map and the generators in the
    # order found, on every class up to n = 6 (as made and reversed) and on
    # larger hosts with many symmetries.
    digest = hashlib.sha256()
    graphs = []
    for n in range(1, 7):
        for level in _augmented_levels(n):
            for g, _ in level:
                graphs += [g, g.relabel(list(range(n))[::-1])]
    assert len(graphs) == 416
    graphs += [caterpillar_construction(28, 6, 4), star_forest(30, 4),
               FoldedCube(5).graph(), broom_saturated(9, 1)]
    for g in graphs:
        digest.update(f"{to_graph6(g)} {canon.labelling(g)}\n".encode())
    assert digest.hexdigest() == (
        "bae504e5142cd2e14bd99b95fcbe53933de63a99bacb80697d45fbf1cc6b8739"
    )


def _all_pair_non_edge_representatives(g, gens):
    """`non_edge_representatives` before it walked orbits over the
    non-edges alone, kept as a reference: orbits over all pairs, filtered
    to the non-edges."""
    pairs, _ = _pair_table(g.n)
    eset = g.edge_set()
    roots = pair_orbit_roots(g.n, gens)
    return [p for i, p in enumerate(pairs) if roots[i] == i and p not in eset]


def test_non_edge_representatives_match_all_pair_reference(monkeypatch):
    # every class up to n = 6 with the generators the enumeration carries
    # to it, with none, and with a random part of them
    carried = []
    real = oracle.non_edge_representatives
    monkeypatch.setattr(oracle, "non_edge_representatives",
                        lambda g, gens: carried.append((g, gens)) or real(g, gens))
    for n in range(1, 7):
        for _ in _augmented_levels(n):
            pass
    assert len(carried) == 208
    assert sum(1 for _, gens in carried if len(gens) > 1) > 50
    rng = random.Random(0)
    for g, gens in carried:
        some = [s for s in gens if rng.random() < 0.5]
        for subset in (gens, [], some):
            want = _all_pair_non_edge_representatives(g, subset)
            assert non_edge_representatives(g, subset) == want, (to_graph6(g), subset)


def _restarting_refine(adjb, cells):
    """`_refine` before it resumed its scan, kept as a reference: after
    every split the scan restarts from the first source."""
    cells = [sorted(c) for c in cells]
    changed = True
    while changed:
        changed = False
        for si in range(len(cells)):
            smask = 0
            for v in cells[si]:
                smask |= 1 << v
            for ci in range(len(cells)):
                cell = cells[ci]
                if len(cell) == 1:
                    continue
                groups: dict[int, list[int]] = {}
                for v in cell:
                    groups.setdefault((adjb[v] & smask).bit_count(), []).append(v)
                if len(groups) > 1:
                    cells[ci:ci + 1] = [groups[k] for k in sorted(groups)]
                    changed = True
                    break
            if changed:
                break
    return cells


def _start_partitions(n):
    """The unit partition and each single-vertex individualisation of it."""
    yield [list(range(n))]
    for v in range(n):
        yield [[v], [w for w in range(n) if w != v]]


def _bitmask_refine(adjb, cells):
    """`canon._refine` on list cells: each cell goes in as the bitmask of
    its vertices and comes out as the sorted list of them."""
    masks = [sum(1 << v for v in cell) for cell in cells]
    return [[v for v in range(len(adjb)) if m >> v & 1] for m in canon._refine(adjb, masks)]


def _assert_refine_matches_reference(g):
    adjb = g.adjacency_bits()
    for cells in _start_partitions(g.n):
        assert _bitmask_refine(adjb, cells) == _restarting_refine(adjb, cells), (g, cells)
    # the root of the search starts from the degree partition, the first
    # split of the unit partition
    unit = _restarting_refine(adjb, [list(range(g.n))])
    assert canon._refine(adjb, canon._degree_partition(adjb)) == [
        sum(1 << v for v in cell) for cell in unit
    ], g


def test_refine_matches_restarting_reference_up_to_5():
    for n in range(1, 6):
        for g in all_graphs_on(n):
            _assert_refine_matches_reference(g)


@given(small_graphs(min_n=1, max_n=10), st.data())
@settings(max_examples=200)
def test_refine_matches_restarting_reference(g, data):
    _assert_refine_matches_reference(g)
    # an arbitrary ordered partition into sorted cells, as deep in the search tree
    order = data.draw(st.permutations(range(g.n)))
    cuts = data.draw(st.lists(st.booleans(), min_size=g.n - 1, max_size=g.n - 1))
    bounds = [0, *(i + 1 for i, cut in enumerate(cuts) if cut), g.n]
    cells = [sorted(order[a:b]) for a, b in zip(bounds, bounds[1:])]
    adjb = g.adjacency_bits()
    assert _bitmask_refine(adjb, cells) == _restarting_refine(adjb, cells), (g, cells)


@st.composite
def twin_rich_graphs(draw, max_n=9):
    """A core of at most 5 vertices, then vertices added one at a time,
    each an open twin (same neighbours) or a closed twin (same neighbours
    and adjacent) of a vertex already there."""
    core = draw(small_graphs(min_n=1, max_n=5))
    n, edges = core.n, set(core.edges)
    for _ in range(draw(st.integers(min_value=0, max_value=max_n - n))):
        v = draw(st.integers(min_value=0, max_value=n - 1))
        edges |= {(u, n) for u in range(n) if (min(u, v), max(u, v)) in edges}
        if draw(st.booleans()):
            edges.add((v, n))
        n += 1
    return build_graph(n, sorted(edges))


_GROUP_CAP = 5040


@given(twin_rich_graphs())
@settings(max_examples=80, deadline=None)
def test_twin_rich_groups_match_networkx(g):
    _assert_generators_are_automorphisms(g)
    x = nx.Graph()
    x.add_nodes_from(range(g.n))
    x.add_edges_from(g.edges)
    isomorphisms = GraphMatcher(x, x).isomorphisms_iter()
    order = sum(1 for _ in itertools.islice(isomorphisms, _GROUP_CAP + 1))
    if order > _GROUP_CAP:
        with pytest.raises(RslabError):
            automorphism_group(g, limit=_GROUP_CAP)
    else:
        assert len(automorphism_group(g, limit=_GROUP_CAP)) == order

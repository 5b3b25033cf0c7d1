import hashlib
import itertools
import random

import networkx as nx
import pytest
from hypothesis import Phase, given, seed, settings
from hypothesis import strategies as st
from networkx.algorithms.isomorphism import GraphMatcher

from conftest import (
    _augmented_levels,
    all_graphs_on,
    automorphism_group,
    brute_force_automorphisms,
    brute_force_isomorphic,
    has_edge,
    small_graphs,
)
from rslab import canon, oracle
from rslab.canon import (
    _pair_table,
    automorphism_generators,
    canonical_form,
    canonical_graph,
    non_edge_orbit_representatives,
    non_edge_representatives,
    orbit_roots,
)
from rslab.constructions import (
    FoldedCube,
    broom_saturated,
    caterpillar_construction,
    star_forest,
)
from rslab.graphs import build_graph, normalise_edge, to_graph6
from rslab.patterns import PatternSpec


def test_relabelled_path_equal_labels():
    p4 = PatternSpec.path(4).graph
    assert canonical_form(p4) == canonical_form(p4.relabel([2, 0, 3, 1]))


def test_path_vs_star_differ():
    assert canonical_form(PatternSpec.path(4).graph) != canonical_form(
        PatternSpec.star(3).graph
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
    assert (canonical_form(a) == canonical_form(b)) == brute_force_isomorphic(a, b)


def _brute_non_edge_representatives(g, auts=None):
    """The first pair of each non-edge orbit under all automorphisms `auts`
    of g, found by brute force unless given."""
    auts = brute_force_automorphisms(g) if auts is None else auts
    seen, reps = set(), []
    for u, v in g.non_edges():
        if (u, v) not in seen:
            reps.append((u, v))
            seen.update((min(s[u], s[v]), max(s[u], s[v])) for s in auts)
    return reps


def test_pair_orbits_k4():
    k4 = build_graph(4, list(itertools.combinations(range(4), 2)))
    assert non_edge_orbit_representatives(k4) == _brute_non_edge_representatives(k4) == []


def test_pair_orbits_p3():
    p3 = build_graph(3, [(0, 1), (1, 2)])
    assert non_edge_orbit_representatives(p3) == _brute_non_edge_representatives(p3) == [(0, 2)]


def test_pair_orbits_star_non_edges():
    # the three non-edges between the leaves of K1,3 form one orbit
    k13 = PatternSpec.star(3).graph
    assert len(list(k13.non_edges())) == 3
    assert non_edge_orbit_representatives(k13) == _brute_non_edge_representatives(k13) == [(1, 2)]


def _assert_generators_are_automorphisms(g):
    es = set(g.edges)
    for sigma in automorphism_generators(g):
        assert sorted(sigma) == list(range(g.n))
        for u, v in g.edges:
            assert (min(sigma[u], sigma[v]), max(sigma[u], sigma[v])) in es


@given(small_graphs(max_n=6))
@settings(max_examples=80)
def test_generators_are_automorphisms(g):
    _assert_generators_are_automorphisms(g)


def _assert_edge_walks_match(g, auts):
    """The pair-orbit walk from each edge e, stopping at another edge f,
    reaches f exactly when an automorphism in `auts` maps e to f: the
    canonical-deletion test of class making."""
    gens = automorphism_generators(g)
    for e in g.edges:
        images = {normalise_edge(s[e[0]], s[e[1]]) for s in auts}
        for f in g.edges:
            if f != e:
                reached = canon._walk_pair_orbit(g.n, gens, e, bytearray(g.n * g.n), f)
                assert reached == (f in images), (to_graph6(g), e, f)


def test_orbits_exact_on_all_graphs_up_to_5():
    for n in range(1, 6):
        for g in all_graphs_on(n):
            auts = brute_force_automorphisms(g)
            assert non_edge_orbit_representatives(g) == _brute_non_edge_representatives(g, auts)
            _assert_edge_walks_match(g, auts)


@pytest.mark.slow
def test_orbits_exact_on_all_graphs_at_6(labelled_graphs_on_6, monkeypatch):
    monkeypatch.setattr(canon, "labelling", dict(labelled_graphs_on_6).__getitem__)
    for g, _ in labelled_graphs_on_6:
        assert non_edge_orbit_representatives(g) == _brute_non_edge_representatives(g)


def _group_order(g, limit=100_000):
    return len(automorphism_group(g.n, automorphism_generators(g), limit))


def test_generators_generate_the_whole_group():
    for n in range(1, 6):
        for g in all_graphs_on(n):
            assert _group_order(g) == len(brute_force_automorphisms(g))


def test_automorphism_group_sizes():
    k4 = build_graph(4, list(itertools.combinations(range(4), 2)))
    assert _group_order(k4) == 24
    p4 = PatternSpec.path(4).graph
    assert _group_order(p4) == 2
    # complete bipartite K_{3,3}
    k33 = build_graph(6, [(i, j) for i in range(3) for j in range(3, 6)])
    assert _group_order(k33) == 72


def test_vertex_orbits_star():
    k13 = PatternSpec.star(3).graph
    assert orbit_roots(4, automorphism_generators(k13)) == [0, 1, 1, 1]


def test_labelling_digest_pins_positions_and_generators():
    # The level digest pins canonical graphs only; this one pins the whole
    # output of `labelling`, the position map and the generators in the
    # order found, on every class up to n = 6 (as made and reversed, each
    # level read in graph6 order) and on larger hosts with many symmetries.
    digest = hashlib.sha256()
    graphs = []
    for n in range(1, 7):
        for level in _augmented_levels(n):
            for g, _ in sorted(level, key=lambda c: to_graph6(c[0])):
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
    pairs, index = _pair_table(g.n)
    roots = orbit_roots(len(pairs), [[index[s[u] * g.n + s[v]] for u, v in pairs] for s in gens])
    return [p for i, p in enumerate(pairs) if roots[i] == i and not has_edge(g, *p)]


def test_non_edge_representatives_match_all_pair_reference():
    # every class up to n = 6, with the generators it carries, with none,
    # and with a random part of them
    gens_of = {g: gens for n in range(1, 7) for level in canon.class_levels(n, shared=False)
               for g, _, gens, _ in level}
    classes = list(gens_of)
    assert len(classes) == 208  # OEIS A000088, n = 1..6
    assert sum(1 for gens in gens_of.values() if len(gens) > 1) > 100
    rng = random.Random(0)
    for g in classes:
        gens = gens_of[g]
        some = [s for s in gens if rng.random() < 0.5]
        for subset in (gens, [], some):
            want = _all_pair_non_edge_representatives(g, subset)
            assert non_edge_representatives(g.adjacency_bits(), subset) == want, (
                to_graph6(g), subset)


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
    # the root of the search refines the unit partition, whose first split
    # is the degree split: refining the degree classes gives the same cells
    degrees = sorted({a.bit_count() for a in adjb})
    by_degree = [[v for v in range(g.n) if adjb[v].bit_count() == d] for d in degrees]
    assert _bitmask_refine(adjb, [list(range(g.n))]) == _restarting_refine(adjb, by_degree), g


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
        with pytest.raises(OverflowError):
            _group_order(g, limit=_GROUP_CAP)
    else:
        assert _group_order(g, limit=_GROUP_CAP) == order


@seed(21)
@given(st.data())
@settings(max_examples=1, deadline=None, phases=[Phase.generate])  # a fixed draw, unshrunk
def test_twin_cells_end_the_search(data):
    # a node whose non-singleton cells are all twin cells is read off as
    # its one leaf; with no cell counted a twin cell, the search goes down
    # to discrete partitions, and must find the same labelling
    graphs = []
    for n in range(1, 8):
        for level in _augmented_levels(n):
            for g, _ in level:
                graphs += [g, g.relabel(list(range(n))[::-1])]
    graphs += data.draw(st.lists(twin_rich_graphs(max_n=12), min_size=60, max_size=60))
    graphs += [caterpillar_construction(n, 6, 4) for n in range(28, 35)]
    with_rule = [canon._label(g.n, g.adjacency_bits(), g.edges) for g in graphs]
    assert [canon.labelling(g) for g in graphs] == [r[:2] for r in with_rule]
    real_twins = canon._twins

    def seeds_alone(adjb):  # the same seeds, and no cell a twin cell
        return real_twins(adjb)[0], [1 << v for v in range(len(adjb))]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(canon, "_twins", seeds_alone)
        for g, label in zip(graphs, with_rule):
            assert canon._label(g.n, g.adjacency_bits(), g.edges) == label, to_graph6(g)


def test_child_refinement_starts_at_the_split_cell(monkeypatch):
    # The search refines each child partition from the cell it split: the
    # cells before it were sources of an equitable partition and split
    # nothing.  Every child that the searches below refine, those of class
    # making included, must give the same cells as a scan from the first cell.
    real = canon._refine
    started_late = []

    def both_ways(adjb, cells, start=0):
        if start:
            started_late.append(start)
            assert real(adjb, list(cells), start) == real(adjb, list(cells)), (adjb, cells, start)
        return real(adjb, cells, start)

    monkeypatch.setattr(canon, "_refine", both_ways)
    graphs = []
    for n in range(1, 8):
        for level in _augmented_levels(n):
            for g, _ in level:
                graphs += [g, g.relabel(list(range(n))[::-1])]
    graphs += [caterpillar_construction(n, 6, 4) for n in range(28, 35)]
    graphs += [star_forest(n, 4) for n in range(7, 41)]
    for g in graphs:
        canon.labelling(g)
    # 3,504 of them start past the first cell, 566 of those in class making
    assert len(started_late) > 1000, len(started_late)

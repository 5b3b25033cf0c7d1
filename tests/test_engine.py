import itertools
import random
import tracemalloc
from collections import deque
from types import SimpleNamespace

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from conftest import (
    _augmented_levels,
    all_graphs_on,
    colour_of,
    enumerate_graphs,
    enumerate_trees,
    has_edge,
    partition,
    small_graphs,
)
from rslab import canon, engine
from rslab.canon import non_edge_orbit_representatives
from rslab.colouring import EdgeColouring, is_proper
from rslab.constructions import caterpillar_construction
from rslab.engine import (
    ColouringSearch,
    NonEdgeWitness,
    Status,
    _matcher_for,
    bfs_edge_order,
    contains_copy,
    enumerate_rainbow_free_colourings,
    find_rainbow_copy,
    forces_rainbow,
    is_properly_rainbow_saturated,
    is_saturated,
    is_semi_saturated,
    prsat_outcome,
    search_rainbow_free_colouring,
)
from rslab.graphs import Graph, build_graph, disjoint_union, from_graph6, normalise_edge
from rslab.oracle import _class_verdict
from rslab.patterns import PatternSpec, parse_pattern

P4 = PatternSpec.path(4)
P5 = PatternSpec.path(5)
P6 = PatternSpec.path(6)
K13 = PatternSpec.star(3)

K4 = build_graph(4, list(itertools.combinations(range(4), 2)))
K4_MATCHINGS = EdgeColouring(K4, (1, 2, 3, 3, 2, 1))
PETERSEN = build_graph(10, [(i, (i + 1) % 5) for i in range(5)]
                       + [(i, i + 5) for i in range(5)]
                       + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])
C6_CHORD = build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 4)])
SPLIT = build_graph(7, [(0, 3), (1, 3), (2, 4), (3, 4), (4, 5), (4, 6), (5, 6), (3, 6)])

# small patterns for the brute-force cross-check: trees, a disconnected
# explicit pattern (unanchored plan steps) and cyclic ones, whose closing edges
# take their colours from a scan of the adjacency lists (K4 closes two edges
# at one vertex)
TWO_K2 = PatternSpec.explicit([(0, 1), (2, 3)])
TRIANGLE = PatternSpec.explicit([(0, 1), (1, 2), (0, 2)])
C4 = PatternSpec.explicit([(0, 1), (1, 2), (2, 3), (0, 3)])
K4_PATTERN = PatternSpec.explicit(K4.edges)
MATCHER_PATTERNS = (PatternSpec.path(3), P4, K13, PatternSpec.subdivided_star(5),
                    TWO_K2, TRIANGLE, C4, K4_PATTERN)


def two_stars(k):
    s = PatternSpec.star(k).graph
    return disjoint_union(s, s)


def assert_certificate_sound(g, spec, verdict):
    assert verdict.status is Status.ESTABLISHED
    cert = verdict.certificate
    assert is_proper(g, cert)
    assert find_rainbow_copy(g, cert, spec) is None


def assert_extension_sound(g, spec, witness):
    """The colouring of g + e that refutes g is proper and rainbow-free."""
    assert witness.edge in g.non_edges()
    g2 = g.add_edge(*witness.edge)
    assert is_proper(g2, witness.colouring)
    assert find_rainbow_copy(g2, witness.colouring, spec) is None


# -- find_rainbow_copy / contains_copy ------------------------------------------


def test_matching_coloured_k4_has_no_rainbow_p4():
    assert find_rainbow_copy(K4, K4_MATCHINGS, P4) is None


def test_degree_three_vertex_forces_rainbow_star():
    # in a proper colouring the three edges at a degree-3 vertex are distinct
    g = build_graph(5, [(0, 1), (0, 2), (0, 3), (3, 4)])
    colouring = EdgeColouring(g, (1, 2, 3, 1))
    emb = find_rainbow_copy(g, colouring, K13)
    assert emb is not None
    assert len(set(emb.vertices)) == 4


def test_injectively_coloured_path_is_its_own_rainbow_copy():
    p5 = P5.graph
    colouring = EdgeColouring(p5, (1, 2, 3, 4))
    emb = find_rainbow_copy(p5, colouring, P5)
    assert emb is not None
    assert sorted(emb.vertices) == [0, 1, 2, 3, 4]


def test_rainbow_copy_none_when_pattern_larger_than_host():
    g = build_graph(3, [(0, 1), (1, 2)])
    assert find_rainbow_copy(g, EdgeColouring(g, (1, 2)), P4) is None


def test_contains_copy_examples():
    assert contains_copy(P5.graph, P4) is not None
    assert contains_copy(PatternSpec.star(5).graph, P4) is None
    assert contains_copy(PatternSpec.broom(4, 2).graph, P5) is not None


def test_contains_copy_deterministic():
    g = build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)])
    assert contains_copy(g, P4) == contains_copy(g, P4)


def test_embedding_edge_image_is_in_host():
    g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    emb = contains_copy(g, P4)
    for e in emb.edge_image:
        assert has_edge(g, *e)


def brute_force_copies(g, colours, spec):
    """Image edge sets of every copy of the pattern in g, by trying every
    injective vertex map.  With `colours` (edge -> colour) only rainbow
    copies count."""
    h = spec.graph
    edges = set(g.edges)
    out = []
    for phi in itertools.permutations(range(g.n), h.n):
        image = [(min(phi[a], phi[b]), max(phi[a], phi[b])) for a, b in h.edges]
        if not all(e in edges for e in image):
            continue
        if colours is not None and len({colours[e] for e in image}) < len(image):
            continue
        out.append(set(image))
    return out


def sample_colourings(g):
    """Proper and improper colourings of g, as edge -> colour maps."""
    m = len(g.edges)
    proper = {}
    for e in g.edges:  # greedy: least colour unused at both endpoints
        taken = {c for f, c in proper.items() if set(e) & set(f)}
        proper[e] = min(c for c in range(1, m + 2) if c not in taken)
    return [
        proper,
        {e: i + 1 for i, e in enumerate(g.edges)},  # injective
        {e: 1 for e in g.edges},  # monochromatic
        {e: (i % 2) + 1 for i, e in enumerate(g.edges)},
        {(u, v): (u + v) % 3 + 1 for u, v in g.edges},
    ]


def assert_valid_copy(g, spec, emb, colours):
    h = spec.graph
    assert len(set(emb.vertices)) == h.n
    want = tuple((min(emb.vertices[a], emb.vertices[b]), max(emb.vertices[a], emb.vertices[b]))
                 for a, b in h.edges)
    assert emb.edge_image == want
    assert all(has_edge(g, *e) for e in want)
    if colours is not None:
        assert len({colours[e] for e in want}) == len(want)


def test_matcher_agrees_with_brute_force_on_all_small_graphs():
    for n in range(6):
        for g in all_graphs_on(n):
            for spec in MATCHER_PATTERNS:
                copies = brute_force_copies(g, None, spec)
                emb = contains_copy(g, spec)
                assert (emb is not None) == bool(copies)
                if emb is not None:
                    assert_valid_copy(g, spec, emb, None)
                matcher = _matcher_for(spec)
                for colours in sample_colourings(g):
                    rainbow = [c for c in copies if len({colours[e] for e in c}) == len(c)]
                    emb = find_rainbow_copy(g, EdgeColouring.from_map(g, colours), spec)
                    assert (emb is not None) == bool(rainbow)
                    if emb is not None:
                        assert_valid_copy(g, spec, emb, colours)
                    adj = [[] for _ in range(n)]
                    for (u, v), c in colours.items():
                        adj[u].append((v, c))
                        adj[v].append((u, c))
                    masks = {e: set() for e in g.edges}  # colour sets of copies through e
                    for copy in rainbow:
                        mask = sum(1 << colours[e] for e in copy)
                        for e in copy:
                            masks[e].add(mask)
                    for u, v in g.edges:
                        want = bool(masks[(u, v)])
                        c = colours[(u, v)]
                        for a, b in ((u, v), (v, u)):
                            got = matcher.exists_through(a, b, c, adj)
                            assert (got is not None) == want
                            assert got is None or got in masks[(u, v)]


# the compiled plans' degree guards act on partial colourings; these patterns
# mix degrees 1 to 4 at the anchors and inside the plans
WALK_PATTERNS = [parse_pattern(t) for t in
                 ("P6", "K1,4", "B4,2", "S3,2", "T5star", "cat:ell=3;leaves=2,0,1")]


@st.composite
def walk_prefixes(draw):
    """A graph with n <= 8 and a proper colouring (edge -> colour) of a
    prefix of its search order, each colour an old one free at both ends
    or the next new one, as the colouring search assigns them."""
    g = draw(small_graphs(max_n=8))
    order = [g.edges[j] for j in bfs_edge_order(g)]
    colours = {}
    at = [set() for _ in range(g.n)]
    top = 0
    for u, v in order[:draw(st.integers(0, len(order)))]:
        free = [c for c in range(1, top + 2) if c not in at[u] and c not in at[v]]
        c = free[draw(st.integers(0, len(free) - 1))]
        colours[(u, v)] = c
        at[u].add(c)
        at[v].add(c)
        top = max(top, c)
    return g, colours


def rainbow_copy_masks(n, colours, spec):
    """For each coloured edge, the colour-set bitmasks of the rainbow copies
    of the pattern through it among the coloured edges, by trying every
    injective map of the pattern vertices, in index order, that sends
    pattern edges to coloured edges."""
    h = spec.graph
    earlier = [[a for a in h.neighbours(b) if a < b] for b in range(h.n)]
    masks = {e: set() for e in colours}
    phi = []

    def place(b):
        if b == h.n:
            image = [normalise_edge(phi[a], phi[c]) for a, c in h.edges]
            used = {colours[e] for e in image}
            if len(used) == len(image):
                for e in image:
                    masks[e].add(sum(1 << c for c in used))
            return
        for x in range(n):
            if x not in phi and all(normalise_edge(phi[a], x) in colours for a in earlier[b]):
                phi.append(x)
                place(b + 1)
                phi.pop()

    place(0)
    return masks


@seed(20240)
@given(walk_prefixes())
@settings(max_examples=150, deadline=None)
def test_matcher_agrees_with_brute_force_on_walk_prefixes(case):
    g, colours = case
    n = g.n
    adj = [[] for _ in range(n)]
    for (u, v), c in colours.items():
        adj[u].append((v, c))
        adj[v].append((u, c))
    for spec in WALK_PATTERNS:
        matcher = _matcher_for(spec)
        masks = rainbow_copy_masks(n, colours, spec)
        for (u, v), c in colours.items():
            for a, b in ((u, v), (v, u)):
                got = matcher.exists_through(a, b, c, adj)
                assert (got is not None) == bool(masks[(u, v)]), (g, colours, spec, a, b)
                assert got is None or got in masks[(u, v)], (g, colours, spec, a, b)


def test_brute_force_matcher_sees_rainbow_condition():
    # guards the oracle itself: K4 matching-coloured has P4 copies, none rainbow
    colours = dict(zip(K4.edges, K4_MATCHINGS.colours))
    assert brute_force_copies(K4, None, P4)
    assert brute_force_copies(K4, colours, P4) == []


def test_contains_copy_scan_order_is_pinned():
    # the first embedding in the fixed scan order, as the recursive matcher
    # found it; a change here changes certificates and census witnesses
    pins = [
        (PETERSEN, P4, (0, 1, 2, 3)),
        (PETERSEN, PatternSpec.subdivided_star(5), (0, 1, 4, 5, 7)),
        (PETERSEN, P6, (0, 1, 2, 3, 4, 9)),
        (C6_CHORD, K13, (1, 0, 2, 4)),
        (C6_CHORD, PatternSpec.subdivided_star(5), (1, 0, 2, 4, 3)),
        (SPLIT, P4, (0, 3, 4, 2)),
        (SPLIT, P6, (0, 3, 6, 5, 4, 2)),
        (SPLIT, TWO_K2, (0, 3, 2, 4)),
        (SPLIT, TRIANGLE, (3, 4, 6)),
        (K4, TRIANGLE, (0, 1, 2)),
    ]
    for g, spec, vertices in pins:
        assert contains_copy(g, spec).vertices == vertices
    assert contains_copy(PETERSEN, TRIANGLE) is None


def test_find_rainbow_copy_scan_order_is_pinned():
    pins = [
        (PETERSEN, P4, (0, 4, 9, 7)),
        (K4, P4, (0, 1, 3, 2)),
        (K4, TRIANGLE, (0, 1, 3)),
        (SPLIT, P4, (1, 3, 4, 2)),
        (SPLIT, TRIANGLE, (4, 5, 6)),
    ]
    for g, spec, vertices in pins:
        colouring = EdgeColouring(g, tuple(i % 3 + 1 for i in range(len(g.edges))))
        assert find_rainbow_copy(g, colouring, spec).vertices == vertices


def _reference_plan(pattern, seed):
    """The placement plan as the matcher first made it: every step scans
    every unplaced vertex and its neighbours."""
    placed = list(seed)
    placed_set = set(seed)
    steps = []
    while len(placed) < pattern.n:
        cands = []
        for x in range(pattern.n):
            if x in placed_set:
                continue
            anchors = [y for y in pattern.neighbours(x) if y in placed_set]
            if anchors:
                cands.append((len(anchors), x, anchors))
        if cands:
            cands.sort(key=lambda it: (-it[0], it[1]))
            _, x, anchors = cands[0]
            steps.append((x, anchors[0], tuple(anchors[1:])))
        else:
            x = min(v for v in range(pattern.n) if v not in placed_set)
            steps.append((x, None, ()))
        placed.append(x)
        placed_set.add(x)
    return tuple(steps)


def test_plans_match_the_reference_planner():
    # the planner counts placed neighbours as it goes; its plans are those
    # of the planner that rescanned every vertex at each step
    patterns = [*enumerate_trees(8), *(PatternSpec.path(k).graph for k in range(2, 12)),
                *(parse_pattern(t).graph for t in ("K1,4", "B4,2", "S3,2", "T5star",
                                                    "cat:ell=4;leaves=1,0,0,1", "g6:DeK")),
                *(spec.graph for spec in MATCHER_PATTERNS)]
    plans = 0
    for pattern in patterns:
        host = SimpleNamespace(pattern=pattern, k=pattern.n)
        for seed in ((), *((a, b) for e in pattern.edges for a, b in (e, e[::-1]))):
            assert engine._Matcher._plan(host, seed) == _reference_plan(pattern, seed), (
                pattern.edges, seed)
            plans += 1
    assert plans == 587


def test_deep_pattern_plans_split_across_functions():
    # more pattern vertices than one generated function may nest loops for
    path = build_graph(25, [(i, i + 1) for i in range(24)])
    assert contains_copy(path, PatternSpec.path(20)).vertices == tuple(range(20))
    assert contains_copy(path, PatternSpec.path(26)) is None
    matching = PatternSpec.explicit([(2 * i, 2 * i + 1) for i in range(12)])
    assert contains_copy(path, matching).vertices == tuple(range(24))
    colouring = EdgeColouring(path, tuple(range(1, 25)))
    assert find_rainbow_copy(path, colouring, PatternSpec.path(25)) is not None
    assert find_rainbow_copy(path, EdgeColouring(path, (1,) * 24), PatternSpec.path(20)) is None
    # the uncoloured anchored plans split the same way (saturation steps)
    p20 = PatternSpec.path(20)
    near_complete = build_graph(20, [e for e in itertools.combinations(range(20), 2)
                                     if e != (0, 19)])
    assert is_semi_saturated(near_complete, p20).status is Status.ESTABLISHED
    assert is_saturated(near_complete, p20).status is Status.REFUTED
    gapped = build_graph(20, [(i, i + 1) for i in range(19) if i != 9])
    assert is_semi_saturated(gapped, p20).status is Status.REFUTED
    assert is_semi_saturated(gapped, p20, non_edges=gapped.non_edges()).certificate != (9, 10)
    # the edge that closes a cycle of 20 is placed in a helper function
    c20 = PatternSpec.explicit([(i, (i + 1) % 20) for i in range(20)])
    cycle = build_graph(20, [(i, (i + 1) % 20) for i in range(20)])
    path20 = build_graph(20, [(i, i + 1) for i in range(19)])
    assert contains_copy(cycle, c20) is not None
    assert contains_copy(path20, c20) is None
    assert find_rainbow_copy(cycle, EdgeColouring(cycle, tuple(range(1, 21))), c20) is not None
    assert find_rainbow_copy(cycle, EdgeColouring(cycle, (1,) * 20), c20) is None
    assert is_semi_saturated(path20, c20, non_edges=[(0, 19)]).status is Status.ESTABLISHED
    assert is_semi_saturated(path20, c20, non_edges=[(0, 18)]).certificate == (0, 18)


@pytest.mark.parametrize("decide", [is_saturated, is_semi_saturated])
def test_sat_verdicts_on_an_empty_host_keep_no_quadratic_table(decide):
    # no n x n table and no stored list of non-edges: 600 vertices, 179,700 non-edges
    p3 = PatternSpec.path(3)
    _matcher_for(p3)
    tracemalloc.start()
    try:
        verdict = decide(Graph(600, ()), p3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.status is Status.REFUTED and verdict.certificate == (0, 1)
    assert peak < 2**20


def reference_bfs_edge_order(g):
    """`bfs_edge_order` as first written: a deque, a position dict and a
    (max, min) sort key."""
    n = g.n
    if n == 0:
        return ()
    seen = [False] * n
    bfs = []
    for start in sorted(range(n), key=lambda x: (-g.degree(x), x)):
        if seen[start]:
            continue
        seen[start] = True
        queue = deque([start])
        while queue:
            u = queue.popleft()
            bfs.append(u)
            for w in g.neighbours(u):
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
    pos = {v: i for i, v in enumerate(bfs)}
    return tuple(sorted(
        g.edges, key=lambda e: (max(pos[e[0]], pos[e[1]]), min(pos[e[0]], pos[e[1]]))))


def test_bfs_edge_order_keeps_its_order():
    graphs = [g for n in range(1, 8) for g in enumerate_graphs(n)]
    host = caterpillar_construction(28, 6, 4)
    graphs += [host] + [host.add_edge(*e) for e in non_edge_orbit_representatives(host)]
    assert len(graphs) == 1 + 2 + 4 + 11 + 34 + 156 + 1044 + 4
    for g in graphs:
        assert tuple(g.edges[j] for j in bfs_edge_order(g)) == reference_bfs_edge_order(g), g


# -- search_rainbow_free_colouring ----------------------------------------------


def test_k4_admits_matching_colouring():
    verdict = search_rainbow_free_colouring(K4, P4, 10**6)
    assert_certificate_sound(K4, P4, verdict)
    assert partition(verdict.certificate) == partition(K4_MATCHINGS)


def test_p4_rainbow_free_by_repeating_end_edges():
    g = P4.graph
    verdict = search_rainbow_free_colouring(g, P4, 10**6)
    assert_certificate_sound(g, P4, verdict)
    assert colour_of(verdict.certificate, 0, 1) == colour_of(verdict.certificate, 2, 3)


def test_vacuous_when_host_smaller_than_pattern():
    g = build_graph(3, [(0, 1), (1, 2)])
    verdict = search_rainbow_free_colouring(g, P4, 10**6)
    assert_certificate_sound(g, P4, verdict)


def test_budget_exhaustion_reports_unknown():
    verdict = search_rainbow_free_colouring(K4, P4, 2)
    assert verdict.status is Status.UNKNOWN
    assert verdict.nodes_explored == verdict.budget == 2


def test_established_whenever_search_finishes_is_checked():
    for g in all_graphs_on(4):
        verdict = search_rainbow_free_colouring(g, P4, 10**6)
        if verdict.status is Status.ESTABLISHED:
            assert_certificate_sound(g, P4, verdict)


# -- forces_rainbow ---------------------------------------------------------------


def test_star_forces_rainbow_star():
    g = K13.graph
    assert forces_rainbow(g, K13, 10**6).status is Status.ESTABLISHED


def test_k4_does_not_force_rainbow_p4():
    verdict = forces_rainbow(K4, P4, 10**6)
    assert verdict.status is Status.REFUTED
    assert partition(verdict.certificate) == partition(K4_MATCHINGS)


def test_path_does_not_force_itself():
    g = P6.graph
    verdict = forces_rainbow(g, P6, 10**6)
    assert verdict.status is Status.REFUTED
    assert verdict.certificate.colour_count < 5


# -- forcing on twin-trimmed subgraphs ---------------------------------------------

FORCING_PATTERNS = tuple(parse_pattern(t) for t in ("P4", "P5", "K1,3", "T5star"))


def plus_one_edge(n):
    """g + e for every class g on n vertices and every non-edge e of g."""
    for g in enumerate_graphs(n):
        for e in g.non_edges():
            yield g.add_edge(*e)


def assert_forcing_matches_brute_force(orders):
    # up to isomorphism, the graphs g + e are the classes with an edge
    for n in orders:
        for h in (h for h in enumerate_graphs(n) if h.edges):
            for spec in FORCING_PATTERNS:
                want = Status.REFUTED if brute_force_rainbow_free(h, spec) else Status.ESTABLISHED
                assert forces_rainbow(h, spec, None).status is want, (h, spec)


def test_forcing_matches_brute_force():
    assert_forcing_matches_brute_force(range(1, 6))


@pytest.mark.slow
def test_forcing_matches_brute_force_at_6():
    assert_forcing_matches_brute_force([6])


def test_forcing_keeps_the_verdict_and_certificate_of_the_untrimmed_walk():
    for n in range(1, 7):
        for h in plus_one_edge(n):
            for spec in FORCING_PATTERNS:
                got = forces_rainbow(h, spec, None)
                walk = search_rainbow_free_colouring(h, spec, None)
                if walk.status is Status.ESTABLISHED:
                    assert got.status is Status.REFUTED, (h, spec)
                    assert got.certificate == walk.certificate, (h, spec)
                    assert got.nodes_explored >= walk.nodes_explored
                else:
                    assert (got.status, got.certificate) == (Status.ESTABLISHED, None), (h, spec)


def test_twin_trims_keep_a_doubling_number_of_each_twin_class():
    # leaves 1-5 of centre 0 are open twins, the triangle 8, 9, 10 closed
    # twins; 6 and 7 have no twin
    g = build_graph(11, [(0, v) for v in range(1, 7)] + [(6, 7), (8, 9), (8, 10), (9, 10)])
    trims = list(engine._twin_trims(g))
    assert [(t.n, len(t.edges)) for t in trims] == [(5, 3), (7, 5), (10, 9), (11, 10)]
    assert trims[0].edges == ((0, 1), (0, 2), (2, 3))  # 0, 1, 6, 7, 8 renumbered
    assert trims[-1] is g
    assert list(engine._twin_trims(P4.graph)) == [P4.graph]


def test_unknown_forcing_sums_the_nodes_of_every_walk():
    host = caterpillar_construction(28, 6, 4)
    spec = parse_pattern("cat:ell=4;leaves=1,0,0,1")
    h = host.add_edge(0, 5)
    verdict = forces_rainbow(h, spec, 10)
    assert (verdict.status, verdict.certificate) == (Status.UNKNOWN, None)
    walks = [search_rainbow_free_colouring(t, spec, 10) for t in engine._twin_trims(h)]
    assert verdict.nodes_explored == sum(w.nodes_explored for w in walks) > 10


def test_trimmed_forcing_decides_the_caterpillar_hosts_28_to_60():
    # Walking each step on the whole host leaves n = 34 Unknown after
    # 2,246,488 nodes.  That walk still closes the step on (4, 8) at
    # n = 28, by its backjumps.
    spec = parse_pattern("cat:ell=4;leaves=1,0,0,1")
    for n in range(28, 61):
        verdict = is_properly_rainbow_saturated(caterpillar_construction(n, 6, 4), spec, 10**6)
        assert verdict.status is Status.ESTABLISHED, n
        assert verdict.nodes_explored <= 12_000, n
    step = caterpillar_construction(28, 6, 4).add_edge(4, 8)
    assert search_rainbow_free_colouring(step, spec, 2_000).status is Status.REFUTED


# -- saturation checks --------------------------------------------------------------


def test_two_stars_saturated_for_double_star():
    assert is_saturated(two_stars(4), PatternSpec.double_star(2, 1)).status is Status.ESTABLISHED


def test_two_stars_saturated_for_subdivided_star():
    assert is_saturated(two_stars(4), PatternSpec.subdivided_star(5)).status is Status.ESTABLISHED


def test_complete_graph_never_saturated_for_contained_tree():
    for k in (4, 5):
        kn = build_graph(k, list(itertools.combinations(range(k), 2)))
        res = is_saturated(kn, P4)
        assert res.status is Status.REFUTED
        assert res.certificate is not None  # the embedding


def test_saturated_implies_semi_saturated():
    g = two_stars(4)
    assert is_semi_saturated(g, PatternSpec.double_star(2, 1)).status is Status.ESTABLISHED


def test_complete_graph_vacuously_semi_saturated():
    k5 = build_graph(5, list(itertools.combinations(range(5), 2)))
    assert is_semi_saturated(k5, P4).status is Status.ESTABLISHED


def test_two_disjoint_edges_semi_saturated_for_p4():
    g = build_graph(4, [(0, 1), (2, 3)])
    assert is_semi_saturated(g, P4).status is Status.ESTABLISHED
    # every non-edge is a cross edge and creates a path, so g is saturated too
    assert is_saturated(g, P4).status is Status.ESTABLISHED


def test_saturation_witness_is_checkable():
    g = build_graph(5, [(0, 1), (1, 2)])  # P3 plus two isolated vertices
    res = is_saturated(g, P4)
    assert res.status is Status.REFUTED
    assert not hasattr(res.certificate, "vertices")
    u, v = res.certificate
    assert contains_copy(g.add_edge(u, v), P4) is None


def test_pattern_elsewhere_does_not_make_semi_saturated():
    # K1,3 plus an isolated vertex contains K1,3, but joining two leaves (or
    # the isolated vertex to a leaf) makes no copy through the new edge
    g = build_graph(5, [(0, 1), (0, 2), (0, 3)])
    res = is_semi_saturated(g, K13)
    assert res.status is Status.REFUTED
    assert res.certificate in g.non_edges() and 0 not in res.certificate


def test_first_non_edge_refutes_before_any_labelling(monkeypatch):
    labelled = []  # orders of the graphs labelled
    real = canon.labelling
    monkeypatch.setattr(canon, "labelling", lambda h: labelled.append(h.n) or real(h))
    p3 = PatternSpec.path(3)
    for check in (is_semi_saturated, is_saturated):
        res = check(Graph(300, ()), p3)
        assert res.status is Status.REFUTED and res.certificate == (0, 1)
    assert 300 not in labelled
    # every non-edge is asked in turn, so g is not labelled even after the
    # first non-edge, (0, 2), passes
    assert is_semi_saturated(Graph(5, ((0, 1),)), p3).certificate == (2, 3)
    assert 5 not in labelled


def test_first_non_edge_first_keeps_the_orbit_verdicts():
    for spec in (parse_pattern(t) for t in ("P3", "P4", "P5", "K1,3", "T5star", "S3,2")):
        for n in range(1, 7):
            for g in enumerate_graphs(n):
                reps = non_edge_orbit_representatives(g)
                for check in (is_semi_saturated, is_saturated):
                    assert check(g, spec) == check(g, spec, non_edges=reps), (g, spec)


def brute_force_saturation(g, spec):
    """(saturated, semi-saturated), by trying every injective vertex map of
    the pattern: a map whose image misses exactly one pair e of g is a copy
    in g + e through e, and one that misses none is a copy in g."""
    h = spec.graph
    edges = set(g.edges)
    free = True
    through = set()
    for phi in itertools.permutations(range(g.n), h.n):
        missing = {(min(phi[a], phi[b]), max(phi[a], phi[b])) for a, b in h.edges} - edges
        if not missing:
            free = False
        elif len(missing) == 1:
            through |= missing
    semi = all(e in through for e in g.non_edges())
    return free and semi, semi


def test_saturation_verdicts_match_brute_force():
    graphs = [g for n in range(6) for g in all_graphs_on(n)] + list(enumerate_graphs(6))
    for spec in (P4, K13, PatternSpec.subdivided_star(5)):
        for g in graphs:
            got = tuple(check(g, spec).status is Status.ESTABLISHED
                        for check in (is_saturated, is_semi_saturated))
            assert got == brute_force_saturation(g, spec), (g, spec)


def brute_force_rainbow_free(g, spec):
    """Whether g has a proper edge colouring with no rainbow copy of the
    pattern.

    Colourings are walked as restricted-growth strings over the edge list
    (edge i takes a colour of an earlier edge or the next new one), each
    colour checked against the adjacent earlier edges.  The copies are those
    of `brute_force_copies`; a branch stops as soon as the last edge of some
    copy gives it all distinct colours.
    """
    index = {e: i for i, e in enumerate(g.edges)}
    ending = [set() for _ in g.edges]  # copies as edge indices, by their last edge
    for image in brute_force_copies(g, None, spec):
        copy = tuple(sorted(index[e] for e in image))
        ending[copy[-1]].add(copy)
    adjacent = [[j for j in range(i) if set(g.edges[i]) & set(g.edges[j])]
                for i in range(len(g.edges))]
    colour = [0] * len(g.edges)

    def walk(i, used):
        if i == len(g.edges):
            return True
        for c in range(used + 1):
            if any(colour[j] == c for j in adjacent[i]):
                continue
            colour[i] = c
            if any(len({colour[j] for j in copy}) == len(copy) for copy in ending[i]):
                continue
            if walk(i + 1, max(used, c + 1)):
                return True
        return False

    return walk(0, 0)


def brute_force_prsat(g, spec):
    """(status, failed at the base) of prsat: Established when g has a
    rainbow-free proper colouring and, for every non-edge e (all of them,
    not one per orbit), no proper colouring of g + e has one."""
    if not brute_force_rainbow_free(g, spec):
        return Status.REFUTED, True
    if any(brute_force_rainbow_free(g.add_edge(*e), spec) for e in g.non_edges()):
        return Status.REFUTED, False
    return Status.ESTABLISHED, False


def step_outcome(verdict):
    """(status, failed at the base) of a per-step prsat verdict: it fails
    at the base exactly when it is Refuted with no certificate."""
    return verdict.status, verdict.status is Status.REFUTED and verdict.certificate is None


PRSAT_BRUTE_PATTERNS = (PatternSpec.path(3), P4, P5, K13, PatternSpec.star(4),
                        PatternSpec.subdivided_star(5), parse_pattern("g6:Bw"))


def assert_class_verdicts_match_brute_force(n):
    for level in _augmented_levels(n):
        for g, non_edges in level:
            for spec in PRSAT_BRUTE_PATTERNS:
                want = brute_force_prsat(g, spec)
                verdict = is_properly_rainbow_saturated(g, spec, 10**7)
                assert step_outcome(verdict) == want, (g, spec)
                got = _class_verdict(g, non_edges, spec, "prsat", 10**7)
                assert (got.status, got.base_failed) == want, (g, spec)


def test_prsat_verdicts_match_brute_force():
    for n in range(1, 5):
        for g in all_graphs_on(n):
            for spec in PRSAT_BRUTE_PATTERNS:
                want = brute_force_prsat(g, spec)
                verdict = is_properly_rainbow_saturated(g, spec, 10**7)
                assert step_outcome(verdict) == want, (g, spec)
    for n in range(1, 6):
        assert_class_verdicts_match_brute_force(n)


@pytest.mark.slow
def test_prsat_verdicts_match_brute_force_at_6():
    assert_class_verdicts_match_brute_force(6)


# -- the census verdict: one walk decides the base and every step ---------------------

# No star: the matcher alone decides those, in both verdicts (see
# test_star_pattern_collapse_to_classical_saturation).
ONE_WALK_PATTERNS = (P4, P5, P6, PatternSpec.subdivided_star(5))


def plain_walk_nodes(g, spec, complete):
    """The nodes of an unbudgeted walk over the rainbow-free colourings of
    g with no twin sorting: to its end, or to its first colouring when g is
    complete."""
    search = ColouringSearch(g, spec)
    for _ in search.run():
        if complete:
            break
    return search.nodes_explored


def assert_one_walk_matches_the_step_walks(orders, whole_walks=True):
    """The census's verdict has the status and base failure of the step
    walks on every class of the given orders.  With `whole_walks`, a walk
    that no step cut short reads the nodes of the whole walk."""
    for n in orders:
        for level in _augmented_levels(n):
            for g, non_edges in level:
                for spec in ONE_WALK_PATTERNS:
                    want = is_properly_rainbow_saturated(g, spec, 10**7)
                    got = prsat_outcome(g, spec, 10**7, non_edges)
                    assert (got.status, got.base_failed) == step_outcome(want), (g, spec)
                    if not whole_walks:
                        continue
                    nodes = plain_walk_nodes(g, spec, not non_edges)
                    if got.status is Status.REFUTED and not got.base_failed:
                        assert got.nodes <= nodes, (g, spec)
                    else:
                        assert got.nodes == nodes, (g, spec)


def test_one_walk_matches_the_step_walks():
    assert_one_walk_matches_the_step_walks(range(1, 7))


@pytest.mark.slow
def test_one_walk_matches_the_step_walks_at_7():
    # Only from this order on does a walk that kept the colours outside a
    # copy's colour set, rather than those in it, go wrong (on three P5 and
    # four P6 classes).  Whole walks are left to the orders below: here
    # they would add 2 s.
    assert_one_walk_matches_the_step_walks([7], whole_walks=False)


def test_one_walk_on_edgeless_graphs():
    # the walk yields the empty colouring before it has coloured anything
    assert prsat_outcome(Graph(4, ()), P4, 10**6) == (Status.REFUTED, 0, False)
    k2 = PatternSpec.path(2)
    for g in (Graph(1, ()), Graph(3, ())):
        assert prsat_outcome(g, k2, 10**6) == (Status.ESTABLISHED, 0, False)


def test_one_walk_stops_at_the_first_colouring_of_a_complete_graph():
    for spec in (P4, P5):
        nodes = search_rainbow_free_colouring(K4, spec).nodes_explored
        assert prsat_outcome(K4, spec, 10**6) == (Status.ESTABLISHED, nodes, False)


def test_one_walk_in_the_degenerate_regime():
    k3 = build_graph(3, [(0, 1), (0, 2), (1, 2)])
    assert prsat_outcome(k3, P4, 10**6).status is Status.ESTABLISHED
    p3 = build_graph(3, [(0, 1), (1, 2)])
    verdict = prsat_outcome(p3, P4, 10**6)
    assert (verdict.status, verdict.base_failed) == (Status.REFUTED, False)


def test_one_walk_budget_bounds_the_whole_walk():
    g = two_stars(4)
    full = prsat_outcome(g, P4, None)
    assert full.status is Status.ESTABLISHED
    assert prsat_outcome(g, P4, full.nodes).status is Status.ESTABLISHED
    cut = prsat_outcome(g, P4, full.nodes - 1)
    assert cut == (Status.UNKNOWN, full.nodes - 1, False)
    assert prsat_outcome(g, P4, 1).status is Status.UNKNOWN


# -- properly rainbow saturated -------------------------------------------------------


def test_two_stars_properly_rainbow_saturated_for_p4():
    verdict = is_properly_rainbow_saturated(two_stars(4), P4, 10**7)
    assert verdict.status is Status.ESTABLISHED
    assert_certificate_sound(two_stars(4), P4, verdict)


def test_k4_properly_rainbow_saturated_for_p4():
    verdict = is_properly_rainbow_saturated(K4, P4, 10**7)
    assert verdict.status is Status.ESTABLISHED


def test_trees_refuted_for_p6():
    tree = PatternSpec.broom(4, 2).graph  # 6-vertex tree
    verdict = is_properly_rainbow_saturated(tree, P6, 10**7)
    assert verdict.status is Status.REFUTED
    assert_extension_sound(tree, P6, verdict.certificate)


def test_degenerate_regime_note_and_literal_reading():
    # hosts smaller than the pattern qualify only when complete
    k3 = build_graph(3, [(0, 1), (0, 2), (1, 2)])
    verdict = is_properly_rainbow_saturated(k3, P4, 10**6)
    assert verdict.status is Status.ESTABLISHED
    assert verdict.note == "degenerate regime"
    p3 = build_graph(3, [(0, 1), (1, 2)])
    verdict = is_properly_rainbow_saturated(p3, P4, 10**6)
    assert verdict.status is Status.REFUTED
    assert verdict.note == "degenerate regime"


def test_unknown_propagates_from_subsearches():
    verdict = is_properly_rainbow_saturated(two_stars(4), P4, 1)
    assert verdict.status is Status.UNKNOWN


def test_orbit_reduction_is_conservative():
    specs = [P4, K13]
    for n in range(2, 6):
        for g in all_graphs_on(n):
            for spec in specs:
                with_orbits = is_properly_rainbow_saturated(g, spec, 10**6)
                without = prsat_outcome(g, spec, 10**6, non_edges=g.non_edges())
                assert (without.status, without.base_failed) == step_outcome(with_orbits)
                if spec is K13:
                    assert without.nodes == 0
                elif without.status is not Status.REFUTED or without.base_failed:
                    # a whole walk, whichever non-edges it offers
                    assert without.nodes == prsat_outcome(g, spec, 10**6).nodes
                assert is_saturated(g, spec).status is is_saturated(
                    g, spec, non_edges=g.non_edges()).status


def test_prsat_established_implies_semi_saturated():
    for n in range(2, 6):
        for g in all_graphs_on(n):
            verdict = is_properly_rainbow_saturated(g, P4, 10**6)
            if verdict.status is Status.ESTABLISHED:
                assert is_semi_saturated(g, P4).status is Status.ESTABLISHED


def walked_prsat(g, spec):
    """(status, certificate of `is_properly_rainbow_saturated`) from the
    walks that no verdict rule touches: the base walk, then
    `forces_rainbow` on every non-edge in order."""
    base = search_rainbow_free_colouring(g, spec, None)
    if base.status is Status.REFUTED:
        return Status.REFUTED, None
    for e in g.non_edges():
        step = forces_rainbow(g.add_edge(*e), spec, None)
        if step.status is Status.REFUTED:
            return Status.REFUTED, NonEdgeWitness(e, step.certificate)
    return Status.ESTABLISHED, base.certificate


def test_star_pattern_collapse_to_classical_saturation():
    # Every two edges of these patterns share a vertex, so the rainbow
    # conditions add nothing: the walks agree with classical saturation.
    # Both verdicts take the sat verdict with no walk; on every class up to
    # order 7 the per-step verdict must still give the status and
    # certificate of the walks, and the census's the status and base
    # failure of the walks, in 0 nodes.
    specs = [parse_pattern(t) for t in ("K1,3", "K1,4", "K1,5", "g6:Bw")]
    classes = 0
    for n in range(1, 8):
        for level in _augmented_levels(n, shared=True):
            for g, non_edges in level:
                classes += 1
                for spec in specs:
                    status, step_cert = walked_prsat(g, spec)
                    assert (status is Status.ESTABLISHED) == (
                        is_saturated(g, spec).status is Status.ESTABLISHED), (g, spec)
                    got = is_properly_rainbow_saturated(g, spec, 10**7)
                    assert (got.status, got.certificate, got.nodes_explored) == (
                        status, step_cert, 0), (g, spec)
                    base_failed = status is Status.REFUTED and step_cert is None
                    assert prsat_outcome(g, spec, 10**7, non_edges) == (
                        status, 0, base_failed), (g, spec)
    assert classes == 1252


def test_verdict_serializes():
    verdict = is_properly_rainbow_saturated(two_stars(4), P4, 10**7)
    d = verdict.to_json_dict()
    assert d["status"] == "established"
    assert d["certificate"]["colours"]


def test_deterministic_outputs():
    a = search_rainbow_free_colouring(K4, P4, 10**6)
    b = search_rainbow_free_colouring(K4, P4, 10**6)
    assert a.certificate.colours == b.certificate.colours
    assert a.nodes_explored == b.nodes_explored


def _restricted_growth_strings(m):
    def rec(i, maxu, cur):
        if i == m:
            yield tuple(cur)
            return
        for c in range(1, maxu + 2):
            cur.append(c)
            yield from rec(i + 1, max(maxu, c), cur)
            cur.pop()
    yield from rec(0, 0, [])


@given(small_graphs(max_n=5))
@settings(max_examples=60, deadline=None)
def test_search_matches_restricted_growth_oracle(g):
    # independent route: filter every restricted-growth string through the
    # properness checker and the brute-force rainbow matcher
    for spec in (PatternSpec.path(3), P4, K13):
        want = set()
        for cols in _restricted_growth_strings(len(g.edges)):
            c = EdgeColouring(g, cols)
            if is_proper(g, c) and not brute_force_copies(g, dict(zip(g.edges, cols)), spec):
                want.add(partition(c))
        got = {partition(c) for c in enumerate_rainbow_free_colourings(g, spec)}
        assert got == want


@given(small_graphs(max_n=5))
@settings(max_examples=30, deadline=None)
def test_random_graphs_verdicts_are_consistent(g):
    verdict = is_properly_rainbow_saturated(g, P4, 10**6)
    if verdict.status is Status.ESTABLISHED:
        assert_certificate_sound(g, P4, verdict)
        assert is_semi_saturated(g, P4).status is Status.ESTABLISHED


# -- twin-edge symmetry breaking -------------------------------------------------
#
# The existence search skips colourings whose twin edges are out of order;
# enumeration does not, so its first colouring is the oracle for the search.


def assert_search_matches_enumeration(g, spec):
    first = next(enumerate_rainbow_free_colourings(g, spec), None)
    verdict = search_rainbow_free_colouring(g, spec, None)
    if first is None:
        assert verdict.status is Status.REFUTED
    else:
        assert verdict.status is Status.ESTABLISHED
        assert verdict.certificate.colours == first.colours


def test_twin_sorted_search_matches_enumeration_on_all_classes_up_to_7():
    specs = [parse_pattern(t) for t in ("P3", "P4", "P5", "K1,3", "T5star", "K1,4")]
    pairs = 0
    for n in range(1, 8):
        for g in enumerate_graphs(n):
            for spec in specs:
                assert_search_matches_enumeration(g, spec)
                pairs += 1
    assert pairs == 6 * 1252


@st.composite
def graphs_with_pendant_twins(draw):
    """A core of at most 5 vertices with 0-3 leaves on each core vertex,
    perhaps two leaves joined, vertices shuffled."""
    core = draw(small_graphs(min_n=1, max_n=5))
    edges = list(core.edges)
    leaves = []
    for v in range(core.n):
        for _ in range(draw(st.integers(0, 3))):
            leaves.append(core.n + len(leaves))
            edges.append((v, leaves[-1]))
    if len(leaves) >= 2 and draw(st.booleans()):
        a, b = draw(st.lists(st.sampled_from(leaves), min_size=2, max_size=2, unique=True))
        edges.append((a, b))
    n = core.n + len(leaves)
    perm = draw(st.permutations(range(n)))
    return build_graph(n, [(perm[u], perm[v]) for u, v in edges])


# Node budget of both walks on a drawn graph: an unbounded walk of a graph
# with many leaves took over a minute on one draw.
PENDANT_TWIN_BUDGET = 200_000


def unsorted_first_colouring(g, spec, budget):
    """(decided, first): whether the walk without twin sorting ends or
    yields within `budget` nodes, and the first rainbow-free colouring it
    yields (None if there is none)."""
    search = ColouringSearch(g, spec, budget)
    first = next(search.run(), None)
    return first is not None or search.exhausted, first


@given(graphs_with_pendant_twins(), st.sampled_from(["P4", "P5", "P6", "K1,3"]),
       st.integers(0, 10**6))
@settings(max_examples=100, deadline=None)
def test_twin_sorted_search_matches_enumeration_on_pendant_twins(g, token, pick):
    # The twin-sorted walk visits a subsequence of the unsorted walk's
    # nodes, so whenever the unsorted walk decides within the budget, the
    # sorted one decides within it too, and the two must agree.
    spec = parse_pattern(token)
    decided, first = unsorted_first_colouring(g, spec, PENDANT_TWIN_BUDGET)
    if decided:
        verdict = search_rainbow_free_colouring(g, spec, PENDANT_TWIN_BUDGET)
        if first is None:
            assert verdict.status is Status.REFUTED
        else:
            assert verdict.status is Status.ESTABLISHED
            assert verdict.certificate.colours == first
    non_edges = list(g.non_edges())
    if non_edges:
        h = g.add_edge(*non_edges[pick % len(non_edges)])
        decided, first = unsorted_first_colouring(h, spec, PENDANT_TWIN_BUDGET)
        if decided:
            verdict = forces_rainbow(h, spec, PENDANT_TWIN_BUDGET)
            if first is None:
                assert verdict.status is Status.ESTABLISHED
            else:
                assert verdict.status is Status.REFUTED
                assert verdict.certificate.colours == first


def test_count_keeps_colourings_that_differ_by_a_twin_swap():
    # centres 0 and 1 joined, leaves 2, 3 on 0 and 4, 5 on 1: the edges to
    # the leaves of 1 take (2,3), (3,2), (2,4), (4,2), (3,4), (4,3) or (4,5)
    g = build_graph(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)])
    assert sum(1 for _ in ColouringSearch(g, None).run()) == 7
    everything = list(ColouringSearch(g, None).run())
    assert (1, 2, 3, 2, 3) in everything and (1, 2, 3, 3, 2) in everything
    sorted_twins = list(ColouringSearch(g, None).sort_twins().run())
    assert sorted_twins == [(1, 2, 3, 2, 3), (1, 2, 3, 2, 4), (1, 2, 3, 3, 4), (1, 2, 3, 4, 5)]


def _twin_positions_by_degrees(g, order):
    """`engine._twin_positions` as it read degrees and asked for the edge
    (x, y), kept as a reference: both ends of degree 1, or both of degree 2
    and adjacent."""
    deg = g.degrees()
    twin = [False] * len(order)
    for i in range(1, len(order)):
        (a, b), (c, d) = order[i - 1], order[i]
        if a == c:
            x, y = b, d
        elif b == d:
            x, y = a, c
        elif a == d:
            x, y = b, c
        elif b == c:
            x, y = a, d
        else:
            continue
        k = deg[x]
        twin[i] = k == deg[y] and (k == 1 or k == 2 and has_edge(g, x, y))
    return twin


def test_twin_positions_match_the_degree_rule():
    rng = random.Random(28)
    graphs = [caterpillar_construction(28, 6, 4)]
    for n in range(1, 8):
        for g in enumerate_graphs(n):
            for _ in range(3):
                perm = list(range(n))
                rng.shuffle(perm)
                graphs.append(g.relabel(perm))
    with_twins = 0
    for g in graphs:
        for order in ([g.edges[j] for j in bfs_edge_order(g)], g.edges):
            got = engine._twin_positions(g, order)
            assert got == _twin_positions_by_degrees(g, order), (g, order)
            with_twins += any(got)
    assert with_twins > len(graphs) // 10


def test_a_pattern_larger_than_the_host_compiles_no_matcher(monkeypatch):
    # P2000 has no copy in any graph on 6 vertices: the walk is the walk with
    # no pattern, a non-edge takes the first colour free at both ends, and
    # the first non-edge refutes semi-saturation
    def compiled(spec):
        raise AssertionError(f"a matcher was compiled for {spec.token()}")

    monkeypatch.setattr(engine, "_matcher_for", compiled)
    g = build_graph(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)])
    big = PatternSpec.path(2000)
    search = ColouringSearch(g, big)
    walked = []
    for colours in search.run():
        walked.append(colours)
        # (2, 4) meets the edges (0, 2) and (1, 4), at slots 1 and 3
        assert search.extension(2, 4) == min({1, 2, 3, 4} - {colours[1], colours[3]})
    assert walked == list(ColouringSearch(g, None).run()) and len(walked) == 7
    assert contains_copy(g, big) is None
    assert find_rainbow_copy(g, EdgeColouring(g, walked[0]), big) is None
    assert is_semi_saturated(g, big).certificate == (0, 4)
    assert is_saturated(g, big).certificate == (0, 4)


# -- remembered copies and backjumps -------------------------------------------
#
# `ColouringSearch.run` skips the matcher for a colour that a copy found
# earlier at the same position already makes rainbow, and jumps back over
# positions that a dead end does not rest on.  The loop below is the plain
# chronological search, asking the matcher at every node.  The two must yield
# the same colourings in the same order and end the same way; the real walk
# visits a subset of the reference's nodes, in the same order.


class _AskEveryNode(ColouringSearch):
    def run(self):
        g = self.graph
        order = self._order
        m = len(order)
        if m == 0:
            self.exhausted = True
            yield ()
            return
        matcher = self._matcher
        min_edges = matcher.edge_count if matcher else 0
        budget = self.budget
        out_slot = self._out_slot
        twin = self._twin

        col = [0] * m
        maxu = [0] * (m + 1)
        assigned = [False] * m
        usage = [0] * (m + 2)
        cadj = [[] for _ in range(g.n)]
        ends = [(u, v, (1 << u) | (1 << v)) for u, v in order]

        i = 0
        while i >= 0:
            u, v, uvmask = ends[i]
            if assigned[i]:
                old = col[i]
                usage[old] ^= uvmask
                cadj[u].pop()
                cadj[v].pop()
                assigned[i] = False
            c = col[i] + 1
            limit = maxu[i] + 1
            while c <= limit and usage[c] & uvmask:
                c += 1
            if c > limit:
                col[i] = 0
                i -= 1
                continue
            if budget is not None and self.nodes_explored >= budget:
                return
            self.nodes_explored += 1
            col[i] = c
            usage[c] |= uvmask
            cadj[u].append((v, c))
            cadj[v].append((u, c))
            assigned[i] = True
            if (
                matcher is not None
                and i + 1 >= min_edges
                and matcher.exists_through(u, v, c, cadj) is not None
            ):
                continue
            if i + 1 == m:
                out = [0] * m
                for j in range(m):
                    out[out_slot[j]] = col[j]
                yield tuple(out)
                continue
            maxu[i + 1] = maxu[i] if c <= maxu[i] else c
            i += 1
            if twin[i]:
                col[i] = c
        self.exhausted = True


def assert_walks_like_asking_every_node(g, spec, budget, twins):
    # Within a budget the reference, which visits a superset of the nodes
    # in the same order, may stop first: what it yields is a prefix of what
    # the real walk yields, and an exhausted reference leaves nothing out.
    searches = [cls(g, spec, budget) for cls in (ColouringSearch, _AskEveryNode)]
    if twins:
        for s in searches:
            s.sort_twins()
    got, want = (list(s.run()) for s in searches)
    walk, reference = searches
    assert got[:len(want)] == want, (g, spec, budget, twins)
    assert walk.nodes_explored <= reference.nodes_explored
    if budget is None or reference.exhausted:
        assert got == want, (g, spec, budget, twins)
        assert walk.exhausted and reference.exhausted


def test_remembered_copies_keep_the_walk_on_all_classes_up_to_6():
    specs = [parse_pattern(t) for t in ("P4", "P5", "P6", "K1,3", "T5star")]
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            for spec in specs:
                for twins in (False, True):
                    for budget in (None, 3, 17, 60):
                        assert_walks_like_asking_every_node(g, spec, budget, twins)


def test_remembered_copies_keep_the_walk_on_the_caterpillar_host():
    host = caterpillar_construction(28, 6, 4)
    spec = parse_pattern("cat:ell=4;leaves=1,0,0,1")
    graphs = [host] + [host.add_edge(*e) for e in non_edge_orbit_representatives(host)]
    assert len(graphs) == 4
    for g in graphs:
        assert_walks_like_asking_every_node(g, spec, 20_000, True)


@given(small_graphs(min_n=7, max_n=11),
       st.sampled_from(["P4", "P5", "P6", "K1,3", "T5star", "S3,2"]), st.booleans())
@settings(max_examples=150, deadline=None)
@seed(7411)
# A dead end at the twin position of the adjacent twins 5 and 6 jumps past
# the position of (1, 5) if its conflict set is the ordinary one; a
# recolouring of the positions skipped lets (1, 5) take a smaller colour,
# and then (1, 6) one at or below the old colour of (1, 5), which the twin
# order never offered: that walk yields 49 of the 50 colourings.
@example(from_graph6("HqxAKA?"), "P6", True)
def test_backjumps_keep_the_walk_on_random_graphs(g, token, twins):
    assert_walks_like_asking_every_node(g, parse_pattern(token), 5_000, twins)


def test_backjumps_close_the_caterpillar_forcing_steps():
    # Chronological backtracking left the step on non-edge (4, 8) Unknown
    # after 200,000 nodes: its dead end at one pendant edge rests on none of
    # the pendant edges before it, which it re-coloured again and again.
    host = caterpillar_construction(28, 6, 4)
    spec = parse_pattern("cat:ell=4;leaves=1,0,0,1")
    step = forces_rainbow(host.add_edge(4, 8), spec, 2_000)
    assert step.status is Status.ESTABLISHED
    full = is_properly_rainbow_saturated(host, spec, 20_000)
    assert full.status is Status.ESTABLISHED
    assert full.nodes_explored <= 20_000

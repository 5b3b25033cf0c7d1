import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_graphs_on, small_graphs
from rslab.canon import non_edge_orbit_representatives
from rslab.colouring import EdgeColouring, is_proper
from rslab.constructions import caterpillar_construction
from rslab.engine import (
    ColouringSearch,
    Status,
    _matcher_for,
    contains_copy,
    count_proper_colourings,
    enumerate_rainbow_free_colourings,
    find_rainbow_copy,
    forces_rainbow,
    is_properly_rainbow_saturated,
    is_saturated,
    is_semi_saturated,
    search_rainbow_free_colouring,
)
from rslab.graphs import build_graph, disjoint_union
from rslab.oracle import _augmented_levels, _class_verdict, enumerate_graphs
from rslab.patterns import PatternSpec, parse_pattern, realize_pattern

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
# explicit pattern (unanchored plan steps) and a cyclic one (closing-edge checks)
TWO_K2 = PatternSpec.explicit([(0, 1), (2, 3)])
TRIANGLE = PatternSpec.explicit([(0, 1), (1, 2), (0, 2)])
MATCHER_PATTERNS = (PatternSpec.path(3), P4, K13, PatternSpec.subdivided_star(5),
                    TWO_K2, TRIANGLE)


def two_stars(k):
    s = realize_pattern(PatternSpec.star(k))
    return disjoint_union(s, s)


def assert_certificate_sound(g, spec, verdict):
    assert verdict.status is Status.ESTABLISHED
    cert = verdict.certificate
    assert is_proper(g, cert)
    assert find_rainbow_copy(g, cert, spec) is None


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
    p5 = realize_pattern(P5)
    colouring = EdgeColouring(p5, (1, 2, 3, 4))
    emb = find_rainbow_copy(p5, colouring, P5)
    assert emb is not None
    assert sorted(emb.vertices) == [0, 1, 2, 3, 4]


def test_rainbow_copy_none_when_pattern_larger_than_host():
    g = build_graph(3, [(0, 1), (1, 2)])
    assert find_rainbow_copy(g, EdgeColouring(g, (1, 2)), P4) is None


def test_contains_copy_examples():
    assert contains_copy(realize_pattern(P5), P4) is not None
    assert contains_copy(realize_pattern(PatternSpec.star(5)), P4) is None
    assert contains_copy(realize_pattern(PatternSpec.broom(4, 2)), P5) is not None


def test_contains_copy_deterministic():
    g = build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)])
    assert contains_copy(g, P4) == contains_copy(g, P4)


def test_embedding_edge_image_is_in_host():
    g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    emb = contains_copy(g, P4)
    for e in emb.edge_image:
        assert g.has_edge(*e)


def brute_force_copies(g, colours, spec):
    """Image edge sets of every copy of the pattern in g, by trying every
    injective vertex map.  With `colours` (edge -> colour) only rainbow
    copies count."""
    h = realize_pattern(spec)
    edges = g.edge_set()
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
    h = realize_pattern(spec)
    assert len(set(emb.vertices)) == h.n
    want = tuple((min(emb.vertices[a], emb.vertices[b]), max(emb.vertices[a], emb.vertices[b]))
                 for a, b in h.edges)
    assert emb.edge_image == want
    assert all(g.has_edge(*e) for e in want)
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
                    ecol = [[0] * n for _ in range(n)]
                    adj = [[] for _ in range(n)]
                    for (u, v), c in colours.items():
                        ecol[u][v] = ecol[v][u] = c
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
                            got = matcher.exists_through(a, b, c, adj, ecol, n)
                            assert (got is not None) == want
                            assert got is None or got in masks[(u, v)]


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
    assert is_semi_saturated(near_complete, p20).holds
    assert not is_saturated(near_complete, p20).holds
    gapped = build_graph(20, [(i, i + 1) for i in range(19) if i != 9])
    assert not is_semi_saturated(gapped, p20).holds
    assert is_semi_saturated(gapped, p20, non_edges=gapped.non_edges()).witness != (9, 10)


# -- search_rainbow_free_colouring ----------------------------------------------


def test_k4_admits_matching_colouring():
    verdict = search_rainbow_free_colouring(K4, P4, 10**6)
    assert_certificate_sound(K4, P4, verdict)
    assert verdict.certificate.partition() == K4_MATCHINGS.partition()


def test_p4_rainbow_free_by_repeating_end_edges():
    g = realize_pattern(P4)
    verdict = search_rainbow_free_colouring(g, P4, 10**6)
    assert_certificate_sound(g, P4, verdict)
    assert verdict.certificate.colour_of(0, 1) == verdict.certificate.colour_of(2, 3)


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
    g = realize_pattern(K13)
    assert forces_rainbow(g, K13, 10**6).status is Status.ESTABLISHED


def test_k4_does_not_force_rainbow_p4():
    verdict = forces_rainbow(K4, P4, 10**6)
    assert verdict.status is Status.REFUTED
    assert verdict.certificate.partition() == K4_MATCHINGS.partition()


def test_path_does_not_force_itself():
    g = realize_pattern(P6)
    verdict = forces_rainbow(g, P6, 10**6)
    assert verdict.status is Status.REFUTED
    assert verdict.certificate.colour_count < 5


# -- saturation checks --------------------------------------------------------------


def test_two_stars_saturated_for_double_star():
    assert is_saturated(two_stars(4), PatternSpec.double_star(2, 1)).holds


def test_two_stars_saturated_for_subdivided_star():
    assert is_saturated(two_stars(4), PatternSpec.subdivided_star(5)).holds


def test_complete_graph_never_saturated_for_contained_tree():
    for k in (4, 5):
        kn = build_graph(k, list(itertools.combinations(range(k), 2)))
        res = is_saturated(kn, P4)
        assert not res.holds
        assert res.witness is not None  # the embedding


def test_saturated_implies_semi_saturated():
    g = two_stars(4)
    assert is_semi_saturated(g, PatternSpec.double_star(2, 1)).holds


def test_complete_graph_vacuously_semi_saturated():
    k5 = build_graph(5, list(itertools.combinations(range(5), 2)))
    assert is_semi_saturated(k5, P4).holds


def test_two_disjoint_edges_semi_saturated_for_p4():
    g = build_graph(4, [(0, 1), (2, 3)])
    assert is_semi_saturated(g, P4).holds
    # every non-edge is a cross edge and creates a path, so g is saturated too
    assert is_saturated(g, P4).holds


def test_saturation_witness_is_checkable():
    g = build_graph(5, [(0, 1), (1, 2)])  # P3 plus two isolated vertices
    res = is_saturated(g, P4)
    assert not res.holds
    assert not hasattr(res.witness, "vertices")
    u, v = res.witness
    assert contains_copy(g.add_edge(u, v), P4) is None


def test_pattern_elsewhere_does_not_make_semi_saturated():
    # K1,3 plus an isolated vertex contains K1,3, but joining two leaves (or
    # the isolated vertex to a leaf) makes no copy through the new edge
    g = build_graph(5, [(0, 1), (0, 2), (0, 3)])
    res = is_semi_saturated(g, K13)
    assert not res.holds
    assert res.witness in g.non_edges() and 0 not in res.witness


def brute_force_saturation(g, spec):
    """(saturated, semi-saturated), by trying every injective vertex map of
    the pattern: a map whose image misses exactly one pair e of g is a copy
    in g + e through e, and one that misses none is a copy in g."""
    h = realize_pattern(spec)
    edges = g.edge_set()
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
            got = (is_saturated(g, spec).holds, is_semi_saturated(g, spec).holds)
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
    """g has a rainbow-free proper colouring, and for every non-edge e (all
    of them, not one per orbit) no proper colouring of g + e has one."""
    return brute_force_rainbow_free(g, spec) and not any(
        brute_force_rainbow_free(g.add_edge(*e), spec) for e in g.non_edges())


PRSAT_BRUTE_PATTERNS = (PatternSpec.path(3), P4, P5, K13, PatternSpec.subdivided_star(5))


def assert_class_verdicts_match_brute_force(n):
    for level in _augmented_levels(n):
        for g, non_edges in level:
            for spec in PRSAT_BRUTE_PATTERNS:
                want = Status.ESTABLISHED if brute_force_prsat(g, spec) else Status.REFUTED
                assert is_properly_rainbow_saturated(g, spec, 10**7).status is want, (g, spec)
                assert _class_verdict(g, non_edges, spec, "prsat", 10**7)[0] is want, (g, spec)


def test_prsat_verdicts_match_brute_force():
    for n in range(1, 5):
        for g in all_graphs_on(n):
            for spec in PRSAT_BRUTE_PATTERNS:
                want = Status.ESTABLISHED if brute_force_prsat(g, spec) else Status.REFUTED
                assert is_properly_rainbow_saturated(g, spec, 10**7).status is want, (g, spec)
    for n in range(1, 6):
        assert_class_verdicts_match_brute_force(n)


@pytest.mark.slow
def test_prsat_verdicts_match_brute_force_at_6():
    assert_class_verdicts_match_brute_force(6)


# -- properly rainbow saturated -------------------------------------------------------


def test_two_stars_properly_rainbow_saturated_for_p4():
    verdict = is_properly_rainbow_saturated(two_stars(4), P4, 10**7)
    assert verdict.status is Status.ESTABLISHED
    assert_certificate_sound(two_stars(4), P4, verdict)


def test_k4_properly_rainbow_saturated_for_p4():
    verdict = is_properly_rainbow_saturated(K4, P4, 10**7)
    assert verdict.status is Status.ESTABLISHED


def test_trees_refuted_for_p6():
    tree = realize_pattern(PatternSpec.broom(4, 2))  # 6-vertex tree
    verdict = is_properly_rainbow_saturated(tree, P6, 10**7)
    assert verdict.status is Status.REFUTED
    witness = verdict.certificate
    # the witness colouring of g+e must re-verify
    g2 = tree.add_edge(*witness.edge)
    assert is_proper(g2, witness.colouring)
    assert find_rainbow_copy(g2, witness.colouring, P6) is None


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
                without = is_properly_rainbow_saturated(g, spec, 10**6,
                                                        non_edges=g.non_edges())
                assert with_orbits.status == without.status
                assert is_saturated(g, spec).holds == is_saturated(
                    g, spec, non_edges=g.non_edges()).holds


def test_prsat_established_implies_semi_saturated():
    for n in range(2, 6):
        for g in all_graphs_on(n):
            verdict = is_properly_rainbow_saturated(g, P4, 10**6)
            if verdict.status is Status.ESTABLISHED:
                assert is_semi_saturated(g, P4).holds


def test_star_pattern_collapse_to_classical_saturation():
    # for star patterns the rainbow conditions add nothing
    for n in range(2, 6):
        for g in all_graphs_on(n):
            verdict = is_properly_rainbow_saturated(g, K13, 10**6)
            assert (verdict.status is Status.ESTABLISHED) == is_saturated(g, K13).holds


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
                want.add(c.partition())
        got = {c.partition() for c in enumerate_rainbow_free_colourings(g, spec)}
        assert got == want


@given(small_graphs(max_n=5))
@settings(max_examples=30, deadline=None)
def test_random_graphs_verdicts_are_consistent(g):
    verdict = is_properly_rainbow_saturated(g, P4, 10**6)
    if verdict.status is Status.ESTABLISHED:
        assert_certificate_sound(g, P4, verdict)
        assert is_semi_saturated(g, P4).holds


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


@given(graphs_with_pendant_twins(), st.sampled_from(["P4", "P5", "P6", "K1,3"]),
       st.integers(0, 10**6))
@settings(max_examples=100, deadline=None)
def test_twin_sorted_search_matches_enumeration_on_pendant_twins(g, token, pick):
    spec = parse_pattern(token)
    assert_search_matches_enumeration(g, spec)
    non_edges = g.non_edges()
    if non_edges:
        h = g.add_edge(*non_edges[pick % len(non_edges)])
        first = next(enumerate_rainbow_free_colourings(h, spec), None)
        verdict = forces_rainbow(h, spec, None)
        if first is None:
            assert verdict.status is Status.ESTABLISHED
        else:
            assert verdict.status is Status.REFUTED
            assert verdict.certificate.colours == first.colours


def test_count_keeps_colourings_that_differ_by_a_twin_swap():
    # centres 0 and 1 joined, leaves 2, 3 on 0 and 4, 5 on 1: the edges to
    # the leaves of 1 take (2,3), (3,2), (2,4), (4,2), (3,4), (4,3) or (4,5)
    g = build_graph(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)])
    assert count_proper_colourings(g) == 7
    everything = list(ColouringSearch(g, None).run())
    assert (1, 2, 3, 2, 3) in everything and (1, 2, 3, 3, 2) in everything
    sorted_twins = list(ColouringSearch(g, None).sort_twins().run())
    assert sorted_twins == [(1, 2, 3, 2, 3), (1, 2, 3, 2, 4), (1, 2, 3, 3, 4), (1, 2, 3, 4, 5)]


# -- remembered copies ---------------------------------------------------------
#
# `ColouringSearch.run` skips the matcher for a colour that a copy found
# earlier at the same position already makes rainbow.  The loop below is the
# search as it was before, asking the matcher at every node; the two must
# walk the same tree.


class _AskEveryNode(ColouringSearch):
    def run(self):
        g = self.graph
        order = self._order
        m = len(order)
        n = g.n
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
        ecol = [[0] * n for _ in range(n)]
        cadj = [[] for _ in range(n)]
        ends = [(u, v, (1 << u) | (1 << v)) for u, v in order]

        i = 0
        while i >= 0:
            u, v, uvmask = ends[i]
            if assigned[i]:
                old = col[i]
                usage[old] ^= uvmask
                cadj[u].pop()
                cadj[v].pop()
                ecol[u][v] = ecol[v][u] = 0
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
            ecol[u][v] = ecol[v][u] = c
            assigned[i] = True
            if (
                matcher is not None
                and i + 1 >= min_edges
                and matcher.exists_through(u, v, c, cadj, ecol, n) is not None
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
    searches = [cls(g, spec, budget) for cls in (ColouringSearch, _AskEveryNode)]
    if twins:
        for s in searches:
            s.sort_twins()
    got, want = (list(s.run()) for s in searches)
    assert got == want, (g, spec, budget, twins)
    assert searches[0].nodes_explored == searches[1].nodes_explored
    assert searches[0].exhausted == searches[1].exhausted


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

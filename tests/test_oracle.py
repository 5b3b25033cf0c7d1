import dataclasses
import gc
import hashlib
import itertools
import json
import multiprocessing
import os
import tracemalloc
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    _augmented_levels,
    all_graphs_on,
    brute_force_automorphisms,
    enumerate_graphs,
    enumerate_trees,
)
from rslab import canon, engine, oracle
from rslab.canon import canonical_form, canonical_graph, non_edge_orbit_representatives
from rslab.cli import main
from rslab.constructions import caterpillar_construction, star_forest
from rslab.errors import CacheMismatchError, InvalidParameterError
from rslab.graphs import Graph, from_graph6, normalise_edge, to_graph6
from rslab.oracle import (
    CensusRecord,
    census,
    enumerate_graphs_by_edges,
    load_cached_record,
    prsat_number,
    sat_number,
    store_record,
)
from rslab.patterns import PatternSpec, parse_pattern

P4 = PatternSpec.path(4)
P5 = PatternSpec.path(5)


# -- enumeration -------------------------------------------------------------------


def test_class_counts_small_orders():
    assert len(list(enumerate_graphs(1))) == 1
    assert len(list(enumerate_graphs(2))) == 2
    assert len(list(enumerate_graphs(3))) == 4
    assert len(list(enumerate_graphs(4))) == 11
    assert len(list(enumerate_graphs(5))) == 34


def test_class_count_n6():
    assert len(list(enumerate_graphs(6))) == 156


def test_class_count_n7():
    assert len(list(enumerate_graphs(7))) == 1044


def _spy_levels_made(monkeypatch) -> list[int]:
    """Record the edge count of every level made by canonical augmentation."""
    made = []
    real = canon._canonical_children

    def spy(parent, *rest):
        if not made or made[-1] != len(parent.edges) + 1:
            made.append(len(parent.edges) + 1)
        return real(parent, *rest)

    monkeypatch.setattr(canon, "_canonical_children", spy)
    return made


def test_edge_cap_makes_no_later_level(monkeypatch):
    everything = list(enumerate_graphs(5))
    made = _spy_levels_made(monkeypatch)
    for cap in (0, 1, 4, 9, 10, 12):
        made.clear()
        got = [g for level in itertools.islice(enumerate_graphs_by_edges(5), cap + 1)
               for g in level]
        assert got == [g for g in everything if len(g.edges) <= cap]
        assert made == list(range(1, min(cap, 10) + 1))


def test_representatives_are_canonical_and_distinct():
    seen = set()
    for g in enumerate_graphs(5):
        form = canonical_form(g)
        assert form not in seen
        seen.add(form)
        assert g.to_graph6().encode() == form  # stored as its own canonical labelling


def test_enumeration_matches_labelled_dedup():
    for n in range(1, 6):
        labelled = {canonical_form(g) for g in all_graphs_on(n)}
        enumerated = {canonical_form(g) for g in enumerate_graphs(n)}
        assert labelled == enumerated


@pytest.mark.slow
def test_enumeration_matches_labelled_dedup_n6(labelled_graphs_on_6, monkeypatch):
    monkeypatch.setattr(canon, "labelling", dict(labelled_graphs_on_6).__getitem__)
    labelled = {canonical_form(g) for g, _ in labelled_graphs_on_6}
    assert len(labelled) == 156
    assert labelled == {canonical_form(g) for g in enumerate_graphs(6)}


def _dict_dedup_levels(n):
    """The enumeration before canonical augmentation, kept as a reference:
    every child of every class is labelled, and a dict keyed by graph6
    merges the isomorphic ones."""
    current = {to_graph6(Graph(n, ())): Graph(n, ())}
    yield [current[k] for k in sorted(current)]
    for _ in range(n * (n - 1) // 2):
        nxt = {}
        for g in current.values():
            for u, v in non_edge_orbit_representatives(g):
                cg = canonical_graph(g.add_edge(u, v))
                nxt.setdefault(to_graph6(cg), cg)
        current = nxt
        yield [current[k] for k in sorted(current)]


def test_levels_match_dict_dedup_reference():
    for n in range(1, 8):
        got = [sorted(map(to_graph6, level)) for level in enumerate_graphs_by_edges(n)]
        want = [[to_graph6(g) for g in level] for level in _dict_dedup_levels(n)]
        assert got == want, n


def test_level_digest_pins_canonical_forms():
    # The reference above labels with the same canon, so it cannot see a
    # change of canonical forms; this digest of every level up to n = 7,
    # representatives included, each level read in graph6 order, pins them.
    digest = hashlib.sha256()
    classes = 0
    for n in range(1, 8):
        for level in _augmented_levels(n):
            for g6, reps in sorted((to_graph6(g), reps) for g, reps in level):
                digest.update(f"{g6} {reps}\n".encode())
                classes += 1
    assert classes == 1252
    assert digest.hexdigest() == (
        "82e5a14481e509b7dc68fe0ddac19b2d4a70078187e9064bb290591440510f23"
    )


def test_level_counts_n8_match_benchmark_reference():
    # OEIS A008406, row 8: the classes on 8 vertices by edge count, as the
    # `enumerate` benchmark's reference holds them
    want = [1, 1, 2, 5, 11, 24, 56, 115, 221, 402, 663, 980, 1312, 1557, 1646,
            1557, 1312, 980, 663, 402, 221, 115, 56, 24, 11, 5, 2, 1, 1]
    digest = hashlib.sha256()
    levels = []
    for level in canon.class_levels(8, shared=False):
        levels.append([to_graph6(g) for g, *_ in level])
        # every field a class carries, in level order: representatives,
        # bitmasks, vertex-orbit roots and parent pinned with the graph
        for g6, (_, reps, adjb, roots, parent) in zip(levels[-1], level):
            digest.update(f"{g6} {list(reps)} {list(adjb)} {roots and list(roots)} "
                          f"{parent}\n".encode())
    assert [len(level) for level in levels] == want
    assert sum(want) == 12_346  # OEIS A000088
    assert len({g6 for level in levels for g6 in level}) == 12_346
    assert digest.hexdigest() == (
        "0cbf0eb08e416c1375ee2f6433b6cb2feaaeb7844e8e0134528034a48d83335e"
    )


def test_carried_non_edges_are_the_orbit_representatives():
    for n in range(1, 7):
        for level in _augmented_levels(n):
            for g, non_edges in level:
                assert non_edges == non_edge_orbit_representatives(g), to_graph6(g)


def test_classes_carry_their_bitmasks_and_vertex_orbit_roots():
    for n in range(1, 8):
        for level in canon.class_levels(n, shared=False):
            for g, _, adjb, roots, _ in level:
                assert list(adjb) == g.adjacency_bits(), to_graph6(g)
                if roots is not None:
                    auts = brute_force_automorphisms(g)
                    want = sorted({min(s[v] for s in auts) for v in range(n)})
                    assert list(roots) == want, to_graph6(g)
                else:  # a padded class
                    assert not adjb[0]


def test_padding_a_class_gives_a_canonical_class():
    # every class up to n = 7 plus an isolated vertex: canonical as it
    # stands, with the representatives and bitmasks labelling finds
    padded = 0
    for n in range(1, 8):
        for level in canon.class_levels(n, shared=False):
            for cls in level:
                g, reps, adjb, roots, _ = canon._padded(*cls)
                assert canonical_graph(g) == g, to_graph6(cls[0])
                assert reps == non_edge_orbit_representatives(g), to_graph6(cls[0])
                assert list(adjb) == g.adjacency_bits() and roots is None
                padded += 1
    assert padded == 1252


def _level_dump(n, shared):
    return [[(to_graph6(g), reps) for g, reps in level]
            for level in _augmented_levels(n, shared)]


def _levels_three_ways(monkeypatch):
    """The levels of orders 1-7 streamed with no memo, made from an empty
    memo, and made with the lower orders already in the memo."""
    streamed = [_level_dump(n, False) for n in range(1, 8)]
    fresh = []
    for n in range(1, 8):
        monkeypatch.setattr(canon, "_LEVEL_MEMO", {})
        fresh.append(_level_dump(n, True))
    monkeypatch.setattr(canon, "_LEVEL_MEMO", {})
    shared = [_level_dump(n, True) for n in range(1, 8)]
    return streamed, fresh, shared, canon._LEVEL_MEMO


def test_levels_are_the_same_streamed_and_from_the_memo(monkeypatch):
    streamed, fresh, shared, memo = _levels_three_ways(monkeypatch)
    assert fresh == streamed and shared == streamed
    assert canon._memo_classes(memo) == 1252


def test_levels_are_the_same_when_a_lower_order_streams_partway(monkeypatch):
    monkeypatch.setattr(canon, "LEVEL_MEMO_CLASSES", 100)
    streamed, fresh, shared, memo = _levels_three_ways(monkeypatch)
    assert fresh == streamed and shared == streamed
    # order 6 was held up to some level and streamed from there on, and
    # order 7 found room for its first levels only
    assert 0 < len(memo[6]) < len(streamed[5])
    assert 0 < len(memo[7]) < len(streamed[6])


def test_carried_non_edges_are_the_census_non_edges(monkeypatch):
    # every class a census decides, with the non-edges it came with: the
    # component-size rule reads them first, and the verdict of each class
    # that rule leaves
    visited = []
    real = oracle.outcome
    real_too_small = oracle._too_small

    def spy(g, spec, quantity, budget, non_edges):
        visited.append((g, non_edges))
        return real(g, spec, quantity, budget, non_edges)

    def too_small_spy(adjb, non_edges, k):
        n = len(adjb)
        g = Graph(n, tuple((u, v) for u in range(n) for v in range(u + 1, n)
                           if adjb[u] >> v & 1))
        visited.append((g, non_edges))
        return real_too_small(adjb, non_edges, k)

    monkeypatch.setattr(oracle, "outcome", spy)
    monkeypatch.setattr(oracle, "_too_small", too_small_spy)
    for n in range(2, 8):
        prsat_number(n, P5, budget=10**6)
        sat_number(n, P4)
    assert len({to_graph6(g) for g, _ in visited}) > 300
    for g, non_edges in visited:
        assert non_edges == non_edge_orbit_representatives(g)


@lru_cache(maxsize=None)
def _classes_up_to_7():
    return [g for n in range(2, 8) for level in enumerate_graphs_by_edges(n)
            for g in level if len(g.edges) < n * (n - 1) // 2]


def _top_edges_of_child(g, e):
    """`_top_invariant_edges` for the child g + e, asked with g's edges."""
    adjb = g.add_edge(*e).adjacency_bits()
    return canon._top_invariant_edges(e, g.edges, [a.bit_count() for a in adjb], adjb)


@given(st.data())
@settings(deadline=None)
def test_top_invariant_edges_commute_with_relabelling(data):
    # The pre-filter refuses a child before labelling it, so its top set
    # must be an isomorphism invariant: on any relabelling of the child it
    # is the image of the top set, or None on both.
    g = data.draw(st.sampled_from(_classes_up_to_7()))
    e = data.draw(st.sampled_from(list(g.non_edges())))
    perm = data.draw(st.permutations(range(g.n)))
    top = _top_edges_of_child(g, e)
    image = g.relabel(perm)
    top_image = _top_edges_of_child(image, normalise_edge(perm[e[0]], perm[e[1]]))
    if top is None:
        assert top_image is None
    else:
        assert top_image is not None
        assert sorted(top_image) == sorted(normalise_edge(perm[a], perm[b]) for a, b in top)


def test_labellings_at_order_7_are_pinned(monkeypatch):
    # The children labelled while the levels of order 7 are made, counted
    # exactly: a change that refuses fewer children before labelling them,
    # or labels one twice, fails here.
    labelled = []
    real = canon._label
    monkeypatch.setattr(canon, "_label", lambda *args: labelled.append(1) or real(*args))
    assert sum(len(level) for level in _augmented_levels(7)) == 1044
    assert len(labelled) == 1069


def test_levels_are_by_edge_count():
    for m, level in enumerate(enumerate_graphs_by_edges(4)):
        for g in level:
            assert len(g.edges) == m


def test_tree_counts():
    assert [len(enumerate_trees(n)) for n in range(1, 9)] == [1, 1, 1, 2, 3, 6, 11, 23]


def test_trees_are_trees():
    for t in enumerate_trees(7):
        assert t.is_tree()


# -- censuses ----------------------------------------------------------------------


# The points of the benchmark's `census` workload (CENSUS_POINTS in
# perfbench/workloads.py): (quantity, n, pattern, edge cap).
CENSUS_POINTS = (
    ("prsat", 7, "P4", None),
    ("prsat", 8, "P4", None),
    ("prsat", 7, "P5", None),
    ("prsat", 8, "P5", None),
    ("prsat", 8, "K1,3", None),
    ("prsat", 8, "T5star", None),
    ("prsat", 6, "P5", 4),
    ("sat", 8, "T5star", None),
    ("sat", 9, "T5star", None),
    ("sat", 9, "P6", None),
    ("sat", 9, "S3,2", None),
)


@pytest.fixture(scope="module")
def census_point_records():
    return [census(q, n, parse_pattern(t), edge_cap=cap) for q, n, t, cap in CENSUS_POINTS]


def test_census_digest_pins_the_census_contract(census_point_records):
    # Census records are the contract: a speed-up must keep every value,
    # exactness, witness and unresolved class of these points.
    got = [(r.value, r.exact, len(r.witnesses)) for r in census_point_records]
    assert got == [(5, True, 1), (6, True, 1), (8, True, 5), (9, True, 15), (7, True, 4),
                   (6, True, 1), (None, True, 0), (6, True, 1), (7, True, 1), (8, True, 1),
                   (7, True, 1)]
    digest = hashlib.sha256()
    for (q, n, t, cap), r in zip(CENSUS_POINTS, census_point_records):
        digest.update(f"{q} {n} {t} {cap} {r.value} {r.exact} {r.witnesses} "
                      f"{r.unresolved}\n".encode())
    assert digest.hexdigest() == (
        "bc060f46c69e5507000acd985d4073a4ac2af228ff882b35086665aa6de4e199"
    )


def test_component_size_rule_refutes_only_refuted_classes():
    # Every class with n <= 7 (n <= 6 for prsat) that the rule settles
    # without a verdict is Refuted by its verdict, in each mode.
    classes = [c for n in range(1, 8) for level in canon.class_levels(n, shared=False)
               for c in level]
    for token in ("P3", "P4", "P5", "P6", "K1,3", "T5star", "S3,2"):
        spec = parse_pattern(token)
        fired = 0
        for g, non_edges, adjb, *_ in classes:
            if not oracle._too_small(adjb, non_edges, spec.graph.n):
                continue
            fired += 1
            for quantity in ("sat", "ssat", "prsat") if g.n <= 6 else ("sat", "ssat"):
                verdict = engine.outcome(g, spec, quantity, 10**6, non_edges)
                assert verdict.status is engine.Status.REFUTED, (token, quantity, to_graph6(g))
        assert fired, token


def test_each_class_carries_a_parent_one_edge_below_it():
    # the parent a class carries, at its position in the level below, is
    # C - f for some edge f of C, whether C grew from it or was padded
    classes = 0
    for n in range(1, 8):
        below = None
        for level in canon.class_levels(n, shared=False):
            for g, *_, parent in level:
                if below is None:
                    assert parent is None
                    continue
                want = below[parent][0]
                assert any(canonical_graph(Graph(n, tuple(e for e in g.edges if e != f))) == want
                           for f in g.edges), to_graph6(g)
                classes += 1
            below = level
    assert classes == 1245


@pytest.mark.parametrize("quantity, top", [("prsat", 6), ("sat", 7)])
def test_a_class_fails_at_the_base_when_its_parent_does(monkeypatch, quantity, top):
    # No rainbow-free colouring (prsat) and a copy of the pattern (sat) pass
    # to supergraphs, so a class whose parent fails at the base fails too,
    # on every class; and each class a census settles with no component
    # check and no verdict has a parent that fails at the base.
    asked = set()  # the classes that reached a check, by their bitmasks
    real_verdict, real_too_small = oracle.outcome, oracle._too_small

    def verdict_spy(g, *rest):
        asked.add(tuple(g.adjacency_bits()))
        return real_verdict(g, *rest)

    def too_small_spy(adjb, *rest):
        asked.add(tuple(adjb))
        return real_too_small(adjb, *rest)

    monkeypatch.setattr(oracle, "outcome", verdict_spy)
    monkeypatch.setattr(oracle, "_too_small", too_small_spy)
    inherited = 0
    for token in ("P4", "P5", "K1,3", "T5star"):
        spec = parse_pattern(token)
        if quantity == "prsat":
            def fails(g):
                return engine.search_rainbow_free_colouring(g, spec, 10**6).status \
                    is engine.Status.REFUTED
        else:
            def fails(g):
                return engine.contains_copy(g, spec) is not None
        for n in range(2, top + 1):
            asked.clear()
            rec = census(quantity, n, spec, budget=10**6)
            levels = list(canon.class_levels(n, shared=False))
            failing = [[fails(g) for g, *_ in level] for level in levels]
            last = len(levels) - 1 if rec.value is None else rec.value
            for m in range(1, len(levels)):
                for i, (g, _, adjb, _, parent) in enumerate(levels[m]):
                    if failing[m - 1][parent]:
                        assert failing[m][i], (token, to_graph6(g))
                    if m <= last and tuple(adjb) not in asked:
                        assert failing[m - 1][parent], (token, to_graph6(g))
                        inherited += 1
    assert inherited


def test_classes_refuted_by_their_parent_take_no_walk(census_point_records):
    # prsat(8, P5) took 18,137 nodes when each class took its own walk
    rec = census_point_records[CENSUS_POINTS.index(("prsat", 8, "P5", None))]
    assert rec.nodes_explored <= 15_531


def test_component_size_rule_is_off_for_a_disconnected_pattern(monkeypatch):
    # A copy of 2K2 through a non-edge may use an edge of a third
    # component: K3 plus two isolated vertices is saturated.
    two_k2 = parse_pattern("g6:C`")
    got = {q: census(q, 5, two_k2) for q in ("sat", "ssat", "prsat")}
    assert {q: (r.value, r.witnesses) for q, r in got.items()} == {
        "sat": (3, ("D@K",)), "ssat": (3, ("D@K",)), "prsat": (4, ("D?{",))}
    monkeypatch.setattr(Graph, "is_connected", lambda self: True)  # the rule forced on
    assert [census(q, 5, two_k2).value for q in ("sat", "ssat")] == [4, 4]


def test_component_size_rule_settles_most_classes_unwalked(monkeypatch):
    asked = []
    real = oracle.outcome
    monkeypatch.setattr(oracle, "outcome", lambda *a: asked.append(a[0]) or real(*a))
    rec = prsat_number(8, P4)
    assert (rec.value, rec.total_graphs_examined) == (6, 100)
    assert len(asked) <= 27


def test_sat_census_p4_order6():
    # the perfect matching is P4-saturated: every non-edge joins two of its
    # edges and closes a 4-vertex path
    rec = sat_number(6, P4)
    assert rec.value == 3
    assert rec.exact
    (witness,) = rec.witnesses
    g = from_graph6(witness)
    assert sorted(len(c) for c in g.components()) == [2, 2, 2]
    assert rec.verify()


def test_sat_census_t5star_order7():
    rec = sat_number(7, PatternSpec.subdivided_star(5))
    assert rec.value == 5
    assert rec.verify()


def test_verify_labels_prsat_witnesses_only(monkeypatch):
    # a sat or ssat step is one matcher call, so their witnesses are checked
    # at every non-edge, unlabelled; a prsat step is a colouring search, so
    # a prsat witness is labelled for one non-edge per orbit
    records = [sat_number(7, PatternSpec.subdivided_star(5)), census("ssat", 6, P4)]
    prsat_record = prsat_number(5, P4, budget=10**6)
    labelled = []
    real = canon.labelling
    monkeypatch.setattr(canon, "labelling", lambda g: labelled.append(to_graph6(g)) or real(g))
    for rec in records:
        assert rec.verify() and rec.witnesses
    assert labelled == []
    assert prsat_record.verify()
    assert set(prsat_record.witnesses) <= set(labelled)


def test_ssat_below_sat():
    for n in (4, 5, 6):
        assert census("ssat", n, P4).value <= sat_number(n, P4).value


def test_census_relations_hold_on_every_small_tree():
    # On every tree with 3-5 vertices at n = 2..7: ssat <= sat and
    # ssat <= prsat; every prsat witness is semi-saturated, since a
    # rainbow-free colouring of G extends to G + e by an unused colour, so
    # the rainbow copy that G + e must hold uses e; and prsat = sat when
    # every two pattern edges meet.
    points = 0
    for k in (3, 4, 5):
        for tree in enumerate_trees(k):
            spec = parse_pattern("g6:" + to_graph6(tree))
            meet = all(set(e) & set(f) for e, f in itertools.combinations(tree.edges, 2))
            for n in range(2, 8):
                sat, ssat, prsat = (census(q, n, spec) for q in ("sat", "ssat", "prsat"))
                where = (spec.token(), n)
                assert sat.exact and ssat.exact and prsat.exact, where
                assert ssat.value <= sat.value and ssat.value <= prsat.value, where
                assert prsat.witnesses, where
                for w in prsat.witnesses:
                    verdict = engine.is_semi_saturated(from_graph6(w), spec)
                    assert verdict.status is engine.Status.ESTABLISHED, (where, w)
                if meet:
                    assert prsat.value == sat.value, where
                points += 1
    assert points == 36


def test_ssat_needs_a_copy_through_the_new_edge():
    # K1,3 plus isolated vertices contains the star, which no longer makes
    # it semi-saturated: ssat(n,K1,3) was 3 at every order
    k13 = PatternSpec.star(3)
    assert [census("ssat", n, k13).value for n in (5, 6)] == [4, 5]
    assert [census("ssat", n, P4).value for n in (4, 5, 6)] == [2, 3, 3]


def test_prsat_census_small():
    rec = prsat_number(5, P4, budget=10**6)
    assert rec.exact
    assert rec.value is not None
    assert rec.verify()


def test_prsat_census_matches_formula_n7():
    rec = prsat_number(7, P4, budget=10**7)
    assert rec.value == 5 and rec.exact


def test_edge_capped_census_returns_none_when_nothing_qualifies():
    rec = prsat_number(5, P5, budget=10**6, edge_cap=3)
    assert rec.value is None and rec.exact
    assert rec.total_graphs_examined == 8  # classes with <= 3 edges on 5 vertices


def test_prsat_census_order5_value():
    rec = prsat_number(5, P4, budget=10**6)
    assert rec.value == 4
    # the 4-leaf star is among the minimum witnesses
    assert any(
        sorted(from_graph6(w).degrees()) == [1, 1, 1, 1, 4] for w in rec.witnesses
    )


def test_unresolved_classes_poison_the_record():
    # dense classes cannot finish even one colouring descent at this budget
    rec = prsat_number(6, PatternSpec.path(6), budget=1, edge_cap=13)
    assert rec.value is None
    assert not rec.exact
    assert rec.unresolved


def test_a_starved_census_walks_no_class_past_its_budget():
    rec = prsat_number(6, PatternSpec.path(6), budget=5, edge_cap=13)
    assert rec.unresolved and rec.budget == 5
    assert rec.nodes_explored <= 5 * rec.total_graphs_examined


def test_a_star_census_spends_no_budget():
    # the matcher alone decides every class of a star pattern, so a budget
    # of one node walks nothing and leaves the record exact
    k13 = PatternSpec.star(3)
    rec = prsat_number(3, k13, budget=1)
    assert (rec.value, rec.exact, rec.nodes_explored) == (3, True, 0)
    full = prsat_number(8, k13)
    assert full.nodes_explored == 0
    assert dataclasses.replace(prsat_number(8, k13, budget=1), budget=full.budget) == full


def _spy_levels_asked(monkeypatch) -> list[tuple[int, int]]:
    """Record the order and edge count of every level taken from
    `canon.class_levels`: those a census examines, and those of the orders
    below that its levels are made from."""
    asked = []
    real = canon.class_levels

    def spy(n, shared):
        for m, level in enumerate(real(n, shared)):
            asked.append((n, m))
            yield level

    monkeypatch.setattr(canon, "class_levels", spy)
    monkeypatch.setattr(oracle, "class_levels", spy)
    return asked


def _levels_of_order(asked, n) -> list[int]:
    return [m for order, m in asked if order == n]


def test_census_asks_for_no_level_past_the_last_it_examines(monkeypatch):
    monkeypatch.setattr(canon, "_LEVEL_MEMO", {})
    asked = _spy_levels_asked(monkeypatch)
    made = _spy_levels_made(monkeypatch)
    assert prsat_number(7, P4, budget=10**6).value == 5
    assert _levels_of_order(asked, 7) == [0, 1, 2, 3, 4, 5] and made == [1, 2, 3, 4, 5]
    # order n-1 gives the padded part of each level of order n, up to level 5
    for n in range(1, 7):
        assert _levels_of_order(asked, n) == list(range(min(5, n * (n - 1) // 2) + 1))
    asked.clear()
    made.clear()
    assert sat_number(7, P4).value == 5  # every level from the memo
    assert asked == [(7, m) for m in range(6)] and made == []
    asked.clear()
    rec = prsat_number(6, P5, budget=10**6, edge_cap=4)
    assert rec.value is None and rec.total_graphs_examined == 1 + 1 + 2 + 5 + 9
    # made beneath order 7 already
    assert asked == [(6, m) for m in range(5)] and made == []
    monkeypatch.setattr(canon, "_LEVEL_MEMO", {})
    asked.clear()
    assert prsat_number(6, P5, budget=10**6, edge_cap=4) == rec
    assert max(m for _, m in asked) == 4 and made == [1, 2, 3, 4]


# (quantity, n, pattern, edge cap): censuses of orders 6 and 7 whose levels
# overlap, shallow and deep, one stopped by its cap
MEMO_POINTS = [("prsat", 6, P4, None), ("sat", 7, P4, None), ("prsat", 7, P5, None),
               ("prsat", 7, P4, None), ("prsat", 6, P5, 4), ("sat", 6, P4, None)]


def _memo_census(point):
    quantity, n, spec, cap = point
    return census(quantity, n, spec, budget=10**6, edge_cap=cap)


def _records_from_an_empty_memo(monkeypatch):
    records = []
    for point in MEMO_POINTS:
        monkeypatch.setattr(canon, "_LEVEL_MEMO", {})
        records.append(_memo_census(point))
    return records


def test_census_after_census_matches_an_empty_memo(monkeypatch):
    want = _records_from_an_empty_memo(monkeypatch)
    monkeypatch.setattr(canon, "_LEVEL_MEMO", {})
    assert [_memo_census(point) for point in MEMO_POINTS] == want
    assert [_memo_census(point) for point in reversed(MEMO_POINTS)] == want[::-1]


def test_level_memo_keeps_to_its_bound(monkeypatch):
    want = _records_from_an_empty_memo(monkeypatch)
    monkeypatch.setattr(canon, "_LEVEL_MEMO", {})
    monkeypatch.setattr(canon, "LEVEL_MEMO_CLASSES", 80)
    held = []
    real = canon._canonical_children

    def spy(parent, *rest):
        held.append(canon._memo_classes(canon._LEVEL_MEMO))
        return real(parent, *rest)

    monkeypatch.setattr(canon, "_canonical_children", spy)
    assert [_memo_census(point) for point in MEMO_POINTS] == want
    held.append(canon._memo_classes(canon._LEVEL_MEMO))
    assert 0 < max(held) <= 80
    # the bound covers every order: the census at order 6 left levels of
    # orders 1-5 in the memo, and the censuses at order 7, which reach
    # level 8, found room for no more than a few levels of orders 6 and 7
    memo = canon._LEVEL_MEMO
    assert sum(len(level) for n in range(1, 6) for level in memo[n]) > 0
    assert 0 < len(memo[6]) < 9 and 0 < len(memo[7]) < 9


def test_censuses_find_the_non_edges_of_each_class_once(monkeypatch):
    # each class in the memo had its non-edges found once: by a labelling,
    # or by padding a class of the order below
    monkeypatch.setattr(canon, "_LEVEL_MEMO", {})
    found = []
    real = canon.non_edge_representatives
    real_padded = canon._padded

    # a class is known by its adjacency bitmasks, which the labelling and
    # the padding both return
    def spy(adjb, gens):
        found.append(tuple(adjb))
        return real(adjb, gens)

    def padded_spy(*cls):
        padded = real_padded(*cls)
        found.append(tuple(padded[2]))
        return padded

    monkeypatch.setattr(canon, "non_edge_representatives", spy)
    monkeypatch.setattr(canon, "_padded", padded_spy)
    for point in MEMO_POINTS:
        _memo_census(point)
    made = [tuple(adjb) for levels in canon._LEVEL_MEMO.values()
            for level in levels for _, _, adjb, *_ in level]
    assert len(made) > 100
    assert sorted(found) == sorted(made)


def test_class_making_leaves_no_cyclic_garbage(monkeypatch):
    # labelling searches and pattern compiles free all they make by
    # reference counting, so class making and a census leave the garbage
    # collector nothing to find, and neither do the dropped matchers (those
    # of plans deeper than 16 steps, with _part helpers, still would)
    monkeypatch.setattr(canon, "_LEVEL_MEMO", {})
    engine._matcher_for.cache_clear()  # so that the censuses compile their patterns
    gc.collect()
    gc.disable()
    try:
        for _ in canon.class_levels(7, shared=False):
            pass
        canon.labelling(star_forest(20, 4))
        canon.labelling(caterpillar_construction(28, 6, 4))
        _memo_census(("prsat", 7, P4, None))
        _memo_census(("sat", 7, P5, None))
        assert gc.collect() == 0
        engine._matcher_for.cache_clear()  # a dropped matcher is freed with no cycle
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_level_memo_holds_few_bytes_a_class(monkeypatch):
    # a class holds its canonical graph, the bitmasks and representatives
    # its level carries and the roots of a labelled class, and no edge set:
    # 570-600 bytes a class, against 1,236 with an edge set on each
    # labelled class
    monkeypatch.setattr(canon, "_LEVEL_MEMO", {})
    for _ in canon.class_levels(7, shared=True):  # fill the pair tables and other caches
        pass
    gc.collect()
    memo = {}
    monkeypatch.setattr(canon, "_LEVEL_MEMO", memo)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in canon.class_levels(7, shared=True):
            pass
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    classes = canon._memo_classes(memo)
    assert classes == 1 + 2 + 4 + 11 + 34 + 156 + 1044  # OEIS A000088, n = 1..7
    assert held <= 800 * classes


def test_prsat_number_runs_in_one_process():
    with pytest.raises(InvalidParameterError, match="workers"):
        prsat_number(5, P4, budget=10**6, workers=2)
    assert prsat_number(5, P4, budget=10**6, workers=1) == prsat_number(5, P4, budget=10**6)


def test_cutoffs_enforced():
    with pytest.raises(InvalidParameterError):
        sat_number(10, P4)
    with pytest.raises(InvalidParameterError):
        prsat_number(9, P4)


# -- cache -------------------------------------------------------------------------


def test_cache_write_and_reload(tmp_path):
    rec = prsat_number(5, P4, budget=10**6, cache_dir=tmp_path)
    assert (tmp_path / "census-prsat.jsonl").exists()
    again = prsat_number(5, P4, budget=10**6, cache_dir=tmp_path)
    assert again == rec
    loaded = load_cached_record(tmp_path, rec.key())
    assert loaded == rec


def test_cache_mismatch_refused(tmp_path, capsys):
    rec = sat_number(5, P4, cache_dir=tmp_path)
    # a witness of the wrong edge count (no edges), then one of the right
    # count that fails the verdict (C5 holds a P4)
    for witness in ("D??", "Dhc"):
        fake = CensusRecord(
            n=rec.n, pattern=rec.pattern, quantity=rec.quantity,
            value=(rec.value or 0) + 1, exact=True, witnesses=(witness,),
            unresolved=(), total_graphs_examined=1, budget=None,
            nodes_explored=0, edge_cap=None,
        )
        with pytest.raises(CacheMismatchError):
            store_record(tmp_path, fake)
        store_record(tmp_path, fake, force=True)  # explicit overwrite allowed
        assert load_cached_record(tmp_path, rec.key()).value == fake.value
        assert not fake.verify()
        # asked again, the census refuses the record it reads back
        with pytest.raises(CacheMismatchError):
            sat_number(5, P4, cache_dir=tmp_path)
        code = main(["oracle", "--n", "5", "--pattern", "P4", "--quantity", "sat",
                     "--cache-dir", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("error:") and "fail to verify" in err


@pytest.mark.parametrize("n, witnesses", [(7, '["E?Bw"]'), (6, '["zz"]')])
def test_cache_witnesses_that_are_no_graph_on_n_vertices_refused(tmp_path, capsys, n, witnesses):
    # prsat(6, P4)'s witness filed under n = 7, and a string that is no graph6
    row = STEP_WALK_ROW.replace('"n": 6', f'"n": {n}').replace('["E?Bw"]', witnesses)
    (tmp_path / "census-prsat.jsonl").write_text(row, encoding="utf-8")
    key = (n, "P4", "prsat", None)
    assert not load_cached_record(tmp_path, key).verify()
    with pytest.raises(CacheMismatchError, match="fail to verify"):
        prsat_number(n, P4, cache_dir=tmp_path)
    code = main(["oracle", "--n", str(n), "--pattern", "P4", "--quantity", "prsat",
                 "--cache-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2 and err == f"error: cached witnesses for {key} fail to verify\n"


# prsat(6, P4) as the cache stored it when each non-edge orbit took a walk of
# its own: the same value and witnesses, more nodes
STEP_WALK_ROW = ('{"budget": 10000000, "edge_cap": null, "exact": true, "n": 6, '
                 '"nodes_explored": 276, "pattern": "P4", "quantity": "prsat", '
                 '"total_graphs_examined": 33, "unresolved": [], "value": 5, '
                 '"witnesses": ["E?Bw"]}\n')


def test_records_of_the_step_walks_still_load(tmp_path):
    (tmp_path / "census-prsat.jsonl").write_text(STEP_WALK_ROW, encoding="utf-8")
    old = prsat_number(6, P4, cache_dir=tmp_path)
    assert old.nodes_explored == 276 and old.verify()
    new = prsat_number(6, P4, cache_dir=tmp_path, force=True)
    assert (new.value, new.witnesses) == (old.value, old.witnesses)
    assert new.nodes_explored < old.nodes_explored
    assert load_cached_record(tmp_path, old.key()) == new
    store_record(tmp_path, old)  # same value and witnesses: no force needed
    assert load_cached_record(tmp_path, old.key()) == old


def test_inexact_cached_record_is_replaced(tmp_path):
    first = prsat_number(6, P5, budget=1, cache_dir=tmp_path)
    assert not first.exact
    second = prsat_number(6, P5, cache_dir=tmp_path)  # default budget
    assert second.exact and second.value != first.value
    assert load_cached_record(tmp_path, second.key()) == second


def test_census_rejects_a_negative_edge_cap(tmp_path):
    with pytest.raises(InvalidParameterError, match="edge cap"):
        census("prsat", 5, P4, edge_cap=-1, cache_dir=tmp_path)
    assert list(tmp_path.iterdir()) == []  # no record stored


def test_census_rejects_unknown_quantity():
    with pytest.raises(InvalidParameterError):
        census("rsat", 5, P4)


def test_cache_truncated_last_line_reads_as_miss(tmp_path):
    first = sat_number(4, P4, cache_dir=tmp_path)
    second = sat_number(5, P4, cache_dir=tmp_path)
    path = tmp_path / "census-sat.jsonl"
    text = path.read_text(encoding="utf-8")
    path.write_text(text[:-20], encoding="utf-8")  # a crash cut the last row short
    assert load_cached_record(tmp_path, first.key()) == first
    assert load_cached_record(tmp_path, second.key()) is None
    assert sat_number(5, P4, cache_dir=tmp_path) == second  # recomputed and stored
    assert path.read_text(encoding="utf-8") == text


def test_cache_store_drops_only_unparseable_rows(tmp_path):
    first = sat_number(4, P4, cache_dir=tmp_path)
    path = tmp_path / "census-sat.jsonl"
    path.write_text(path.read_text(encoding="utf-8") + "{not json\n[1, 2]\n",
                    encoding="utf-8")
    second = sat_number(5, P4, cache_dir=tmp_path)
    rows = path.read_text(encoding="utf-8").splitlines()
    assert [CensusRecord.from_json_dict(json.loads(r)) for r in rows] == [first, second]


@pytest.mark.parametrize("field, value", [("witnesses", "[1]"), ("witnesses", '"zz"'),
                                          ("unresolved", '{"a": 1}')])
def test_cache_rows_without_graph6_lists_read_as_misses(tmp_path, capsys, field, value):
    old = f'"{field}": ' + ('["E?Bw"]' if field == "witnesses" else "[]")
    path = tmp_path / "census-prsat.jsonl"
    path.write_text(STEP_WALK_ROW.replace(old, f'"{field}": {value}'), encoding="utf-8")
    assert load_cached_record(tmp_path, (6, "P4", "prsat", None)) is None
    # the CLI recomputes the record, stores it in place of the row, and
    # lets no exception escape
    code = main(["oracle", "--n", "6", "--pattern", "P4", "--quantity", "prsat",
                 "--cache-dir", str(tmp_path)])
    out, err = capsys.readouterr()
    assert code == 0 and "prsat(6,P4) = 5" in out and err == ""
    [row] = path.read_text(encoding="utf-8").splitlines()
    assert CensusRecord.from_json_dict(json.loads(row)) == prsat_number(6, P4)


@pytest.mark.parametrize("swaps", [
    {'"exact": true': '"exact": "false"', '"value": 5': '"value": "5"'},
    {'"value": 5': '"value": true'},
    {'"n": 6': '"n": "6"'},
])
def test_cache_rows_with_mistyped_scalars_read_as_misses(tmp_path, capsys, swaps):
    # a string where JSON has a bool or an int, or a bool where it has an
    # int, is not coerced: the row is no record of prsat(6, P4)
    row = STEP_WALK_ROW
    for old, new in swaps.items():
        assert old in row
        row = row.replace(old, new)
    path = tmp_path / "census-prsat.jsonl"
    path.write_text(row, encoding="utf-8")
    with pytest.raises(TypeError):
        CensusRecord.from_json_dict(json.loads(row))
    assert load_cached_record(tmp_path, (6, "P4", "prsat", None)) is None
    code = main(["oracle", "--n", "6", "--pattern", "P4", "--quantity", "prsat",
                 "--cache-dir", str(tmp_path)])
    out, err = capsys.readouterr()
    assert code == 0 and "prsat(6,P4) = 5" in out and err == ""
    # recomputed, with fewer nodes than the row, which the store dropped
    [stored] = path.read_text(encoding="utf-8").splitlines()
    fresh = prsat_number(6, P4)
    assert CensusRecord.from_json_dict(json.loads(stored)) == fresh
    assert fresh.exact and fresh.nodes_explored < 276


def test_cache_failed_rename_leaves_old_file(tmp_path, monkeypatch):
    sat_number(4, P4, cache_dir=tmp_path)
    path = tmp_path / "census-sat.jsonl"
    before = path.read_bytes()

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError):
        sat_number(5, P4, cache_dir=tmp_path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["census-sat.jsonl"]


def _store_many(root, first_n, barrier):
    barrier.wait(timeout=60)
    for n in range(first_n, first_n + 25):
        store_record(root, CensusRecord(
            n=n, pattern="P4", quantity="sat", value=1, exact=True, witnesses=(),
            unresolved=(), total_graphs_examined=1, budget=None, nodes_explored=0,
        ))


def test_concurrent_writers_keep_every_record(tmp_path):
    ctx = multiprocessing.get_context("spawn")
    barrier = ctx.Barrier(2)
    writers = [ctx.Process(target=_store_many, args=(tmp_path, first_n, barrier))
               for first_n in (100, 200)]
    for w in writers:
        w.start()
    for w in writers:
        w.join(timeout=120)
    assert [w.exitcode for w in writers] == [0, 0]
    for n in [*range(100, 125), *range(200, 225)]:
        assert load_cached_record(tmp_path, (n, "P4", "sat", None)) is not None, n


def test_record_json_roundtrip():
    rec = sat_number(5, P4)
    assert CensusRecord.from_json_dict(rec.to_json_dict()) == rec


def test_cache_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("RSLAB_CACHE", str(tmp_path))
    sat_number(4, P4)
    assert (tmp_path / "census-sat.jsonl").exists()


def test_star_pattern_censuses_collapse():
    # rainbow conditions add nothing for star patterns
    k13 = PatternSpec.star(3)
    for n in range(4, 8):
        pr = prsat_number(n, k13, budget=10**7)
        st = sat_number(n, k13)
        assert pr.exact and pr.value == st.value

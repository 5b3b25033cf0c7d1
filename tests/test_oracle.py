import hashlib
import itertools
import json
import multiprocessing
import os
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import all_graphs_on
from rslab import canon, oracle
from rslab.canon import (
    canonical_form,
    canonical_graph,
    non_edge_orbit_representatives,
)
from rslab.engine import Status
from rslab.errors import CacheMismatchError, InvalidParameterError
from rslab.graphs import Graph, build_graph, from_graph6, normalise_edge, to_graph6
from rslab.oracle import (
    CensusRecord,
    _augmented_levels,
    census,
    enumerate_graphs,
    enumerate_graphs_by_edges,
    enumerate_trees,
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


def test_edge_cap():
    got = list(enumerate_graphs(3, edge_cap=1))
    assert len(got) == 2
    assert [len(g.edges) for g in got] == [0, 1]


def _spy_levels_made(monkeypatch) -> list[int]:
    """Record the edge count of every level made by canonical augmentation."""
    made = []
    real = oracle._canonical_children

    def spy(parent, non_edges):
        if not made or made[-1] != len(parent.edges) + 1:
            made.append(len(parent.edges) + 1)
        return real(parent, non_edges)

    monkeypatch.setattr(oracle, "_canonical_children", spy)
    return made


def test_edge_cap_makes_no_later_level(monkeypatch):
    everything = list(enumerate_graphs(5))
    made = _spy_levels_made(monkeypatch)
    for cap in (0, 1, 4, 9, 10, 12):
        made.clear()
        got = list(enumerate_graphs(5, edge_cap=cap))
        assert got == [g for g in everything if len(g.edges) <= cap]
        assert made == list(range(1, min(cap, 10) + 1))
    assert list(enumerate_graphs(5, edge_cap=-1)) == []


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
        got = [[to_graph6(g) for g in level] for level in enumerate_graphs_by_edges(n)]
        want = [[to_graph6(g) for g in level] for level in _dict_dedup_levels(n)]
        assert got == want, n


def test_level_digest_pins_canonical_forms():
    # The reference above labels with the same canon, so it cannot see a
    # change of canonical forms; this digest of every level up to n = 7,
    # representatives included, pins them.
    digest = hashlib.sha256()
    classes = 0
    for n in range(1, 8):
        for level in _augmented_levels(n):
            for g, reps in level:
                digest.update(f"{to_graph6(g)} {reps}\n".encode())
                classes += 1
    assert classes == 1252
    assert digest.hexdigest() == (
        "82e5a14481e509b7dc68fe0ddac19b2d4a70078187e9064bb290591440510f23"
    )


def test_level_counts_n8_match_benchmark_reference():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"
    want = json.loads(path.read_text(encoding="utf-8"))["enumerate"]["level_counts"]
    levels = [[to_graph6(g) for g in level] for level in enumerate_graphs_by_edges(8)]
    assert [len(level) for level in levels] == want
    assert sum(want) == 12_346  # OEIS A000088
    assert len({g6 for level in levels for g6 in level}) == 12_346


def test_carried_non_edges_are_the_orbit_representatives():
    for n in range(1, 7):
        for level in _augmented_levels(n):
            for g, non_edges in level:
                assert non_edges == non_edge_orbit_representatives(g), to_graph6(g)


def test_carried_non_edges_are_the_census_non_edges(monkeypatch):
    # every class a census decides, with the non-edges it came with
    visited = []
    real = oracle._class_verdict

    def spy(g, non_edges, *rest):
        visited.append((g, non_edges))
        return real(g, non_edges, *rest)

    monkeypatch.setattr(oracle, "_class_verdict", spy)
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
    return oracle._top_invariant_edges(e, g.edges, [a.bit_count() for a in adjb], adjb)


@given(st.data())
@settings(deadline=None)
def test_top_invariant_edges_commute_with_relabelling(data):
    # The pre-filter refuses a child before labelling it, so its top set
    # must be an isomorphism invariant: on any relabelling of the child it
    # is the image of the top set, or None on both.
    g = data.draw(st.sampled_from(_classes_up_to_7()))
    e = data.draw(st.sampled_from(g.non_edges()))
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
    real = oracle._label
    monkeypatch.setattr(oracle, "_label", lambda *args: labelled.append(1) or real(*args))
    assert sum(len(level) for level in _augmented_levels(7)) == 1044
    assert len(labelled) == 1069


@st.composite
def same_order_pairs(draw):
    """Two graphs on the same 1..20 vertices, the second the first with
    some pairs flipped, so they can first differ at any pair."""
    n = draw(st.integers(min_value=1, max_value=20))
    pairs = list(itertools.combinations(range(n), 2))
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = {p for p, keep in zip(pairs, mask) if keep}
    flips = set(draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [])
    return build_graph(n, edges), build_graph(n, edges ^ flips)


@given(same_order_pairs())
@example((Graph(1, ()), Graph(1, ())))
@example((Graph(20, ()), Graph(20, ((18, 19),))))
def test_graph6_key_orders_as_graph6(pair):
    a, b = pair
    key_a, key_b = oracle._graph6_key(a), oracle._graph6_key(b)
    g6_a, g6_b = to_graph6(a), to_graph6(b)
    assert (key_a < key_b, key_a == key_b) == (g6_a < g6_b, g6_a == g6_b)


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


def test_tiny_budget_resolves_small_orders_via_escalation():
    rec = prsat_number(4, P4, budget=1)
    assert rec.exact and rec.value == 6  # only the complete graph qualifies


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


def _spy_levels_asked(monkeypatch) -> list[int]:
    """Record the edge count of every level a census takes from its source."""
    asked = []
    real = oracle._augmented_levels

    def spy(n, memo=None):
        for level in real(n, memo):
            asked.append(len(level[0][0].edges))
            yield level

    monkeypatch.setattr(oracle, "_augmented_levels", spy)
    return asked


def test_census_asks_for_no_level_past_the_last_it_examines(monkeypatch):
    monkeypatch.setattr(oracle, "_LEVEL_MEMO", {})
    asked = _spy_levels_asked(monkeypatch)
    made = _spy_levels_made(monkeypatch)
    assert prsat_number(7, P4, budget=10**6).value == 5
    assert asked == [0, 1, 2, 3, 4, 5] and made == [1, 2, 3, 4, 5]
    asked.clear()
    made.clear()
    assert sat_number(7, P4).value == 5  # every level from the memo
    assert asked == [0, 1, 2, 3, 4, 5] and made == []
    asked.clear()
    rec = prsat_number(6, P5, budget=10**6, edge_cap=4)
    assert rec.value is None and rec.total_graphs_examined == 1 + 1 + 2 + 5 + 9
    assert asked == [0, 1, 2, 3, 4] and made == [1, 2, 3, 4]


def test_an_unknown_class_is_retried_before_the_next_level(monkeypatch):
    # at budget 1 the level-5 classes stay Unknown; retried at once, they
    # settle the value there, and no level past it is asked for
    want = prsat_number(6, P4, budget=10**6)
    asked = _spy_levels_asked(monkeypatch)
    rec = prsat_number(6, P4, budget=1)
    assert asked == [0, 1, 2, 3, 4, 5]
    assert (rec.value, rec.witnesses, rec.exact) == (want.value, want.witnesses, want.exact)


def _two_pass_census(n, spec, budget):
    """A prsat census that retries its Unknown classes in a second pass:
    the first pass stops at the first level with an established class, and
    each Unknown class at or below the value so far is retried after it.
    Returns (value, exact, witnesses, unresolved, classes examined)."""
    value = None
    witnesses, unknown, still = [], [], []
    examined = 0
    for m, level in enumerate(oracle._augmented_levels(n)):
        for g, non_edges in level:
            status, _ = oracle._class_verdict(g, non_edges, spec, "prsat", budget)
            examined += 1
            if status is Status.ESTABLISHED:
                value = m
                witnesses.append(g)
            elif status is Status.UNKNOWN:
                unknown.append((g, non_edges))
        if value is not None:
            break
    for g, non_edges in unknown:
        m = len(g.edges)
        if value is not None and m > value:
            continue
        status, _ = oracle._class_verdict(g, non_edges, spec, "prsat",
                                          budget * oracle.ESCALATION_FACTOR)
        if status is Status.ESTABLISHED:
            if value is None or m < value:
                value = m
                witnesses = [g]
            elif m == value:
                witnesses.append(g)
        elif status is Status.UNKNOWN:
            still.append(g)
    poisons = tuple(sorted(to_graph6(g) for g in still if value is None or len(g.edges) <= value))
    found = tuple(sorted(to_graph6(g) for g in witnesses if len(g.edges) == value))
    return value, not poisons, found, poisons, examined


def test_in_place_retry_matches_a_second_pass_on_starved_budgets():
    shrunk = 0
    for n in (4, 5, 6):
        for spec in (P4, P5, PatternSpec.star(3), PatternSpec.path(6)):
            for budget in (1, 2, 3, 5, 8, 13, 30, 100):
                value, exact, witnesses, unresolved, examined = _two_pass_census(n, spec, budget)
                rec = prsat_number(n, spec, budget=budget)
                assert (rec.value, rec.exact, rec.witnesses, rec.unresolved) == (
                    value, exact, witnesses, unresolved), (n, spec, budget)
                assert rec.total_graphs_examined <= examined
                shrunk += rec.total_graphs_examined < examined
    assert shrunk > 0


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
        monkeypatch.setattr(oracle, "_LEVEL_MEMO", {})
        records.append(_memo_census(point))
    return records


def test_census_after_census_matches_an_empty_memo(monkeypatch):
    want = _records_from_an_empty_memo(monkeypatch)
    monkeypatch.setattr(oracle, "_LEVEL_MEMO", {})
    assert [_memo_census(point) for point in MEMO_POINTS] == want
    assert [_memo_census(point) for point in reversed(MEMO_POINTS)] == want[::-1]


def test_level_memo_keeps_to_its_bound(monkeypatch):
    want = _records_from_an_empty_memo(monkeypatch)
    monkeypatch.setattr(oracle, "_LEVEL_MEMO", {})
    monkeypatch.setattr(oracle, "LEVEL_MEMO_CLASSES", 40)
    held = []
    real = oracle._canonical_children

    def spy(parent, non_edges):
        held.append(oracle._memo_classes())
        return real(parent, non_edges)

    monkeypatch.setattr(oracle, "_canonical_children", spy)
    assert [_memo_census(point) for point in MEMO_POINTS] == want
    held.append(oracle._memo_classes())
    assert 0 < max(held) <= 40
    # order 7 outgrew what order 6 left room for: its later levels streamed
    assert 0 < len(oracle._LEVEL_MEMO[7]) < 9


def test_censuses_find_the_non_edges_of_each_class_once(monkeypatch):
    monkeypatch.setattr(oracle, "_LEVEL_MEMO", {})
    found = []
    real = oracle.non_edge_representatives

    def spy(g, gens):
        found.append(to_graph6(g))
        return real(g, gens)

    monkeypatch.setattr(oracle, "non_edge_representatives", spy)
    for point in MEMO_POINTS:
        _memo_census(point)
    made = [to_graph6(g) for levels in oracle._LEVEL_MEMO.values()
            for level in levels for g, _ in level]
    assert len(made) > 100
    assert sorted(found) == sorted(made)


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


def test_cache_mismatch_refused(tmp_path):
    rec = sat_number(5, P4, cache_dir=tmp_path)
    fake = CensusRecord(
        n=rec.n, pattern=rec.pattern, quantity=rec.quantity,
        value=(rec.value or 0) + 1, exact=True, witnesses=("D??",),
        unresolved=(), total_graphs_examined=1, budget=None,
        nodes_explored=0, edge_cap=None,
    )
    with pytest.raises(CacheMismatchError):
        store_record(tmp_path, fake)
    store_record(tmp_path, fake, force=True)  # explicit overwrite allowed
    assert load_cached_record(tmp_path, rec.key()).value == fake.value


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

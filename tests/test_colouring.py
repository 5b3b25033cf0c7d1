import itertools
import random

import pytest
from hypothesis import given, settings

from conftest import all_graphs_on, colour_of, partition, small_graphs
from rslab.colouring import EdgeColouring, is_proper
from rslab.engine import ColouringSearch
from rslab.errors import MissingEdgeColourError
from rslab.graphs import build_graph

TRIANGLE = build_graph(3, [(0, 1), (0, 2), (1, 2)])


def test_is_proper_examples():
    assert is_proper(TRIANGLE, EdgeColouring(TRIANGLE, (1, 2, 3)))
    assert not is_proper(TRIANGLE, EdgeColouring(TRIANGLE, (1, 1, 2)))
    k4 = build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    matchings = EdgeColouring(k4, (1, 2, 3, 3, 2, 1))
    assert is_proper(k4, matchings)


def test_missing_colour_errors():
    with pytest.raises(MissingEdgeColourError):
        EdgeColouring(TRIANGLE, (1, 2))
    with pytest.raises(MissingEdgeColourError):
        EdgeColouring.from_map(TRIANGLE, {(0, 1): 1, (0, 2): 2})
    other = build_graph(3, [(0, 1)])
    with pytest.raises(MissingEdgeColourError):
        is_proper(TRIANGLE, EdgeColouring(other, (1,)))


def test_is_proper_matches_a_per_vertex_check():
    rng = random.Random(3)
    verdicts = set()
    for _ in range(400):
        n = rng.randrange(1, 9)
        g = build_graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.4])
        colours = tuple(rng.randint(1, 5) for _ in g.edges)
        at = [[c for e, c in zip(g.edges, colours) if v in e] for v in range(n)]
        want = all(len(cs) == len(set(cs)) for cs in at)
        assert is_proper(g, EdgeColouring(g, colours)) == want, (g, colours)
        verdicts.add(want)
    assert verdicts == {False, True}


def test_colour_lookup_and_classes():
    c = EdgeColouring(TRIANGLE, (1, 2, 1))
    assert colour_of(c, 2, 1) == 1
    assert c.colour_count == 2


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


def _brute_count(g):
    # independent oracle: all restricted-growth strings that are matching partitions
    count = 0
    for cols in _restricted_growth_strings(len(g.edges)):
        if is_proper(g, EdgeColouring(g, cols)):
            count += 1
    return count


def _count(g):
    """Partitions of E(g) into matchings, as the search with no pattern walks them."""
    return sum(1 for _ in ColouringSearch(g, None).run())


def test_count_pairwise_adjacent_graphs():
    assert _count(TRIANGLE) == 1
    for k in (3, 4, 5):
        star = build_graph(k + 1, [(0, i) for i in range(1, k + 1)])
        assert _count(star) == 1


def test_count_two_disjoint_edges():
    assert _count(build_graph(4, [(0, 1), (2, 3)])) == 2


def test_count_matches_restricted_growth_oracle():
    for n in range(5):
        for g in all_graphs_on(n):
            assert _count(g) == _brute_count(g)


@given(small_graphs(max_n=5))
@settings(max_examples=40)
def test_search_yields_proper_colourings(g):
    search = ColouringSearch(g, None, None)
    seen = set()
    for cols in search.run():
        c = EdgeColouring(g, cols) if cols else None
        if cols:
            assert is_proper(g, c)
            assert partition(c) not in seen
            seen.add(partition(c))
    assert search.exhausted

import functools
import itertools
import operator

import pytest
from hypothesis import strategies as st

from rslab import canon
from rslab.graphs import Graph, build_graph
from rslab.reproduce import ReproConfig, run_suite


@st.composite
def small_graphs(draw, min_n=0, max_n=6, connected=False):
    n = draw(st.integers(min_value=max(min_n, 2 if connected else 0), max_value=max_n))
    pairs = list(itertools.combinations(range(n), 2))
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = build_graph(n, [p for p, keep in zip(pairs, mask) if keep])
    if connected and not g.is_connected():
        # chain the components together deterministically
        comps = g.components()
        extra = [(comps[i][0], comps[i + 1][0]) for i in range(len(comps) - 1)]
        g = build_graph(n, list(g.edges) + extra)
    return g


def all_graphs_on(n):
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield build_graph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])


def permutations_of(n):
    return itertools.permutations(range(n))


def brute_force_isomorphic(a: Graph, b: Graph) -> bool:
    if a.n != b.n or len(a.edges) != len(b.edges):
        return False
    eb = b.edge_set()
    for perm in permutations_of(a.n):
        if all((min(perm[u], perm[v]), max(perm[u], perm[v])) in eb for u, v in a.edges):
            return True
    return False


_CHUNK = 4  # pairs per lookup table


@functools.lru_cache(maxsize=None)
def _pair_images(n):
    """All permutations of 0..n-1, the index of each pair u < v, and tables
    that give edge bitmask images four pairs at a time.

    Bit i of an edge bitmask stands for the i-th pair.  For each chunk of
    four pairs starting at `start`, table[x][k] is the image under the k-th
    permutation of the pairs of that chunk whose bits are set in x.
    """
    pairs = list(itertools.combinations(range(n), 2))
    index = {p: i for i, p in enumerate(pairs)}
    perms = list(permutations_of(n))
    images = [[index[min(p[u], p[v]), max(p[u], p[v])] for p in perms] for u, v in pairs]
    tables = []
    for start in range(0, len(pairs), _CHUNK):
        rows = list(zip(*images[start:start + _CHUNK]))  # per permutation
        tables.append((start, [
            [sum(1 << image for j, image in enumerate(row) if x >> j & 1) for row in rows]
            for x in range(1 << _CHUNK)
        ]))
    return perms, index, tables


def brute_force_automorphisms(g: Graph):
    """Every permutation of the vertices that maps the edge bitmask onto
    itself, tested one by one over all n! permutations."""
    perms, index, tables = _pair_images(g.n)
    mask = 0
    for e in g.edges:
        mask |= 1 << index[e]
    images = itertools.repeat(0)
    for start, table in tables:
        images = map(operator.or_, images, table[mask >> start & (1 << _CHUNK) - 1])
    return [perm for perm, image in zip(perms, images) if image == mask]


@pytest.fixture(scope="session")
def graphs_n4():
    return list(all_graphs_on(4))


@pytest.fixture(scope="session")
def labelled_graphs_on_6():
    """(g, canon.labelling(g)) for all 32,768 labelled graphs on 6 vertices,
    labelled once for the tests that need every one of them."""
    return [(g, canon.labelling(g)) for g in all_graphs_on(6)]


@pytest.fixture(scope="session")
def suite_rows(tmp_path_factory):
    """suite_rows(name, ell=4): the rows of one reproduce suite at the
    default budgets, run once per session for every test that reads them."""
    cache_dir = tmp_path_factory.mktemp("census-cache")

    @functools.cache
    def rows(name, ell=4):
        return run_suite(name, ReproConfig(cache_dir=cache_dir, ell=ell))

    return rows

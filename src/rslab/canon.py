"""Exact canonical labelling and automorphism orbits.

The labelling is computed by individualisation-refinement: refine the unit
partition to an equitable one, then branch on the vertices of the first
non-singleton cell.  Every leaf of the search tree is a discrete partition,
i.e. a candidate labelling; the canonical form is the minimum adjacency
encoding over all leaves.  Leaves with equal encodings yield automorphisms,
which are used both to prune sibling branches (only one representative per
orbit of the stabiliser of the individualised prefix is expanded) and to
report generators of the automorphism group.

This is exact, not heuristic: two graphs get the same label iff they are
isomorphic.  Speed is adequate for the n <= 10 graphs this package works
with; nothing here is tuned beyond bitmask adjacency.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import RslabError
from .graphs import Edge, Graph, normalise_edge, to_graph6


def _refine(adjb: list[int], cells: list[list[int]]) -> list[list[int]]:
    """Coarsest equitable partition refining `cells`.

    Cells are kept in a deterministic order: splitting replaces a cell in
    place by its fragments ordered by ascending neighbour count, which is a
    label-independent rule, so the procedure commutes with isomorphisms.
    """
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


class _UnionFind:
    def __init__(self, size: int):
        self.parent = list(range(size))

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def _search(g: Graph):
    """Run the labelling search; returns (canonical position map, generators)."""
    n = g.n
    if n == 0:
        return (), []
    adjb = g.adjacency_bits()
    identity = tuple(range(n))

    best: list = [None, None]    # encoding, position tuple
    first: list = [None, None]
    gens: list[tuple[int, ...]] = []
    gen_seen: set[tuple[int, ...]] = set()

    edges = g.edges

    def record_leaf(cells):
        pos = [0] * n
        for i, c in enumerate(cells):
            pos[c[0]] = i
        enc = 0
        for u, v in edges:
            a, b = pos[u], pos[v]
            if a > b:
                a, b = b, a
            enc |= 1 << (a * n + b)
        ptuple = tuple(pos)
        for ref_enc, ref_pos in (tuple(first), tuple(best)):
            if ref_enc is not None and enc == ref_enc and ptuple != ref_pos:
                inv = [0] * n
                for v2 in range(n):
                    inv[ref_pos[v2]] = v2
                sigma = tuple(inv[ptuple[v2]] for v2 in range(n))
                if sigma != identity and sigma not in gen_seen:
                    gen_seen.add(sigma)
                    gens.append(sigma)
        if first[0] is None:
            first[0], first[1] = enc, ptuple
        if best[0] is None or enc < best[0]:
            best[0], best[1] = enc, ptuple

    def dfs(cells, fixed: tuple[int, ...]):
        target = None
        for i, c in enumerate(cells):
            if len(c) > 1:
                target = i
                break
        if target is None:
            record_leaf(cells)
            return
        cell = cells[target]
        tried: list[int] = []
        for v in cell:
            if tried:
                # Orbit pruning: skip v if a known automorphism fixing the
                # individualised prefix pointwise maps it onto a sibling
                # already expanded.  Sound: the skipped subtree is an exact
                # image of an explored one.
                stab = [s for s in gens if all(s[f] == f for f in fixed)]
                if stab:
                    uf = _UnionFind(n)
                    for s in stab:
                        for x in range(n):
                            uf.union(x, s[x])
                    rv = uf.find(v)
                    if any(uf.find(u) == rv for u in tried):
                        continue
            child = cells[:target] + [[v], [w for w in cell if w != v]] + cells[target + 1:]
            dfs(_refine(adjb, child), fixed + (v,))
            tried.append(v)

    dfs(_refine(adjb, [list(range(n))]), ())
    return best[1], gens


@lru_cache(maxsize=65536)
def _search_cached(g: Graph):
    pos, gens = _search(g)
    return pos, tuple(gens)


def canonical_graph(g: Graph) -> Graph:
    pos = _search_cached(g)[0]
    return g.relabel(list(pos))


def canonical_form(g: Graph) -> bytes:
    """Complete isomorphism invariant: graph6 of the canonical relabelling."""
    return to_graph6(canonical_graph(g)).encode("ascii")


def is_isomorphic(a: Graph, b: Graph) -> bool:
    return a.n == b.n and canonical_form(a) == canonical_form(b)


def automorphism_generators(g: Graph) -> tuple[tuple[int, ...], ...]:
    return _search_cached(g)[1]


def vertex_orbits(g: Graph) -> list[tuple[int, ...]]:
    uf = _UnionFind(g.n)
    for s in automorphism_generators(g):
        for v in range(g.n):
            uf.union(v, s[v])
    by_root: dict[int, list[int]] = {}
    for v in range(g.n):
        by_root.setdefault(uf.find(v), []).append(v)
    return sorted(tuple(sorted(o)) for o in by_root.values())


def pair_orbits(g: Graph) -> list[tuple[Edge, ...]]:
    """Partition of all unordered vertex pairs into automorphism orbits.

    Automorphisms preserve adjacency, so each orbit consists of edges only
    or of non-edges only.
    """
    n = g.n
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    index = {p: i for i, p in enumerate(pairs)}
    uf = _UnionFind(len(pairs))
    for s in automorphism_generators(g):
        for p in pairs:
            uf.union(index[p], index[normalise_edge(s[p[0]], s[p[1]])])
    by_root: dict[int, list[Edge]] = {}
    for p in pairs:
        by_root.setdefault(uf.find(index[p]), []).append(p)
    return sorted(tuple(sorted(o)) for o in by_root.values())


def non_edge_orbit_representatives(g: Graph) -> list[Edge]:
    eset = g.edge_set()
    return [o[0] for o in pair_orbits(g) if o[0] not in eset]


def automorphism_group(g: Graph, limit: int = 100_000) -> list[tuple[int, ...]]:
    """Full group by closure of the generators.  Small graphs only."""
    n = g.n
    identity = tuple(range(n))
    gens = automorphism_generators(g)
    group = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for s in gens:
                q = tuple(s[p[v]] for v in range(n))
                if q not in group:
                    if len(group) >= limit:
                        raise RslabError(f"automorphism group larger than {limit}")
                    group.add(q)
                    nxt.append(q)
        frontier = nxt
    return sorted(group)

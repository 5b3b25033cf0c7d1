"""Exact canonical labelling and automorphism orbits.

The labelling is computed by individualisation-refinement: refine the unit
partition to an equitable one, then branch on the vertices of the first
non-singleton cell.  Every leaf of the search tree is a discrete partition,
i.e. a candidate labelling; the canonical form is the minimum adjacency
encoding over all leaves.  Leaves with equal encodings yield automorphisms,
which are used both to prune sibling branches (only one representative per
orbit of the stabiliser of the individualised prefix is expanded) and to
report generators of the automorphism group.

The generators found generate the whole automorphism group, not a subgroup.
Take a node on the path to the first leaf, and a vertex of its target cell
that an automorphism fixing the node's individualised vertices maps onto the
first leaf's choice there.  Either that vertex is expanded, and its subtree
holds a leaf equal to the first leaf, which yields such an automorphism; or
an automorphism already found, fixing those vertices, maps it onto an
earlier sibling, which lies in the same orbit.  By induction over the
siblings, at every node of that path the generators move the first choice
around its whole orbit under the stabiliser, and by the orbit-stabiliser
theorem along the path they generate the group.  Graph enumeration
(`rslab.oracle`) relies on this when it takes orbits from carried generators.

Before the search, the generators are seeded with the transposition of
each two consecutive vertices of a class of twins (vertices with the same
open, or the same closed, neighbourhood).  Each is an automorphism, so
pruning by it skips only images of explored subtrees: the minimum encoding
is still reached, and the argument above holds with the extra generators.
The leaf that first reaches the minimum, and with it the position map, may
differ from the one an unseeded search returns, but only by an
automorphism; the canonical graph and the orbits are the same.

Refinement (`_refine`) resumes its scan after a split instead of starting
over, which makes the same splits in the same order (see there).

This is exact, not heuristic: two graphs get the same label iff they are
isomorphic.  Speed is adequate for the n <= 10 graphs this package works
with, and for the caterpillar hosts of about 30 vertices.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import RslabError
from .graphs import Edge, Graph, to_graph6


def _refine(adjb: list[int], cells: list[list[int]]) -> list[list[int]]:
    """Coarsest equitable partition refining `cells`, whose cells are sorted.

    Cells are kept in a deterministic order: the first cell that some cell,
    its source, splits (sources and then targets taken in order) is replaced
    in place by its fragments ordered by ascending neighbour count toward
    the source, which is a label-independent rule, so the procedure commutes
    with isomorphisms.  After a split of target `ci` by source `si` the scan
    resumes at source min(si, ci) rather than at the first cell: the cells
    before it are unchanged and split nothing, and the fragments of a cell
    that had equal neighbour counts toward them still have.  For the same
    reason, when the target lies after the source the scan of that source
    goes on after the fragments.  So each split made is the one a scan from
    the first cell would make.  A target is split exactly when some vertex
    has a count other than its first vertex's, so the scan stops at the
    first such vertex and groups the cell only then: the splits are the
    same as grouping every cell would make.
    """
    cells = list(cells)
    n = len(adjb)
    si = 0
    while si < len(cells) < n:  # a discrete partition is equitable
        smask = 0
        for v in cells[si]:
            smask |= 1 << v
        ci = 0
        while ci < len(cells):
            cell = cells[ci]
            if len(cell) == 1:
                ci += 1
                continue
            k0 = (adjb[cell[0]] & smask).bit_count()
            for j in range(1, len(cell)):
                if (adjb[cell[j]] & smask).bit_count() != k0:
                    break
            else:
                ci += 1
                continue
            groups = {k0: cell[:j]}
            for v in cell[j:]:
                groups.setdefault((adjb[v] & smask).bit_count(), []).append(v)
            fragments = [groups[k] for k in sorted(groups)]
            cells[ci:ci + 1] = fragments
            if ci <= si:
                si = ci
                break
            # the fragments have equal counts toward the source
            ci += len(fragments)
        else:
            si += 1
    return cells


def labelling(g: Graph) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """Canonical position map of `g` (vertex v goes to pos[v]) and generators
    of its automorphism group."""
    n = g.n
    if n == 0:
        return (), ()
    adjb = g.adjacency_bits()
    identity = tuple(range(n))

    best: list = [None, None]    # encoding, position tuple
    first: list = [None, None]
    gens = _twin_transpositions(adjb)  # seeds: see the module docstring
    gen_seen = set(gens)

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
        # Orbit pruning: skip v if a known automorphism fixing the
        # individualised prefix pointwise maps it onto a sibling already
        # expanded.  Sound: the skipped subtree is an exact image of an
        # explored one.  The orbits of those automorphisms are computed
        # again whenever generators were found since.
        roots: list[int] = []
        known = 0
        for v in cell:
            if tried and gens:
                if known < len(gens):
                    known = len(gens)
                    roots = orbit_roots(n, [s for s in gens if all(s[f] == f for f in fixed)])
                if any(roots[u] == roots[v] for u in tried):
                    continue
            child = cells[:target] + [[v], [w for w in cell if w != v]] + cells[target + 1:]
            dfs(_refine(adjb, child), fixed + (v,))
            tried.append(v)

    dfs(_refine(adjb, [list(range(n))]), ())
    return best[1], tuple(gens)


def _twin_transpositions(adjb: list[int]) -> list[tuple[int, ...]]:
    """The transposition of each two consecutive vertices of a class of
    twins: vertices with the same open, or the same closed, neighbourhood.
    Swapping two such vertices is an automorphism."""
    n = len(adjb)
    open_twins: dict[int, list[int]] = {}
    closed_twins: dict[int, list[int]] = {}
    for v, a in enumerate(adjb):
        open_twins.setdefault(a, []).append(v)
        closed_twins.setdefault(a | 1 << v, []).append(v)
    out = []
    for twins in (*open_twins.values(), *closed_twins.values()):
        for a, b in zip(twins, twins[1:]):
            sigma = list(range(n))
            sigma[a], sigma[b] = b, a
            out.append(tuple(sigma))
    return out


def canonical_graph(g: Graph) -> Graph:
    pos = labelling(g)[0]
    return g.relabel(list(pos))


def canonical_form(g: Graph) -> bytes:
    """Complete isomorphism invariant: graph6 of the canonical relabelling."""
    return to_graph6(canonical_graph(g)).encode("ascii")


def is_isomorphic(a: Graph, b: Graph) -> bool:
    return a.n == b.n and canonical_form(a) == canonical_form(b)


def automorphism_generators(g: Graph) -> tuple[tuple[int, ...], ...]:
    return labelling(g)[1]


def orbit_roots(size: int, images) -> list[int]:
    """For each point 0..size-1, the first point of its orbit under the
    group generated by the permutations `images` (image[j] is the image of
    point j), found by a breadth-first walk from each unvisited point."""
    root = [-1] * size
    for i in range(size):
        if root[i] < 0:
            root[i] = i
            orbit = [i]
            for j in orbit:
                for image in images:
                    k = image[j]
                    if root[k] < 0:
                        root[k] = i
                        orbit.append(k)
    return root


def vertex_orbits(g: Graph) -> list[tuple[int, ...]]:
    by_root: dict[int, list[int]] = {}
    for v, r in enumerate(orbit_roots(g.n, automorphism_generators(g))):
        by_root.setdefault(r, []).append(v)
    return [tuple(o) for o in by_root.values()]


@lru_cache(maxsize=None)
def _pair_table(n: int) -> tuple[list[Edge], list[int]]:
    """The pairs u < v in lexicographic order, and the position of the pair
    {u, v} at index[u * n + v] and index[v * n + u]."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    index = [0] * (n * n)
    for i, (u, v) in enumerate(pairs):
        index[u * n + v] = index[v * n + u] = i
    return pairs, index


def pair_orbit_roots(n: int, gens) -> list[int]:
    """For each pair u < v, by its position in lexicographic order, the
    position of the first pair of its orbit under the group that the
    permutations `gens` of 0..n-1 generate."""
    pairs, index = _pair_table(n)
    return orbit_roots(len(pairs), [[index[s[u] * n + s[v]] for u, v in pairs] for s in gens])


def pair_orbits(g: Graph) -> list[tuple[Edge, ...]]:
    """Partition of all unordered vertex pairs into automorphism orbits,
    each orbit sorted and the orbits sorted by their first pair.

    Automorphisms preserve adjacency, so each orbit consists of edges only
    or of non-edges only.
    """
    pairs, _ = _pair_table(g.n)
    by_root: dict[int, list[Edge]] = {}
    for p, r in zip(pairs, pair_orbit_roots(g.n, automorphism_generators(g))):
        by_root.setdefault(r, []).append(p)
    return [tuple(o) for o in by_root.values()]


def non_edge_representatives(g: Graph, gens) -> list[Edge]:
    """The first non-edge of each orbit under the group that the
    automorphisms `gens` of g generate, in lexicographic order."""
    pairs, _ = _pair_table(g.n)
    eset = g.edge_set()
    roots = pair_orbit_roots(g.n, gens)
    return [p for i, p in enumerate(pairs) if roots[i] == i and p not in eset]


def non_edge_orbit_representatives(g: Graph) -> list[Edge]:
    """The first non-edge of each non-edge orbit, in lexicographic order."""
    return non_edge_representatives(g, automorphism_generators(g))


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

"""Exact canonical labelling and automorphism orbits, and the classes of
graphs of each order made from them.

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
theorem along the path they generate the group.  Class making
(:func:`class_levels`) relies on this when it takes orbits from carried
generators.

Before the search, the generators are seeded with the transposition of
each two consecutive vertices of a class of twins (:func:`twin_classes`).
Each is an automorphism, so pruning by it skips only images of explored
subtrees: the minimum encoding is still reached, and the argument above
holds with the extra generators.  The leaf that first reaches the minimum,
and with it the position map, may differ from the one an unseeded search
returns, but only by an automorphism; the canonical graph and the orbits
are the same.

A cell is a twin cell when its vertices all have the same open, or all the
same closed, neighbourhood.  A node whose non-singleton cells are all twin
cells is read off as its one leaf, those cells split into singletons in
ascending order (a discrete partition is the case with none; a discrete
root has no twins, so no seeds).  That is the full search's leaf, with the
same generators in the same order, by three facts:
1. Twins share a cell until one is individualised (swapping them fixes the
   partition), the search individualises the lowest vertex of a cell
   first, and the seeds fixing the prefix join each later twin to it.  So
   the individualised twins of a class are its lowest, and the rest lie in
   one cell and one orbit of those seeds.
2. So below such a node the full search expands the lowest vertex of each
   twin cell and prunes every sibling: it reaches one leaf, and no other
   leaf that could yield a generator.
3. Individualising a twin splits no other cell of an equitable partition,
   nor its twins' cell: every other vertex is joined to all of the twins
   or to none, and twins of one kind to each other all or none.  So that
   leaf is the ascending split, with no refinement.

Refinement (`_refine`) resumes its scan after a split instead of starting
over, which makes the same splits in the same order.  Its cells are
bitmasks, each the sorted cell a list would hold, and the root refines
the unit partition, whose first split is the degree partition (see there).

The classes of order n (:func:`class_levels`) are made one per isomorphism
class by canonical augmentation (McKay, 1998): each class grows from
exactly one parent class by one edge, so no child is compared with another,
and carries one non-edge per orbit of its automorphism group, taken from
the generators its labelling found.  Only the classes with no isolated
vertex grow so; the others are those of the same level of order n-1, padded
with an isolated vertex, which labels nothing.

Padding is exact.  A padded class of g takes a new vertex 0 and moves every
vertex v of g to v+1.  In a canonical graph the k isolated vertices sit at
positions 0..k-1: the degree-0 cell comes first in the degree partition, no
cell splits it or is split by it, and its vertices are twins.  So the
labelling search of g plus an isolated vertex has the leaves of g's search
with one more vertex in that cell, and since pair (a, b) precedes (c, d) in
the encoding order exactly when (a+1, b+1) precedes (c+1, d+1), the least
encoding is that of g's canonical graph padded: padding a canonical graph
gives a canonical graph.  Its non-edge orbit representatives follow from
g's, first pairs of orbits in lexicographic order as they are:

- k = 0: (0, r+1) for each vertex-orbit root r of g, then every (u, v) of
  g as (u+1, v+1), so a class with no isolated vertex carries its
  vertex-orbit roots;
- k = 1: (0, 1), the pair of the two isolated vertices, comes first;
- k >= 2: g's (0, 1) stays (0, 1);
- for k >= 1, each other (0, v) of g becomes (0, v+1), since the new vertex
  and g's isolated vertices are twins, and every other (u, v) becomes
  (u+1, v+1).

The search drops its reference to itself when it ends, so a labelling
leaves no reference cycle and reference counting frees all it allocates.

This is exact, not heuristic: two graphs get the same label iff they are
isomorphic.  Speed is adequate for the n <= 10 graphs this package works
with, and for the caterpillar hosts of about 30 vertices.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import islice

from .errors import InvalidParameterError
from .graphs import Edge, Graph, normalise_edge, to_graph6


def _refine(adjb: list[int], cells: list[int]) -> list[int]:
    """Coarsest equitable partition refining `cells`, each cell a bitmask
    of its vertices.

    A bitmask holds exactly the vertices of a sorted cell, read in
    ascending order, so every rule below reads the same on either form.
    Cells are kept in a deterministic order: the first cell that some cell,
    its source, splits (sources and then targets taken in order) is
    replaced in place by its fragments ordered by ascending neighbour count
    toward the source, which is a label-independent rule, so the procedure
    commutes with isomorphisms.  The unit partition is its own first
    source, so it splits into the degree classes in ascending order and
    resumes at the first cell.
    A singleton source {s} splits a cell with one AND, into the fragments
    cell & ~N(s) and cell & N(s) (counts 0 and 1).  After a split of target
    `ci` by source `si` the scan resumes at source min(si, ci) rather than
    at the first cell: the cells before it are unchanged and split nothing,
    and the fragments of a cell that had equal neighbour counts toward them
    still have.  For the same reason, when the target lies after the source
    the scan of that source goes on over the fragments, which it splits no
    further.  So each split made is the one a scan from the first cell
    would make.  A target is split exactly when some vertex has a count
    other than its first vertex's, so the scan stops at the first such
    vertex and groups the cell only then: the splits are the same as
    grouping every cell would make.
    """
    cells = list(cells)
    n = len(adjb)
    si = 0
    while si < len(cells) < n:  # a discrete partition is equitable
        smask = cells[si]
        single = adjb[smask.bit_length() - 1] if smask & (smask - 1) == 0 else None
        for ci, cell in enumerate(cells):
            if cell & (cell - 1) == 0:
                continue
            if single is not None:
                inter = cell & single
                if inter == 0 or inter == cell:
                    continue
                fragments = [cell ^ inter, inter]
            else:
                low = cell & -cell
                k0 = (adjb[low.bit_length() - 1] & smask).bit_count()
                rest = cell ^ low
                while rest:
                    bit = rest & -rest
                    k = (adjb[bit.bit_length() - 1] & smask).bit_count()
                    if k != k0:
                        break
                    rest ^= bit
                else:
                    continue
                groups = {k0: cell ^ rest}
                while rest:
                    bit = rest & -rest
                    k = (adjb[bit.bit_length() - 1] & smask).bit_count()
                    groups[k] = groups.get(k, 0) | bit
                    rest ^= bit
                fragments = [groups[k] for k in sorted(groups)]
            cells[ci:ci + 1] = fragments
            if ci <= si:
                si = ci
                break
        else:
            si += 1
    return cells


def labelling(g: Graph) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """Canonical position map of `g` (vertex v goes to pos[v]) and generators
    of its automorphism group."""
    pos, gens, _ = _label(g.n, g.adjacency_bits(), g.edges)
    return pos, gens


def _label(n: int, adjb: list[int], edges) -> tuple[tuple[int, ...], tuple, int]:
    """:func:`labelling` of the graph on 0..n-1 with the adjacency bitmasks
    `adjb` and the edges `edges` (u < v, in any order), and the encoding of
    its canonical graph: bit a * n + b for each of its edges (a, b), a < b."""
    if n == 0:
        return (), (), 0
    identity = tuple(range(n))

    best: list = [None, None]    # encoding, position tuple
    first: list = [None, None]
    root = _refine(adjb, [(1 << n) - 1])
    # twin seeds and classes: see the module docstring
    gens, twin_of = _twins(adjb) if len(root) < n else ([], None)
    gen_seen = set(gens)

    def record_leaf(cells):
        pos = [0] * n
        i = 0
        for c in cells:  # a twin cell splits into singletons in ascending order
            while c:
                pos[(c & -c).bit_length() - 1] = i
                i += 1
                c &= c - 1
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
        # a node whose non-singleton cells are all twin cells is a leaf
        target = None
        for i, c in enumerate(cells):
            if c & (c - 1):
                if target is None:
                    target = i
                if c & ~twin_of[c.bit_length() - 1]:
                    break
        else:
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
        for v in [w for w in range(n) if cell >> w & 1]:
            if tried and gens:
                if known < len(gens):
                    known = len(gens)
                    roots = orbit_roots(n, [s for s in gens if all(s[f] == f for f in fixed)])
                if any(roots[u] == roots[v] for u in tried):
                    continue
            child = cells[:target] + [1 << v, cell ^ 1 << v] + cells[target + 1:]
            dfs(_refine(adjb, child), fixed + (v,))
            tried.append(v)

    dfs(root, ())
    dfs = None  # dfs calls itself: unbinding it frees it with no cycle left
    return best[1], tuple(gens), best[0]


def _encoded_graph(n: int, enc: int) -> tuple[tuple[Edge, ...], tuple[int, ...]]:
    """The edges (a, b) of an encoding from :func:`_label`, in sorted order
    and shared with :func:`_pair_table`, and the adjacency bitmasks of the
    graph they make."""
    mask = (1 << n) - 1
    pairs, index = _pair_table(n)
    edges = []
    adjb = [0] * n
    for a in range(n - 1):
        row = enc >> a * n & mask  # the neighbours b > a of a
        adjb[a] |= row
        while row:
            low = row & -row
            b = low.bit_length() - 1
            edges.append(pairs[index[a * n + b]])
            adjb[b] |= 1 << a
            row ^= low
    return tuple(edges), tuple(adjb)


def twin_classes(adjb: list[int]) -> list[list[int]]:
    """The classes of two or more twins, each in ascending order: vertices
    with the same open neighbourhood, then those with the same closed one,
    each kind by least vertex.  A vertex with an open twin has no closed
    twin, so no vertex lies in two classes."""
    classes = []
    for neighbourhoods in (adjb, [a | 1 << v for v, a in enumerate(adjb)]):
        if len(set(neighbourhoods)) < len(adjb):  # some twins of this kind
            twins: dict[int, list[int]] = {}
            for v, a in enumerate(neighbourhoods):
                twins.setdefault(a, []).append(v)
            classes += [cls for cls in twins.values() if len(cls) > 1]
    return classes


def _twins(adjb: list[int]) -> tuple[list[tuple[int, ...]], list[int]]:
    """The transposition of each two consecutive vertices of a class of
    :func:`twin_classes`, an automorphism, and for each vertex the bitmask
    of its class."""
    n = len(adjb)
    seeds = []
    twin_of = [1 << v for v in range(n)]
    for cls in twin_classes(adjb):
        for a, b in zip(cls, cls[1:]):
            sigma = list(range(n))
            sigma[a], sigma[b] = b, a
            seeds.append(tuple(sigma))
        mask = sum(1 << v for v in cls)
        for v in cls:
            twin_of[v] = mask
    return seeds, twin_of


def canonical_graph(g: Graph) -> Graph:
    pos = labelling(g)[0]
    return g.relabel(list(pos))


def canonical_form(g: Graph) -> bytes:
    """Complete isomorphism invariant: graph6 of the canonical relabelling."""
    return to_graph6(canonical_graph(g)).encode("ascii")


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


@lru_cache(maxsize=None)
def _pair_table(n: int) -> tuple[list[Edge], list[int]]:
    """The pairs u < v in lexicographic order, and the position of the pair
    {u, v} at index[u * n + v] and index[v * n + u]."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    index = [0] * (n * n)
    for i, (u, v) in enumerate(pairs):
        index[u * n + v] = index[v * n + u] = i
    return pairs, index


def non_edge_representatives(adjb, gens) -> list[Edge]:
    """The first non-edge of each orbit under the group that the automorphisms
    `gens` of the graph with adjacency bitmasks `adjb` generate, in
    lexicographic order, shared with :func:`_pair_table`.  The orbits are
    walked over the non-edges alone, which automorphisms permute."""
    n = len(adjb)
    pairs, index = _pair_table(n)
    non_edges = [p for p in pairs if not adjb[p[0]] >> p[1] & 1]
    if not gens:
        return non_edges
    at = [0] * len(pairs)  # the position of each non-edge among them
    for i, (u, v) in enumerate(non_edges):
        at[index[u * n + v]] = i
    roots = orbit_roots(len(non_edges),
                        [[at[index[s[u] * n + s[v]]] for u, v in non_edges] for s in gens])
    return [p for i, p in enumerate(non_edges) if roots[i] == i]


def non_edge_orbit_representatives(g: Graph) -> list[Edge]:
    """The first non-edge of each non-edge orbit, in lexicographic order."""
    return non_edge_representatives(g.adjacency_bits(), automorphism_generators(g))


# -- canonical augmentation ---------------------------------------------------------

# The levels of each order that callers sharing the memo have made (see
# `class_levels`), as lists of classes; at most LEVEL_MEMO_CLASSES classes
# over all orders (5.1-5.2 MiB, 650-680 B a class, when the levels of order
# 8 or 9 fill it, as tracemalloc counts it).
LEVEL_MEMO_CLASSES = 8192
_LEVEL_MEMO: dict[int, list] = {}


def class_levels(n: int, shared: bool):
    """The levels of order n, each class as (canonical graph, non-edge
    orbit representatives, adjacency bitmasks, vertex-orbit roots, parent).

    Level m holds the classes of level m of order n-1, padded
    (:func:`_padded`), in their order, then the children of level m-1 of
    order n that have no isolated vertex (:func:`_canonical_children`), in
    the order of their parents, whether a level is made or served from the
    memo.  The roots are carried only by a class with no isolated vertex,
    the one kind whose padding needs them; a padded class has None.  The
    parent is the position in level m-1 of order n of a class C - f, f an
    edge of C (None at level 0): a child's is the class it grew from, and a
    padded class's is the one its class of order n-1 carries, since level
    m-1 opens with the same classes padded, in the same order.

    `shared` chooses between the two ways to take them.  Without it the
    levels stream: none is kept.  With it the levels of every order that
    the level memo holds are served from it, and a level made is appended
    to it while the memo has room for it over all orders; a level that
    does not fit, and every later level of its order, streams.  A level is
    made only when it is asked for, and level m of order n-1 is asked for
    only when level m of order n is made.
    """
    if n < 1:
        raise InvalidParameterError("enumeration needs n >= 1")
    memo = _LEVEL_MEMO if shared else None
    held = [] if memo is None else memo.setdefault(n, [])
    below = class_levels(n - 1, shared) if n > 1 else iter(_ORDER_0)
    asked = 0  # levels taken from `below`
    level: list = []
    for m in range(n * (n - 1) // 2 + 1):
        if m < len(held):
            level = held[m]
        else:
            lower = next(islice(below, m - asked, None), [])
            asked = m + 1
            children = [child for i, (g, reps, adjb, *_) in enumerate(level)
                        for child in _canonical_children(g, reps, adjb, i)]
            level = [_padded(*c) for c in lower] + children
            fits = memo is not None and _memo_classes(memo) + len(level) <= LEVEL_MEMO_CLASSES
            if fits and len(held) == m:
                held.append(level)
        yield level


# Order 0's one level, whose padding is order 1's level 0.
_ORDER_0 = ([(Graph(0, ()), [], (), (), None)],)


def _memo_classes(memo: dict[int, list]) -> int:
    """Classes the level memo holds, over all orders."""
    return sum(len(level) for levels in memo.values() for level in levels)


def _isolated(g: Graph) -> int:
    """The number k of isolated vertices of a canonical graph g.  They are
    its vertices 0..k-1 (see the module docstring), so k is the first end of
    its first edge."""
    return g.edges[0][0] if g.edges else g.n


def _padded(g: Graph, reps, adjb, roots, parent):
    """The class of g plus an isolated vertex, as :func:`class_levels`
    carries it: the new vertex is 0 and every vertex v of g moves to v+1.
    This graph is canonical, and its non-edge orbit representatives follow
    from g's (see the module docstring)."""
    n = g.n
    k = _isolated(g)
    # The pairs are those of `_pair_table`, as a labelled class's are, so
    # padding allocates no pair for the memo to hold and the garbage
    # collector to scan: (u, v) sits at index[u * m + v], so g's (u, v)
    # moves to the pair at index[u * m + v + m + 1].
    m = n + 1
    pairs, index = _pair_table(m)
    if k == 0:
        new_reps = [pairs[index[r + 1]] for r in roots]
        new_reps += [pairs[index[u * m + v + m + 1]] for u, v in reps]
    else:
        # g's isolated pair (0, 1) stays (0, 1); with k = 1 it is new
        new_reps = [pairs[0]]
        new_reps += [pairs[index[v + 1] if u == 0 else index[u * m + v + m + 1]]
                     for u, v in (reps[1:] if k > 1 else reps)]
    edges = tuple([pairs[index[u * m + v + m + 1]] for u, v in g.edges])
    return Graph._trusted(m, edges), new_reps, (0, *[a << 1 for a in adjb]), None, parent


def _canonical_children(parent: Graph, non_edges, adjb: tuple[int, ...], position: int):
    """The children P + e of a canonical graph P that have no isolated
    vertex, one per isomorphism class whose canonical parent is P, as
    :func:`class_levels` carries a class: P's position in its level is
    `position`, each child's parent.

    `non_edges` holds one non-edge e per orbit of Aut(P), and `adjb` the
    adjacency bitmasks of P.  Only the e that leave no vertex isolated are
    tried: none when P has three or more isolated vertices, (0, 1) when it
    has two, those at vertex 0 when it has one, and every e when it has
    none.  Automorphisms of P map such an e to another, so the first pair
    of its orbit is one of them.
    The child C = P + e is kept only if e lies in the Aut(C)-orbit of C's
    canonical deletion edge m(C): among the edges with the largest (degree
    sum, smaller degree, common neighbours, neighbour degrees) of their ends
    in C, the one whose image under C's canonical labelling is largest.  The
    common neighbours (the triangles through the edge) and then the
    neighbour degrees (the degrees of the neighbours of both ends, summed)
    break ties of the degree pair; both are counted in C, where e is an
    edge.  Any isomorphism invariant would do: C - m(C) is the same class
    whatever labelling C comes in, so each class with m+1 edges is kept
    exactly once, from the representative of C - m(C).  A child whose e
    does not have the largest invariant is refused before it is labelled,
    and one whose e alone has it is m(C).  A labelled child is built once,
    with its bitmasks, from the encoding of its canonical graph.
    """
    n = parent.n
    k = _isolated(parent)
    if k > 2:
        return
    if k:
        non_edges = non_edges[:1] if k == 2 else [e for e in non_edges if e[0] == 0]
    deg = [a.bit_count() for a in adjb]
    keys = _degree_keys(n)
    # Degrees only grow from P to C, so an edge of P whose key in P beats
    # the key of e in C beats it in C as well.
    parent_top = max((keys[deg[a]][deg[b]] for a, b in parent.edges), default=-1)
    for e in non_edges:
        u, v = e
        if parent_top > keys[deg[u] + 1][deg[v] + 1]:
            continue
        child_deg = list(deg)
        child_deg[u] += 1
        child_deg[v] += 1
        child_adjb = list(adjb)
        child_adjb[u] |= 1 << v
        child_adjb[v] |= 1 << u
        top = _top_invariant_edges(e, parent.edges, child_deg, child_adjb)
        if top is None:
            continue
        pos, child_gens, enc = _label(n, child_adjb, parent.edges + (e,))
        if len(top) > 1:
            m = max(top, key=lambda ab: normalise_edge(pos[ab[0]], pos[ab[1]]))
            if m != e and not _in_pair_orbit(n, child_gens, e, m):
                continue
        at = sorted(range(n), key=pos.__getitem__)  # the vertex at each position
        edges, canonical_adjb = _encoded_graph(n, enc)
        canonical = Graph._trusted(n, edges)
        gens = [[pos[s[x]] for x in at] for s in child_gens]
        roots = orbit_roots(n, gens) if gens else range(n)
        yield (canonical, non_edge_representatives(canonical_adjb, gens), canonical_adjb,
               tuple([v for v in range(n) if roots[v] == v]), position)


def _in_pair_orbit(n: int, gens, e: Edge, f: Edge) -> bool:
    """Whether the pair f lies in the orbit of the pair e != f under the
    group that the permutations `gens` of 0..n-1 generate.  The orbit is
    walked breadth-first from e and the walk stops at f.  It stays beside
    :func:`orbit_roots` because it walks one orbit, not all n(n-1)/2
    pairs: taking the roots over :func:`_pair_table` instead slowed the
    `enumerate` benchmark workload by 3.5% (1.212 -> 1.254 s), in 10 of 10
    alternating pairs on a 2-vCPU VM with Python 3.11, past the 0.039 s
    quartile spread of its runs."""
    goal = f[0] * n + f[1]
    orbit = [e[0] * n + e[1]]
    seen = set(orbit)
    for p in orbit:
        a, b = divmod(p, n)
        for s in gens:
            x, y = s[a], s[b]
            q = x * n + y if x < y else y * n + x
            if q == goal:
                return True
            if q not in seen:
                seen.add(q)
                orbit.append(q)
    return False


@lru_cache(maxsize=None)
def _degree_keys(n: int) -> list[list[int]]:
    """At [du][dv], the (degree sum, smaller degree) of an edge whose ends
    have degrees du, dv < n, as one integer ordered as those pairs are."""
    return [[(du + dv) * n + min(du, dv) for dv in range(n)] for du in range(n)]


def _top_invariant_edges(
    e: Edge, others, deg: list[int], adjb: list[int]
) -> list[Edge] | None:
    """The edges among `e` and `others` with the largest (degree sum,
    smaller degree, common neighbours, neighbour degrees) of their ends, or
    None if `e` is not one of them; `e` comes first.  Each part of the key
    is read only for the edges tied on the parts before it.  `deg` and
    `adjb` are the degrees and adjacency bitmasks of the graph that has all
    these edges."""
    keys = _degree_keys(len(deg))
    u, v = e
    top_key = keys[deg[u]][deg[v]]
    tied = []
    for a, b in others:
        key = keys[deg[a]][deg[b]]
        if key > top_key:
            return None
        if key == top_key:
            tied.append((a, b))
    top = [e]
    top_common = (adjb[u] & adjb[v]).bit_count()
    for a, b in tied:
        common = (adjb[a] & adjb[b]).bit_count()
        if common > top_common:
            return None
        if common == top_common:
            top.append((a, b))
    if len(top) == 1:
        return top
    top_around = _neighbour_degrees(u, v, deg, adjb)
    kept = [e]
    for a, b in top[1:]:
        around = _neighbour_degrees(a, b, deg, adjb)
        if around > top_around:
            return None
        if around == top_around:
            kept.append((a, b))
    return kept


def _neighbour_degrees(a: int, b: int, deg: list[int], adjb: list[int]) -> int:
    """The degrees of the neighbours of a and of b, summed."""
    total = 0
    for bits in (adjb[a], adjb[b]):
        while bits:
            low = bits & -bits
            total += deg[low.bit_length() - 1]
            bits ^= low
    return total

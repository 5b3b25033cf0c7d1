"""Ground truth by brute force: graph censuses and saturation minima.

Graphs of a given order are enumerated one representative per isomorphism
class by canonical augmentation: each class is grown from exactly one parent
class by adding one edge, so no child is compared with another, and each
class comes with one representative per non-edge orbit of its automorphism
group, taken from the generators its labelling found.  Only the classes with
no isolated vertex are grown so: a graph of order n with an isolated vertex
is a graph of order n-1 plus one, so the other classes of each level are
those of the same level of order n-1, padded, which labels nothing.  A
level keeps the order in which it is made: the padded classes, then the
children in the order of their parents.  A census walks the classes in
ascending edge count and reports the least edge count at which the
requested property holds, together with every minimum witness.  It stops
on the level of that value (or of the edge cap) and makes no later level,
at its order or below.  The levels a census makes, at its order and at the
orders below that they are padded from, go into one level memo, shared by
every census in the process whatever its order and bounded by
`LEVEL_MEMO_CLASSES` classes over all orders; levels past the bound stream,
two at a time, as :func:`enumerate_graphs_by_edges` always does.

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

The three quantities share one per-class verdict (:func:`_class_verdict`),
which checks the carried non-edge orbit representatives rather than those of
a new labelling search.  `sat` and `ssat` take a base test on the graph and
a step test on each representative (see :mod:`rslab.engine`); their verdicts
are exact.  `prsat` decides the base and every step in one budgeted walk
over the rainbow-free colourings of the graph
(:func:`rslab.engine.prsat_in_one_walk`), and may stay Unknown.  Each
class is asked once, under the census budget; a class Unknown at or below
the value poisons exactness and is reported on the record rather than
guessed.  For a connected pattern on k vertices a class is first refuted,
with no walk and no matcher call, when the components of the ends of some
carried non-edge hold fewer than k vertices (:func:`_too_small`).
"""

from __future__ import annotations

import fcntl
import json
import os
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from pathlib import Path

from .canon import (
    _encoded_graph,
    _label,
    _pair_table,
    non_edge_representatives,
    orbit_roots,
)
from .colouring import is_proper
from .engine import (
    DEFAULT_BUDGET,
    SearchVerdict,
    Status,
    find_rainbow_copy,
    is_saturated,
    is_semi_saturated,
    prsat_in_one_walk,
)
from .errors import CacheAccessError, CacheMismatchError, InvalidParameterError
from .graphs import Edge, Graph, from_graph6, normalise_edge, to_graph6
from .patterns import PatternSpec, parse_pattern

CACHE_ENV_VAR = "RSLAB_CACHE"

# Per quantity: the largest order a census accepts, and whether its verdicts
# spend a node budget (the records of the others store budget null).
QUANTITIES = {"sat": (9, False), "ssat": (9, False), "prsat": (8, True)}

# The levels of each order that censuses in this process have made, at
# their orders and below, as lists of classes (see `_class_levels`), shared
# by every census; at most LEVEL_MEMO_CLASSES classes over all orders
# (5.1-5.2 MiB, 650-680 B a class, when the levels of order 8 or 9 fill
# it, as tracemalloc counts it).
LEVEL_MEMO_CLASSES = 8192
_LEVEL_MEMO: dict[int, list] = {}


# -- enumeration ----------------------------------------------------------------


def enumerate_graphs_by_edges(n: int):
    """Yield, per edge count 0,1,2,..., the canonical class representatives.

    Each level holds exactly one graph per isomorphism class, as its
    canonical graph, in the order :func:`_class_levels` makes them.  Level
    m+1 is generated from level m by canonical augmentation (McKay, 1998):
    every child accepts or rejects itself, with no comparison against other
    children (see :func:`_canonical_children`); the classes with an isolated
    vertex are those of order n-1 padded.  Levels stream: none is kept.
    """
    for level in _class_levels(n, None):
        yield [g for g, _, _, _ in level]


def _class_levels(n: int, memo: dict[int, list] | None):
    """The levels of order n, each class as (canonical graph, non-edge
    orbit representatives, adjacency bitmasks, vertex-orbit roots).

    Level m holds the classes of level m of order n-1, padded
    (:func:`_padded`), in their order, then the children of level m-1 of
    order n that have no isolated vertex (:func:`_canonical_children`), in
    the order of their parents.  That order is the same whether a level is
    made or served from `memo`, and no census record depends on it: a
    census sorts its witnesses and unresolved classes, and sums the rest.
    The roots are carried only by a class with no isolated vertex, the one
    kind whose padding needs them; a padded class has None.

    With `memo`, the levels of every order that it holds are served from
    it, and a level made is appended to it while the memo has room for it
    over all orders; a level that does not fit, and every later level of
    its order, streams.  A level is made only when it is asked for, and
    level m of order n-1 is asked for only when level m of order n is made.
    """
    if n < 1:
        raise InvalidParameterError("enumeration needs n >= 1")
    held = [] if memo is None else memo.setdefault(n, [])
    below = _class_levels(n - 1, memo) if n > 1 else iter(_ORDER_0)
    asked = 0  # levels taken from `below`
    level: list = []
    for m in range(n * (n - 1) // 2 + 1):
        if m < len(held):
            level = held[m]
        else:
            lower = next(islice(below, m - asked, None), [])
            asked = m + 1
            children = [child for g, reps, adjb, _ in level
                        for child in _canonical_children(g, reps, adjb)]
            level = [_padded(*c) for c in lower] + children
            fits = memo is not None and _memo_classes(memo) + len(level) <= LEVEL_MEMO_CLASSES
            if fits and len(held) == m:
                held.append(level)
        yield level


# Order 0's one level, whose padding is order 1's level 0.
_ORDER_0 = ([(Graph(0, ()), [], (), ())],)


def _memo_classes(memo: dict[int, list]) -> int:
    """Classes the level memo holds, over all orders."""
    return sum(len(level) for levels in memo.values() for level in levels)


def _isolated(g: Graph) -> int:
    """The number k of isolated vertices of a canonical graph g.  They are
    its vertices 0..k-1 (see the module docstring), so k is the first end of
    its first edge."""
    return g.edges[0][0] if g.edges else g.n


def _padded(g: Graph, reps, adjb, roots):
    """The class of g plus an isolated vertex, as :func:`_class_levels`
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
    return Graph._trusted(m, edges), new_reps, (0, *[a << 1 for a in adjb]), None


def _canonical_children(parent: Graph, non_edges, adjb: tuple[int, ...]):
    """The children P + e of a canonical graph P that have no isolated
    vertex, one per isomorphism class whose canonical parent is P, as
    :func:`_class_levels` carries a class.

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
               tuple([v for v in range(n) if roots[v] == v]))


def _in_pair_orbit(n: int, gens, e: Edge, f: Edge) -> bool:
    """Whether the pair f lies in the orbit of the pair e != f under the
    group that the permutations `gens` of 0..n-1 generate.  The orbit is
    walked breadth-first from e and the walk stops at f."""
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


# -- census records ---------------------------------------------------------------


@dataclass(frozen=True)
class CensusRecord:
    """Outcome of one brute-force minimum computation.

    `value` is None when no graph within the edge cap qualified.  `exact`
    is False when some class at or below the value (or the cap) stayed
    Unknown; those classes are listed in `unresolved`.  `budget` bounds the
    one colouring walk of each prsat class, and `nodes_explored` sums the
    nodes of those walks (not their extension calls); a class refuted by
    component sizes takes no walk, so it adds none and is never unresolved.
    `total_graphs_examined` counts the classes asked, each asked once.
    """

    n: int
    pattern: str
    quantity: str
    value: int | None
    exact: bool
    witnesses: tuple[str, ...]
    unresolved: tuple[str, ...]
    total_graphs_examined: int
    budget: int | None
    nodes_explored: int
    edge_cap: int | None = None

    def key(self) -> tuple:
        return (self.n, self.pattern, self.quantity, self.edge_cap)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "pattern": self.pattern,
            "quantity": self.quantity,
            "value": self.value,
            "exact": self.exact,
            "witnesses": list(self.witnesses),
            "unresolved": list(self.unresolved),
            "total_graphs_examined": self.total_graphs_examined,
            "budget": self.budget,
            "nodes_explored": self.nodes_explored,
            "edge_cap": self.edge_cap,
        }

    @staticmethod
    def from_json_dict(d: dict) -> "CensusRecord":
        return CensusRecord(
            n=int(d["n"]),
            pattern=str(d["pattern"]),
            quantity=str(d["quantity"]),
            value=None if d["value"] is None else int(d["value"]),
            exact=bool(d["exact"]),
            witnesses=tuple(d["witnesses"]),
            unresolved=tuple(d["unresolved"]),
            total_graphs_examined=int(d["total_graphs_examined"]),
            budget=None if d.get("budget") is None else int(d["budget"]),
            nodes_explored=int(d.get("nodes_explored", 0)),
            edge_cap=None if d.get("edge_cap") is None else int(d["edge_cap"]),
        )

    def verify(self, budget: int | None = None) -> bool:
        """Re-run the verdict on every stored witness."""
        spec = parse_pattern(self.pattern, allow_files=False)
        for w in self.witnesses:
            g = from_graph6(w)
            if self.value is not None and len(g.edges) != self.value:
                return False
            verdict = _class_verdict(g, None, spec, self.quantity, budget or self.budget)
            if verdict.status is not Status.ESTABLISHED:
                return False
        return True


def _class_verdict(
    g: Graph, non_edges, spec: PatternSpec, quantity: str, budget: int | None
) -> SearchVerdict:
    """The verdict of one graph, checking the non-edges `non_edges`: in a
    census one per automorphism orbit, carried by the level; None leaves
    them to the engine's defaults (every non-edge for sat and ssat, one per
    orbit for prsat).  A prsat class takes one colouring walk, which
    `budget` bounds; its nodes are that walk's, not its extension calls."""
    if quantity == "prsat":
        return prsat_in_one_walk(g, spec, budget, non_edges)
    return {"sat": is_saturated, "ssat": is_semi_saturated}[quantity](g, spec, non_edges)


def _too_small(adjb, non_edges, k: int) -> bool:
    """Whether the ends of some non-edge (u, v) lie in components, given by
    the adjacency bitmasks `adjb`, with fewer than k vertices in all.  No
    copy of a connected pattern on k vertices then passes through (u, v),
    so the class is Refuted in all three modes: for prsat, a rainbow-free
    colouring of the class, if any, extends to (u, v) by a new colour."""
    comp = [0] * len(adjb)  # each vertex's component, once flooded
    for u, v in non_edges:
        for x in (u, v):
            if not comp[x]:
                seen = todo = _component_of(adjb, x)
                while todo:
                    low = todo & -todo
                    comp[low.bit_length() - 1] = seen
                    todo ^= low
        if (comp[u] | comp[v]).bit_count() < k:
            return True
    return False


def _component_of(adjb, x: int) -> int:
    """The vertices of the component of x, as a bitmask, flooded from the
    adjacency bitmasks `adjb`."""
    seen = todo = 1 << x
    while todo:
        low = todo & -todo
        todo ^= low
        new = adjb[low.bit_length() - 1] & ~seen
        seen |= new
        todo |= new
    return seen


def _census(
    n: int,
    spec: PatternSpec,
    quantity: str,
    budget: int | None,
    edge_cap: int | None,
) -> CensusRecord:
    examined = 0
    nodes_total = 0
    value: int | None = None
    witnesses: list[Graph] = []
    unresolved: list[Graph] = []

    # A disconnected pattern may have a copy that no component holds whole.
    k = spec.graph.n if spec.graph.is_connected() else 0
    # Levels 0..value, or 0..edge_cap if no class qualifies: the loop stops
    # on the last level it examines, so no later level is made.
    for m, level in enumerate(_class_levels(n, _LEVEL_MEMO)):
        for g, non_edges, adjb, _ in level:
            examined += 1
            if k and _too_small(adjb, non_edges, k):
                continue
            verdict = _class_verdict(g, non_edges, spec, quantity, budget)
            nodes_total += verdict.nodes_explored
            if verdict.status is Status.ESTABLISHED:
                value = m
                witnesses.append(g)
            elif verdict.status is Status.UNKNOWN:
                unresolved.append(g)
        if value is not None or m == edge_cap:
            break
    return CensusRecord(
        n=n,
        pattern=spec.token(),
        quantity=quantity,
        value=value,
        exact=not unresolved,
        witnesses=tuple(sorted(map(to_graph6, witnesses))),
        unresolved=tuple(sorted(map(to_graph6, unresolved))),
        total_graphs_examined=examined,
        budget=budget,
        nodes_explored=nodes_total,
        edge_cap=edge_cap,
    )


def census(
    quantity: str,
    n: int,
    spec: PatternSpec,
    *,
    budget: int | None = DEFAULT_BUDGET,
    edge_cap: int | None = None,
    cache_dir: str | Path | None = None,
    force: bool = False,
) -> CensusRecord:
    """Minimum edges of an n-vertex graph with the property `quantity`
    (sat, ssat or prsat) for the pattern, with at most `edge_cap` edges.

    With a cache dir (or RSLAB_CACHE) an exact cached record is re-verified
    and returned, and a computed one is stored.  For prsat, `budget` bounds
    the one colouring walk of each class.
    """
    if quantity not in QUANTITIES:
        raise InvalidParameterError(f"unknown quantity {quantity!r}")
    max_order, budgeted = QUANTITIES[quantity]
    if n > max_order:
        raise InvalidParameterError(
            f"{quantity} census supports n <= {max_order}; pass a smaller n"
        )
    if edge_cap is not None and edge_cap < 0:
        raise InvalidParameterError(f"edge cap must be non-negative, got {edge_cap}")
    if not budgeted:
        budget = None
    root = resolve_cache_dir(cache_dir)
    key = (n, spec.token(), quantity, edge_cap)
    if root is not None and not force:
        cached = _on_cache(load_cached_record, root, key)
        if cached is not None and cached.exact:
            if not cached.verify(budget):
                raise CacheMismatchError(f"cached witnesses for {key} fail to verify")
            return cached
    record = _census(n, spec, quantity, budget, edge_cap)
    if root is not None:
        _on_cache(store_record, root, record, force)
    return record


def sat_number(
    n: int,
    spec: PatternSpec,
    edge_cap: int | None = None,
    cache_dir: str | Path | None = None,
    force: bool = False,
) -> CensusRecord:
    """Minimum edges of an n-vertex graph saturated for the pattern."""
    return census("sat", n, spec, edge_cap=edge_cap, cache_dir=cache_dir, force=force)


def prsat_number(
    n: int,
    spec: PatternSpec,
    budget: int | None = DEFAULT_BUDGET,
    edge_cap: int | None = None,
    workers: int = 1,
    cache_dir: str | Path | None = None,
    force: bool = False,
) -> CensusRecord:
    """Minimum edges of an n-vertex properly rainbow saturated graph.

    Censuses run in one process; `workers` is accepted only as 1.
    """
    if workers != 1:
        raise InvalidParameterError(f"a census runs in one process: workers must be 1, "
                                    f"got {workers}")
    return census("prsat", n, spec, budget=budget, edge_cap=edge_cap,
                  cache_dir=cache_dir, force=force)


# -- persistence -------------------------------------------------------------------


def resolve_cache_dir(cache_dir: str | Path | None) -> Path | None:
    if cache_dir is not None:
        return Path(cache_dir)
    env = os.environ.get(CACHE_ENV_VAR)
    return Path(env) if env else None


def _on_cache(op, root: Path, *args):
    """`op(root, *args)`, an OSError on the cache raised as a
    CacheAccessError that names the path."""
    try:
        return op(root, *args)
    except OSError as exc:
        path = exc.filename or root
        raise CacheAccessError(f"census cache {path}: {exc.strerror or exc}") from exc


def _cache_file(root: Path, quantity: str) -> Path:
    return root / f"census-{quantity}.jsonl"


def _read_records(path: Path):
    """The records of a cache file, skipping any line that does not parse
    (such as one a crash cut short): its record reads as a cache miss."""
    if not path.exists():
        return
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        try:
            rec = CensusRecord.from_json_dict(json.loads(line))
        except (ValueError, KeyError, TypeError):
            continue
        yield rec


def load_cached_record(root: Path, key: tuple) -> CensusRecord | None:
    for rec in _read_records(_cache_file(root, key[2])):
        if rec.key() == key:
            return rec
    return None


def store_record(root: Path, record: CensusRecord, force: bool = False) -> None:
    """Add or replace one record; the file is rewritten through a temporary
    file and a rename, so a crash mid-write leaves the old file whole.
    Unparseable lines of the old file are dropped.  An exact old record
    that disagrees is replaced only with `force`; an inexact one always.

    Writers take an exclusive `flock` on the cache dir itself for the whole
    read-modify-write, so two processes storing at once cannot drop each
    other's new rows; readers need no lock, since the rename is atomic."""
    root.mkdir(parents=True, exist_ok=True)
    lock = os.open(root, os.O_RDONLY)
    try:
        fcntl.flock(lock, fcntl.LOCK_EX)
        _rewrite(_cache_file(root, record.quantity), record, force)
    finally:
        os.close(lock)


def _rewrite(path: Path, record: CensusRecord, force: bool) -> None:
    rows = list(_read_records(path))
    replaced = False
    for i, old in enumerate(rows):
        if old.key() == record.key():
            same = (old.value, old.witnesses) == (record.value, record.witnesses)
            if old.exact and not same and not force:
                raise CacheMismatchError(
                    f"cached record for {old.key()} disagrees; rerun with force"
                )
            rows[i] = record
            replaced = True
            break
    if not replaced:
        rows.append(record)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(
            "".join(json.dumps(r.to_json_dict(), sort_keys=True) + "\n" for r in rows),
            encoding="utf-8",
        )
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


# -- certificate re-check, for constructions.verify_bundle and perfbench ------------


def rainbow_free_certificate_ok(g: Graph, spec: PatternSpec, colouring) -> bool:
    """Independent re-check of an Established certificate."""
    return is_proper(g, colouring) and find_rainbow_copy(g, colouring, spec) is None

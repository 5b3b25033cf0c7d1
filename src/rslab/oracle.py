"""Ground truth by brute force: graph censuses and saturation minima.

Graphs of a given order are enumerated one representative per isomorphism
class by canonical augmentation: each class is grown from exactly one parent
class by adding one edge, so no child is compared with another, and each
class comes with one representative per non-edge orbit of its automorphism
group, taken from the generators its labelling found.  A census walks the
classes in ascending edge count and reports the least edge count at which
the requested property holds, together with every minimum witness.  It
stops on the level of that value (or of the edge cap) and makes no later
level.  The levels a census makes go into one level memo, shared by every
census of the same order in the process and bounded by
`LEVEL_MEMO_CLASSES` classes; levels past the bound stream, two at a time,
as :func:`enumerate_graphs_by_edges` always does.

The three quantities share one per-class verdict (:func:`_class_verdict`),
which checks the carried non-edge orbit representatives rather than those of
a new labelling search.  `sat` and `ssat` take a base test on the graph and
a step test on each representative (see :mod:`rslab.engine`); their verdicts
are exact.  `prsat` decides the base and every step in one budgeted walk
over the rainbow-free colourings of the graph
(:func:`rslab.engine.prsat_in_one_walk`), and may stay Unknown.  An
Unknown class is retried at once with a ten-fold budget, in the one pass
over the levels; one still Unknown at or below the value poisons exactness
and is reported on the record rather than guessed.
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
    _encoded_edges,
    _label,
    _pair_table,
    labelling,
    non_edge_representatives,
    pair_orbit_roots,
)
from .colouring import is_proper
from .engine import (
    Status,
    find_rainbow_copy,
    is_saturated,
    is_semi_saturated,
    prsat_in_one_walk,
)
from .errors import CacheMismatchError, InvalidParameterError
from .graphs import Edge, Graph, from_graph6, normalise_edge, to_graph6
from .patterns import PatternSpec, parse_pattern

DEFAULT_CENSUS_BUDGET = 10_000_000
ESCALATION_FACTOR = 10
CACHE_ENV_VAR = "RSLAB_CACHE"

# Per quantity: the largest order a census accepts, and whether its verdicts
# spend a node budget (the records of the others store budget null).
QUANTITIES = {"sat": (9, False), "ssat": (9, False), "prsat": (8, True)}

# The levels of each order that censuses in this process have made, as lists
# of (canonical graph, non-edge orbit representatives), shared by every
# census of that order; at most LEVEL_MEMO_CLASSES classes in all
# (19-22 MiB, 2.4-2.8 KiB a class at orders 8 and 9, as tracemalloc counts it).
LEVEL_MEMO_CLASSES = 8192
_LEVEL_MEMO: dict[int, list] = {}


# -- enumeration ----------------------------------------------------------------


def enumerate_graphs_by_edges(n: int):
    """Yield, per edge count 0,1,2,..., the canonical class representatives.

    Each level holds exactly one graph per isomorphism class, as its
    canonical graph, sorted by graph6.  Level m+1 is generated from level m
    by canonical augmentation (McKay, 1998): every child accepts or rejects
    itself, with no comparison against other children (see
    :func:`_canonical_children`).  Levels stream: none is kept.
    """
    for level in _augmented_levels(n):
        yield [g for g, _ in level]


def _augmented_levels(n: int, memo: list | None = None):
    """The levels of :func:`enumerate_graphs_by_edges`, each graph paired
    with its non-edge orbit representatives.

    With `memo`, the list of the levels of order n that the level memo
    holds, those levels are served from it, and a level made is appended to
    it while the memo has room for it; a level that does not fit, and every
    later one, streams.  A level is made only when it is asked for.
    """
    if n < 1:
        raise InvalidParameterError("enumeration needs n >= 1")
    held = [] if memo is None else memo
    level = None
    for m in range(n * (n - 1) // 2 + 1):
        if m < len(held):
            level = held[m]
        else:
            if m == 0:
                empty = Graph(n, ())
                level = [(empty, non_edge_representatives(empty, labelling(empty)[1]))]
            else:
                level = [child for parent in level for child in _canonical_children(*parent)]
                level.sort(key=lambda child: _graph6_key(child[0]))
            fits = _memo_classes() + len(level) <= LEVEL_MEMO_CLASSES
            if memo is not None and len(memo) == m and fits:
                memo.append(level)
        yield level


def _memo_classes() -> int:
    """Classes the level memo holds, over all orders."""
    return sum(len(level) for levels in _LEVEL_MEMO.values() for level in levels)


def _graph6_key(g: Graph) -> int:
    """An integer ordering graphs of one order as their graph6 strings do:
    pair u < v at bit v(v-1)/2 + u counted from the most significant end."""
    top = g.n * (g.n - 1) // 2 - 1
    return sum(1 << (top - v * (v - 1) // 2 - u) for u, v in g.edges)


def _canonical_children(parent: Graph, non_edges):
    """The children P + e of a canonical graph P, one per isomorphism class
    whose canonical parent is P, as (canonical graph, non-edge orbit
    representatives).

    `non_edges` holds one non-edge e per orbit of Aut(P); each is tried.
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
    from the encoding of its canonical graph.
    """
    n = parent.n
    _, index = _pair_table(n)
    adjb = parent.adjacency_bits()
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
            if m != e:
                child_roots = pair_orbit_roots(n, child_gens)
                if child_roots[index[u * n + v]] != child_roots[index[m[0] * n + m[1]]]:
                    continue
        at = sorted(range(n), key=pos.__getitem__)  # the vertex at each position
        canonical = Graph._trusted(n, _encoded_edges(n, enc))
        gens = [[pos[s[x]] for x in at] for s in child_gens]
        yield canonical, non_edge_representatives(canonical, gens)


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


def enumerate_graphs(n: int, edge_cap: int | None = None):
    """One representative per isomorphism class with at most edge_cap edges;
    no level past the cap is made."""
    levels = enumerate_graphs_by_edges(n)
    for level in levels if edge_cap is None else islice(levels, max(edge_cap + 1, 0)):
        yield from level


def enumerate_trees(n: int):
    """One representative per unlabelled tree on n vertices."""
    if n == 1:
        return [Graph(1, ())]
    gen = enumerate_graphs_by_edges(n)
    level: list[Graph] = []
    for _ in range(n):
        level = next(gen)
    return [g for g in level if g.is_connected()]


# -- census records ---------------------------------------------------------------


@dataclass(frozen=True)
class CensusRecord:
    """Outcome of one brute-force minimum computation.

    `value` is None when no graph within the edge cap qualified.  `exact`
    is False when some class at or below the value (or the cap) stayed
    Unknown; those classes are listed in `unresolved`.  `budget` bounds the
    one colouring walk of each prsat class, and `nodes_explored` sums the
    nodes of those walks (not their extension calls), retries included.
    `total_graphs_examined` counts each class once.  An Unknown class is
    retried at once, so when a retry establishes a class below the level
    a first pass would have stopped at, no later level is made: such
    records examine fewer classes and nodes than a census that retried
    only after its first pass, with the same value, witnesses, exactness
    and `unresolved`.
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
            status, _ = _class_verdict(g, None, spec, self.quantity, budget or self.budget)
            if status is not Status.ESTABLISHED:
                return False
        return True


def _class_verdict(
    g: Graph, non_edges, spec: PatternSpec, quantity: str, budget: int | None
) -> tuple[Status, int]:
    """Status and colouring-search nodes of one graph, checking the
    non-edges `non_edges`: in a census one per automorphism orbit, carried
    by the level; None leaves them to the engine's defaults (every non-edge
    for sat and ssat, one per orbit for prsat).  A prsat class takes one
    colouring walk, which `budget` bounds; the nodes are that walk's, not
    its extension calls."""
    if quantity == "prsat":
        verdict = prsat_in_one_walk(g, spec, budget, non_edges)
        return verdict.status, verdict.nodes_explored
    check = {"sat": is_saturated, "ssat": is_semi_saturated}[quantity]
    return (Status.ESTABLISHED if check(g, spec, non_edges).holds else Status.REFUTED), 0


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
    bigger = None if budget is None else budget * ESCALATION_FACTOR

    # Levels 0..value, or 0..edge_cap if no class qualifies: the loop stops
    # on the last level it examines, so no later level is made.  A class
    # left Unknown is retried at once with the bigger budget.
    for m, level in enumerate(_augmented_levels(n, _LEVEL_MEMO.setdefault(n, []))):
        for g, non_edges in level:
            status, nodes = _class_verdict(g, non_edges, spec, quantity, budget)
            examined += 1
            nodes_total += nodes
            if status is Status.UNKNOWN:
                status, nodes = _class_verdict(g, non_edges, spec, quantity, bigger)
                nodes_total += nodes
            if status is Status.ESTABLISHED:
                value = m
                witnesses.append(g)
            elif status is Status.UNKNOWN:
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
    budget: int | None = DEFAULT_CENSUS_BUDGET,
    edge_cap: int | None = None,
    cache_dir: str | Path | None = None,
    force: bool = False,
) -> CensusRecord:
    """Minimum edges of an n-vertex graph with the property `quantity`
    (sat, ssat or prsat) for the pattern, with at most `edge_cap` edges.

    With a cache dir (or RSLAB_CACHE) an exact cached record is re-verified
    and returned, and a computed one is stored.  For prsat, `budget` bounds
    the one colouring walk of each class (ten times that in the escalated
    retry of an Unknown class).
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
        cached = load_cached_record(root, key)
        if cached is not None and cached.exact:
            if not cached.verify(budget):
                raise CacheMismatchError(f"cached witnesses for {key} fail to verify")
            return cached
    record = _census(n, spec, quantity, budget, edge_cap)
    if root is not None:
        store_record(root, record, force=force)
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
    budget: int | None = DEFAULT_CENSUS_BUDGET,
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


# -- convenience checks used by tests and the reproduce suites ----------------------


def rainbow_free_certificate_ok(g: Graph, spec: PatternSpec, colouring) -> bool:
    """Independent re-check of an Established certificate."""
    return is_proper(g, colouring) and find_rainbow_copy(g, colouring, spec) is None

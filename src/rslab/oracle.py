"""Ground truth by brute force: graph censuses and saturation minima.

A census takes the classes of its order from :func:`rslab.canon.class_levels`,
level by level in ascending edge count, through canon's shared level memo.
It reports the least edge count at which the requested property holds,
with every minimum witness, sorted, so no record depends on the order of a
level, and it makes no level past that of its value (or of the edge cap).

Each class is asked once, through :func:`rslab.engine.outcome`, the one
verdict of all three quantities, whose docstring states its rules: which
procedure decides, what the budget bounds and when a class failed at the
base.  The census passes it one non-edge per automorphism orbit, read off
the generators each class carries rather than a new labelling search, and
finds them only for the classes that reach it; it builds no certificate.
A class Unknown at or below the value poisons exactness and is reported on
the record rather than guessed.  For a connected pattern on k vertices a
class is first refuted, with no walk and no matcher call, when the
components of the ends of some non-edge hold fewer than k vertices, which
its component sizes alone tell (:func:`_too_small`).  Before that, a class
is refuted with no check at all when its canonical parent, which it
carries as a position in the level below, failed at the base.
"""

from __future__ import annotations

import fcntl
import json
import os
from dataclasses import dataclass
from pathlib import Path

from .canon import class_levels, non_edge_representatives
from .colouring import is_proper
from .engine import DEFAULT_BUDGET, Status, find_rainbow_copy, outcome
from .errors import CacheAccessError, CacheMismatchError, InvalidParameterError, RslabError
from .graphs import Graph, from_graph6, to_graph6
from .patterns import PatternSpec, parse_pattern

CACHE_ENV_VAR = "RSLAB_CACHE"

# Per quantity: the largest order a census accepts, and whether its verdicts
# spend a node budget (the records of the others store budget null).
QUANTITIES = {"sat": (9, False), "ssat": (9, False), "prsat": (8, True)}


# -- enumeration ----------------------------------------------------------------


def enumerate_graphs_by_edges(n: int):
    """Yield, per edge count 0,1,2,..., the canonical class representatives.

    Each level holds exactly one graph per isomorphism class, as its
    canonical graph, in the order :func:`rslab.canon.class_levels` makes
    them by canonical augmentation (McKay, 1998).  Levels stream: none is
    kept.
    """
    for level in class_levels(n, shared=False):
        yield [g for g, *_ in level]


# -- census records ---------------------------------------------------------------


@dataclass(frozen=True)
class CensusRecord:
    """The result of one brute-force minimum computation.

    `value` is None when no graph within the edge cap qualified.  `exact`
    is False when some class at or below the value (or the cap) stayed
    Unknown; those classes are listed in `unresolved`.  `budget` bounds the
    one colouring walk of each prsat class, and `nodes_explored` sums the
    nodes of those walks (not their extension calls); a class refuted by
    component sizes, or by its parent, takes no walk, so it adds none and is
    never unresolved.  Nor does a class that the matcher alone decides (see
    :func:`rslab.engine.outcome`): such a prsat record reads 0 nodes and is
    always exact.  `total_graphs_examined` counts the classes asked, each
    asked once; :meth:`verify` asks each witness again.
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
        """The record of a cache line; a field of another JSON type raises TypeError."""
        d = {"budget": None, "nodes_explored": 0, "edge_cap": None, **d}
        graph6s = d["witnesses"], d["unresolved"]  # lists of graph6 strings
        counts = d["n"], d["total_graphs_examined"], d["nodes_explored"]  # ints, not bools
        optional = d["value"], d["budget"], d["edge_cap"]  # ints or nulls
        if not (all(isinstance(x, list) and all(type(w) is str for w in x) for x in graph6s)
                and all(type(x) is int for x in counts) and type(d["exact"]) is bool
                and all(x is None or type(x) is int for x in optional)
                and type(d["pattern"]) is str and type(d["quantity"]) is str):
            raise TypeError("a census record field has the wrong JSON type")
        return CensusRecord(
            n=d["n"], pattern=d["pattern"], quantity=d["quantity"], value=d["value"],
            exact=d["exact"], witnesses=tuple(graph6s[0]), unresolved=tuple(graph6s[1]),
            total_graphs_examined=d["total_graphs_examined"], budget=d["budget"],
            nodes_explored=d["nodes_explored"], edge_cap=d["edge_cap"],
        )

    def verify(self, budget: int | None = None) -> bool:
        """Re-run the verdict on every stored witness; one that does not
        decode to a graph on n vertices with `value` edges fails."""
        spec = parse_pattern(self.pattern, allow_files=False)
        for w in self.witnesses:
            try:
                g = from_graph6(w)
            except RslabError:
                return False
            if g.n != self.n or self.value is not None and len(g.edges) != self.value:
                return False
            verdict = outcome(g, spec, self.quantity, budget or self.budget)
            if verdict.status is not Status.ESTABLISHED:
                return False
        return True


def _too_small(adjb, k: int) -> bool:
    """Whether the ends of some non-edge lie in components, given by the
    adjacency bitmasks `adjb`, with fewer than k vertices in all: two
    components with fewer than k vertices between them, or one with fewer
    than k that is not a clique.  No copy of a connected pattern on k
    vertices then passes through that non-edge, so the class is Refuted in
    all three modes: for prsat, a rainbow-free colouring of the class, if
    any, extends to the non-edge by a new colour."""
    smallest = k  # the fewest vertices of a component flooded so far
    left = (1 << len(adjb)) - 1
    while left:
        comp = _component_of(adjb, (left & -left).bit_length() - 1)
        left ^= comp
        size = comp.bit_count()
        if size < k:
            if smallest + size < k:
                return True
            twice_edges = sum(a.bit_count() for v, a in enumerate(adjb) if comp >> v & 1)
            if twice_edges < size * (size - 1):
                return True
            smallest = min(smallest, size)
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
    # The positions in the last level of the classes that fail at the base;
    # such a failure passes to supergraphs, so to every class whose parent
    # failed.
    failed: set[int] = set()
    # Levels 0..value, or 0..edge_cap if no class qualifies: the loop stops
    # on the last level it examines, so no later level is made.
    for m, level in enumerate(class_levels(n, shared=True)):
        below, failed = failed, set()
        for i, (g, adjb, gens, parent) in enumerate(level):
            examined += 1
            if parent in below:
                failed.add(i)
                continue
            if k and _too_small(adjb, k):
                continue
            status, nodes, base_failed = outcome(g, spec, quantity, budget,
                                                 non_edge_representatives(adjb, gens))
            nodes_total += nodes
            if status is Status.ESTABLISHED:
                value = m
                witnesses.append(g)
            elif status is Status.UNKNOWN:
                unresolved.append(g)
            elif base_failed:
                failed.add(i)
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

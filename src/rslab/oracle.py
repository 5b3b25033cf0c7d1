"""Ground truth by brute force: graph censuses and saturation minima.

Graphs of a given order are enumerated one representative per isomorphism
class by edge augmentation with canonical-form deduplication.  A census
walks the classes in ascending edge count and reports the least edge count
at which the requested verifier (saturated / semi-saturated / properly
rainbow saturated) holds, together with every minimum witness.

Rainbow verdicts are budgeted.  A class whose verdict stays Unknown at or
below the best established value poisons exactness; such classes get one
escalated retry with a ten-fold budget, and whatever is still unresolved is
reported on the record rather than guessed.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from .canon import canonical_graph, non_edge_orbit_representatives
from .colouring import is_proper
from .engine import (
    Status,
    find_rainbow_copy,
    is_properly_rainbow_saturated,
    is_saturated,
    is_semi_saturated,
)
from .errors import CacheMismatchError, InvalidParameterError
from .graphs import Graph, from_graph6, to_graph6
from .patterns import PatternSpec, parse_pattern

DEFAULT_CENSUS_BUDGET = 10_000_000
ESCALATION_FACTOR = 10
CACHE_ENV_VAR = "RSLAB_CACHE"

SAT_SSAT_ORDER_CUTOFF = 9
PRSAT_ORDER_CUTOFF = 8


# -- enumeration ----------------------------------------------------------------


def enumerate_graphs_by_edges(n: int):
    """Yield, per edge count 0,1,2,..., the canonical class representatives.

    Level m+1 is generated from level m by adding one non-edge orbit
    representative per class and deduplicating canonical forms, so exactly
    one graph per isomorphism class appears, in deterministic order
    (edge count, then canonical form).
    """
    if n < 1:
        raise InvalidParameterError("enumeration needs n >= 1")
    current = {to_graph6(Graph(n, ())): Graph(n, ())}
    yield [current[k] for k in sorted(current)]
    max_edges = n * (n - 1) // 2
    for _ in range(max_edges):
        nxt: dict[str, Graph] = {}
        for g in current.values():
            for u, v in non_edge_orbit_representatives(g):
                cg = canonical_graph(g.add_edge(u, v))
                nxt.setdefault(to_graph6(cg), cg)
        current = nxt
        yield [current[k] for k in sorted(current)]


def enumerate_graphs(n: int, edge_cap: int | None = None):
    """One representative per isomorphism class with at most edge_cap edges."""
    for m, level in enumerate(enumerate_graphs_by_edges(n)):
        if edge_cap is not None and m > edge_cap:
            return
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
    Unknown; those classes are listed in `unresolved`.
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
        """Re-run the verifier on every stored witness."""
        spec = parse_pattern(self.pattern, allow_files=False)
        for w in self.witnesses:
            g = from_graph6(w)
            if self.value is not None and len(g.edges) != self.value:
                return False
            if not _holds(g, spec, self.quantity, budget or self.budget):
                return False
        return True


def _holds(g: Graph, spec: PatternSpec, quantity: str, budget: int | None) -> bool:
    if quantity == "sat":
        return is_saturated(g, spec).holds
    if quantity == "ssat":
        return is_semi_saturated(g, spec).holds
    if quantity == "prsat":
        return is_properly_rainbow_saturated(g, spec, budget).status is Status.ESTABLISHED
    raise InvalidParameterError(f"unknown quantity {quantity!r}")


# Worker for the process pool: returns (status_string, nodes) per class.
def _prsat_task(args):
    g6, token, budget = args
    g = from_graph6(g6)
    spec = parse_pattern(token, allow_files=False)
    verdict = is_properly_rainbow_saturated(g, spec, budget)
    return verdict.status.value, verdict.nodes_explored


def _census(
    n: int,
    spec: PatternSpec,
    quantity: str,
    budget: int | None,
    edge_cap: int | None,
    workers: int,
) -> CensusRecord:
    examined = 0
    nodes_total = 0
    value: int | None = None
    witnesses: list[str] = []
    unresolved: list[str] = []

    pool = None
    if workers > 1 and quantity == "prsat":
        pool = ProcessPoolExecutor(max_workers=workers)
    try:
        for m, level in enumerate(enumerate_graphs_by_edges(n)):
            if edge_cap is not None and m > edge_cap:
                break
            if value is not None and m > value:
                break
            if quantity == "prsat":
                if pool is not None:
                    results = list(
                        pool.map(
                            _prsat_task,
                            [(to_graph6(g), spec.token(), budget) for g in level],
                        )
                    )
                else:
                    results = []
                    for g in level:
                        verdict = is_properly_rainbow_saturated(g, spec, budget)
                        results.append((verdict.status.value, verdict.nodes_explored))
                for g, (status, nodes) in zip(level, results):
                    examined += 1
                    nodes_total += nodes
                    if status == Status.ESTABLISHED.value:
                        if value is None:
                            value = m
                        witnesses.append(to_graph6(g))
                    elif status == Status.UNKNOWN.value:
                        unresolved.append(to_graph6(g))
            else:
                for g in level:
                    examined += 1
                    if _holds(g, spec, quantity, budget):
                        if value is None:
                            value = m
                        witnesses.append(to_graph6(g))
    finally:
        if pool is not None:
            pool.shutdown()

    # Escalation pass for classes that stayed Unknown at or below the value.
    still: list[str] = []
    if unresolved and quantity == "prsat":
        bigger = None if budget is None else budget * ESCALATION_FACTOR
        for g6 in unresolved:
            g = from_graph6(g6)
            if value is not None and len(g.edges) > value:
                continue
            verdict = is_properly_rainbow_saturated(g, spec, bigger)
            nodes_total += verdict.nodes_explored
            if verdict.status is Status.ESTABLISHED:
                m = len(g.edges)
                if value is None or m < value:
                    value = m
                    witnesses = [g6]
                elif m == value:
                    witnesses.append(g6)
            elif verdict.status is Status.UNKNOWN:
                still.append(g6)
    witnesses = sorted(w for w in witnesses
                       if value is not None and len(from_graph6(w).edges) == value)
    poisons = sorted(
        g6 for g6 in still
        if value is None or len(from_graph6(g6).edges) <= value
    )
    return CensusRecord(
        n=n,
        pattern=spec.token(),
        quantity=quantity,
        value=value,
        exact=not poisons,
        witnesses=tuple(witnesses),
        unresolved=tuple(poisons),
        total_graphs_examined=examined,
        budget=budget,
        nodes_explored=nodes_total,
        edge_cap=edge_cap,
    )


def _checked_cutoff(n: int, cutoff: int, quantity: str) -> None:
    if n > cutoff:
        raise InvalidParameterError(
            f"{quantity} census supports n <= {cutoff}; pass a smaller n"
        )


def sat_number(
    n: int,
    spec: PatternSpec,
    edge_cap: int | None = None,
    cache_dir: str | Path | None = None,
    force: bool = False,
) -> CensusRecord:
    """Minimum edges of an n-vertex graph saturated for the pattern."""
    _checked_cutoff(n, SAT_SSAT_ORDER_CUTOFF, "sat")
    return _cached_census(n, spec, "sat", None, edge_cap, 1, cache_dir, force)


def ssat_number(
    n: int,
    spec: PatternSpec,
    edge_cap: int | None = None,
    cache_dir: str | Path | None = None,
    force: bool = False,
) -> CensusRecord:
    """Minimum edges of an n-vertex semi-saturated graph."""
    _checked_cutoff(n, SAT_SSAT_ORDER_CUTOFF, "ssat")
    return _cached_census(n, spec, "ssat", None, edge_cap, 1, cache_dir, force)


def prsat_number(
    n: int,
    spec: PatternSpec,
    budget: int | None = DEFAULT_CENSUS_BUDGET,
    edge_cap: int | None = None,
    workers: int = 1,
    cache_dir: str | Path | None = None,
    force: bool = False,
) -> CensusRecord:
    """Minimum edges of an n-vertex properly rainbow saturated graph."""
    _checked_cutoff(n, PRSAT_ORDER_CUTOFF, "prsat")
    return _cached_census(n, spec, "prsat", budget, edge_cap, workers, cache_dir, force)


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
    Unparseable lines of the old file are dropped."""
    root.mkdir(parents=True, exist_ok=True)
    path = _cache_file(root, record.quantity)
    rows = list(_read_records(path))
    replaced = False
    for i, old in enumerate(rows):
        if old.key() == record.key():
            same = (old.value, old.witnesses) == (record.value, record.witnesses)
            if not same and not force:
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


def _cached_census(
    n: int,
    spec: PatternSpec,
    quantity: str,
    budget: int | None,
    edge_cap: int | None,
    workers: int,
    cache_dir: str | Path | None,
    force: bool,
) -> CensusRecord:
    root = resolve_cache_dir(cache_dir)
    key = (n, spec.token(), quantity, edge_cap)
    if root is not None and not force:
        cached = load_cached_record(root, key)
        if cached is not None and cached.exact:
            if not cached.verify(budget):
                raise CacheMismatchError(f"cached witnesses for {key} fail to verify")
            return cached
    record = _census(n, spec, quantity, budget, edge_cap, workers)
    if root is not None:
        store_record(root, record, force=force)
    return record


# -- convenience checks used by tests and the reproduce suites ----------------------


def rainbow_free_certificate_ok(g: Graph, spec: PatternSpec, colouring) -> bool:
    """Independent re-check of an Established certificate."""
    return is_proper(g, colouring) and find_rainbow_copy(g, colouring, spec) is None

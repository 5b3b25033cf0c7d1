"""Declarative tree patterns and their deterministic realizations.

Families covered: paths P_k, stars K_{1,k}, brooms B_{k,m} (path P_k with m
pendants on one endpoint), subdivided stars (K_{1,k-2} with one edge
subdivided, on k vertices), double stars (K_2 with t and s pendants),
caterpillars given by per-spine leaf counts, and explicit edge lists.

A pattern is its one-word name and its labelled graph.  Each family's
constructor checks the family's parameters, refuses an order graph6 cannot
write before any edge list exists, builds the graph and names it; the
labelling of a family lives in its constructor and nowhere else.  Each
family fixes one labelling so that certificates are byte-stable: vertex 0
is the distinguished high-degree vertex where the family has one (star
centre, broom head, double-star major centre).  Realizations never contain
isolated vertices; every family except `explicit` realizes to a tree.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass
from pathlib import Path

from .errors import InvalidParameterError, RslabError
from .graphs import Graph, _check_order, build_graph, from_graph6


@dataclass(frozen=True)
class PatternSpec:
    """A pattern: `name`, the token :func:`parse_pattern` reads back, and
    `graph`, its fixed labelled realization."""

    name: str
    graph: Graph

    # -- constructors -------------------------------------------------------

    @staticmethod
    def path(k: int) -> "PatternSpec":
        if k < 2:
            raise InvalidParameterError("path needs k >= 2 vertices")
        _check_order(k, "pattern")
        return PatternSpec(f"P{k}", build_graph(k, [(i, i + 1) for i in range(k - 1)]))

    @staticmethod
    def star(k: int) -> "PatternSpec":
        if k < 1:
            raise InvalidParameterError("star needs k >= 1 leaves")
        _check_order(k + 1, "pattern")
        return PatternSpec(f"K1,{k}", build_graph(k + 1, [(0, i) for i in range(1, k + 1)]))

    @staticmethod
    def broom(k: int, m: int) -> "PatternSpec":
        if k < 1 or m < 1:
            raise InvalidParameterError("broom needs k >= 1 and m >= 1")
        _check_order(k + m, "pattern")
        # head = vertex 0; path 0,1,..,k-1; pendants k..k+m-1 on the head
        edges = [(i, i + 1) for i in range(k - 1)]
        edges += [(0, k + j) for j in range(m)]
        return PatternSpec(f"B{k},{m}", build_graph(k + m, edges))

    @staticmethod
    def subdivided_star(k: int) -> "PatternSpec":
        if k < 4:
            raise InvalidParameterError("subdivided star needs k >= 4 vertices")
        _check_order(k, "pattern")
        # centre 0; direct leaves 1..k-3; path 0,(k-2),(k-1)
        edges = [(0, i) for i in range(1, k - 2)]
        edges += [(0, k - 2), (k - 2, k - 1)]
        return PatternSpec(f"T{k}star", build_graph(k, edges))

    @staticmethod
    def double_star(t: int, s: int) -> "PatternSpec":
        """The tree with adjacent centres of degree t+1 and s+1."""
        if t < s:
            t, s = s, t
        if s < 1:
            raise InvalidParameterError("double star needs t >= s >= 1")
        _check_order(2 + t + s, "pattern")
        edges = [(0, 1)]
        edges += [(0, 2 + j) for j in range(t)]
        edges += [(1, 2 + t + j) for j in range(s)]
        return PatternSpec(f"S{t + 1},{s + 1}", build_graph(2 + t + s, edges))

    @staticmethod
    def caterpillar(leaves) -> "PatternSpec":
        leaves = tuple(int(x) for x in leaves)
        if not leaves:
            raise InvalidParameterError("caterpillar needs at least one spine vertex")
        if any(x < 0 for x in leaves):
            raise InvalidParameterError("negative leaf count")
        ell = len(leaves)
        if leaves == (0,):
            raise InvalidParameterError("single-vertex caterpillar is an isolated vertex")
        _check_order(ell + sum(leaves), "pattern")
        edges = [(i, i + 1) for i in range(ell - 1)]
        nxt = ell
        for i, cnt in enumerate(leaves):
            for _ in range(cnt):
                edges.append((i, nxt))
                nxt += 1
        name = "cat:ell=%d;leaves=%s" % (ell, ",".join(str(x) for x in leaves))
        return PatternSpec(name, build_graph(nxt, edges))

    @staticmethod
    def explicit(edges, n: int | None = None) -> "PatternSpec":
        """These edges on n vertices, by default 0 up to the largest end."""
        edges = tuple(edges)
        if not edges:
            raise InvalidParameterError("explicit pattern needs at least one edge")
        n = max(max(e) for e in edges) + 1 if n is None else n
        _check_order(n, "pattern")
        g = build_graph(n, edges)
        if any(g.degree(v) == 0 for v in range(n)):
            raise InvalidParameterError("pattern has an isolated vertex")
        return PatternSpec("g6:" + g.to_graph6(), g)

    def token(self) -> str:
        """Compact one-word name, also used as the census cache key."""
        return self.name


# -- the compact CLI grammar --------------------------------------------------

_PATH_RE = re.compile(r"^[Pp](\d+)$")
_STAR_RE = re.compile(r"^[Kk]1,(\d+)$")
_BROOM_RE = re.compile(r"^[Bb](\d+),(\d+)$")
_TSTAR_RE = re.compile(r"^[Tt](\d+)star$")
_DSTAR_RE = re.compile(r"^[Ss](\d+),(\d+)$")


def parse_pattern(token: str, allow_files: bool = True) -> PatternSpec:
    """Parse the one-token grammar: P5, K1,4, B4,2, T5star, S3,2,
    cat:ell=4;leaves=1,0,0,1 (an `ℓ=` spelling is also accepted),
    g6:<graph6>, or @file pointing at a graph6 or JSON graph file."""
    token = token.strip()
    if m := _PATH_RE.match(token):
        return PatternSpec.path(int(m.group(1)))
    if m := _STAR_RE.match(token):
        return PatternSpec.star(int(m.group(1)))
    if m := _BROOM_RE.match(token):
        return PatternSpec.broom(int(m.group(1)), int(m.group(2)))
    if m := _TSTAR_RE.match(token):
        return PatternSpec.subdivided_star(int(m.group(1)))
    if m := _DSTAR_RE.match(token):
        a, b = int(m.group(1)), int(m.group(2))
        if a < 2 or b < 2:
            raise InvalidParameterError("double star token needs both centres >= 2")
        return PatternSpec.double_star(a - 1, b - 1)
    if token.startswith("cat:"):
        return _parse_caterpillar(token)
    if token.startswith("g6:"):
        g = from_graph6(token[3:])
        return PatternSpec.explicit(g.edges, g.n)
    if token.startswith("@"):
        if not allow_files:
            raise InvalidParameterError("file patterns not allowed here")
        g = load_graph_file(token[1:])
        return PatternSpec.explicit(g.edges, g.n)
    raise InvalidParameterError(f"cannot parse pattern token {token!r}")


def _parse_caterpillar(token: str) -> PatternSpec:
    body = token[len("cat:"):]
    ell = None
    leaves = None
    for part in body.split(";"):
        if "=" not in part:
            raise InvalidParameterError(f"bad caterpillar field {part!r}")
        key, val = part.split("=", 1)
        key = key.strip()
        try:
            if key in ("ell", "ℓ", "l"):
                ell = int(val)
            elif key == "leaves":
                leaves = tuple(int(x) for x in val.split(",") if x != "")
            else:
                raise InvalidParameterError(f"unknown caterpillar field {key!r}")
        except ValueError:
            raise InvalidParameterError(
                f"caterpillar field {key!r} needs integers, got {val!r}") from None
    if leaves is None:
        raise InvalidParameterError("caterpillar token needs leaves=...")
    if ell is not None and ell != len(leaves):
        raise InvalidParameterError("caterpillar ell does not match leaf count")
    return PatternSpec.caterpillar(leaves)


def load_graph_file(path: str | Path) -> Graph:
    """Read a graph from a file, or from stdin when `path` is "-": JSON if
    the content starts with '{', else graph6 on the first line.  A missing
    file and empty or malformed content raise RslabError."""
    try:
        text = sys.stdin.read() if str(path) == "-" else Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise RslabError(f"cannot read graph file {path}: {exc}") from exc
    text = text.strip()
    if not text:
        raise RslabError(f"graph input {path} is empty")
    if text.startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise RslabError(f"bad JSON graph in {path}: {exc}") from exc
        return Graph.from_json_dict(data)
    return from_graph6(text.splitlines()[0])

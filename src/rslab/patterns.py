"""Declarative tree patterns and their deterministic realizations.

Families covered: paths P_k, stars K_{1,k}, brooms B_{k,m} (path P_k with m
pendants on one endpoint), subdivided stars (K_{1,k-2} with one edge
subdivided, on k vertices), double stars (K_2 with t and s pendants),
caterpillars given by per-spine leaf counts, and explicit edge lists.

Each family fixes one labelling so that certificates are byte-stable:
vertex 0 is the distinguished high-degree vertex where the family has one
(star centre, broom head, double-star major centre).
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

from .errors import InvalidParameterError, RslabError
from .graphs import Edge, Graph, _check_order, build_graph, from_graph6


@dataclass(frozen=True)
class PatternSpec:
    kind: str
    k: int | None = None
    m: int | None = None
    t: int | None = None
    s: int | None = None
    leaves: tuple[int, ...] | None = None
    edges: tuple[Edge, ...] | None = None

    # -- constructors -------------------------------------------------------

    @staticmethod
    def path(k: int) -> "PatternSpec":
        return PatternSpec(kind="path", k=k)

    @staticmethod
    def star(k: int) -> "PatternSpec":
        return PatternSpec(kind="star", k=k)

    @staticmethod
    def broom(k: int, m: int) -> "PatternSpec":
        return PatternSpec(kind="broom", k=k, m=m)

    @staticmethod
    def subdivided_star(k: int) -> "PatternSpec":
        return PatternSpec(kind="subdivided_star", k=k)

    @staticmethod
    def double_star(t: int, s: int) -> "PatternSpec":
        """The tree with adjacent centres of degree t+1 and s+1."""
        if t < s:
            t, s = s, t
        return PatternSpec(kind="double_star", t=t, s=s)

    @staticmethod
    def caterpillar(leaves) -> "PatternSpec":
        return PatternSpec(kind="caterpillar", leaves=tuple(int(x) for x in leaves))

    @staticmethod
    def explicit(edges) -> "PatternSpec":
        norm = tuple(sorted((min(u, v), max(u, v)) for u, v in edges))
        return PatternSpec(kind="explicit", edges=norm)

    @staticmethod
    def from_graph(g: Graph) -> "PatternSpec":
        return PatternSpec.explicit(g.edges)

    # -- naming --------------------------------------------------------------

    def token(self) -> str:
        """Compact one-word name, also used as the census cache key."""
        if self.kind == "path":
            return f"P{self.k}"
        if self.kind == "star":
            return f"K1,{self.k}"
        if self.kind == "broom":
            return f"B{self.k},{self.m}"
        if self.kind == "subdivided_star":
            return f"T{self.k}star"
        if self.kind == "double_star":
            return f"S{self.t + 1},{self.s + 1}"
        if self.kind == "caterpillar":
            return "cat:ell=%d;leaves=%s" % (
                len(self.leaves),
                ",".join(str(x) for x in self.leaves),
            )
        if self.kind == "explicit":
            return "g6:" + realize_pattern(self).to_graph6()
        raise RslabError(f"unknown pattern kind {self.kind!r}")


@lru_cache(maxsize=4096)
def realize_pattern(spec: PatternSpec) -> Graph:
    """Build the fixed labelled realization of a pattern.

    Realizations never contain isolated vertices; every family except
    `explicit` realizes to a tree.  A pattern on more vertices than graph6
    can write is refused before anything is built.
    """
    _check_order(_order(spec), "pattern")
    kind = spec.kind
    if kind == "path":
        k = spec.k
        if k is None or k < 2:
            raise InvalidParameterError("path needs k >= 2 vertices")
        return build_graph(k, [(i, i + 1) for i in range(k - 1)])
    if kind == "star":
        k = spec.k
        if k is None or k < 1:
            raise InvalidParameterError("star needs k >= 1 leaves")
        return build_graph(k + 1, [(0, i) for i in range(1, k + 1)])
    if kind == "broom":
        k, m = spec.k, spec.m
        if k is None or m is None or k < 1 or m < 1:
            raise InvalidParameterError("broom needs k >= 1 and m >= 1")
        # head = vertex 0; path 0,1,..,k-1; pendants k..k+m-1 on the head
        edges = [(i, i + 1) for i in range(k - 1)]
        edges += [(0, k + j) for j in range(m)]
        return build_graph(k + m, edges)
    if kind == "subdivided_star":
        k = spec.k
        if k is None or k < 4:
            raise InvalidParameterError("subdivided star needs k >= 4 vertices")
        # centre 0; direct leaves 1..k-3; path 0,(k-2),(k-1)
        edges = [(0, i) for i in range(1, k - 2)]
        edges += [(0, k - 2), (k - 2, k - 1)]
        return build_graph(k, edges)
    if kind == "double_star":
        t, s = spec.t, spec.s
        if t is None or s is None or s < 1 or t < s:
            raise InvalidParameterError("double star needs t >= s >= 1")
        edges = [(0, 1)]
        edges += [(0, 2 + j) for j in range(t)]
        edges += [(1, 2 + t + j) for j in range(s)]
        return build_graph(2 + t + s, edges)
    if kind == "caterpillar":
        leaves = spec.leaves
        if not leaves:
            raise InvalidParameterError("caterpillar needs at least one spine vertex")
        if any(x < 0 for x in leaves):
            raise InvalidParameterError("negative leaf count")
        ell = len(leaves)
        if ell == 1 and leaves[0] == 0:
            raise InvalidParameterError("single-vertex caterpillar is an isolated vertex")
        edges = [(i, i + 1) for i in range(ell - 1)]
        nxt = ell
        for i, cnt in enumerate(leaves):
            for _ in range(cnt):
                edges.append((i, nxt))
                nxt += 1
        return build_graph(nxt, edges)
    if kind == "explicit":
        edges = spec.edges
        if not edges:
            raise InvalidParameterError("explicit pattern needs at least one edge")
        n = max(max(e) for e in edges) + 1
        g = build_graph(n, edges)
        if any(g.degree(v) == 0 for v in range(n)):
            raise InvalidParameterError("pattern has an isolated vertex")
        return g
    raise RslabError(f"unknown pattern kind {kind!r}")


def _order(spec: PatternSpec) -> int:
    """The vertex count that a pattern's fields call for, read without
    building anything; a missing field counts 0.  Each kind sets only its
    own fields: path and subdivided star k, star k+1, broom k+m, double
    star 2+t+s."""
    if spec.kind == "caterpillar":
        return len(spec.leaves or ()) + sum(spec.leaves or ())
    if spec.kind == "explicit":
        return 1 + max((max(e) for e in spec.edges or ()), default=-1)
    fixed = {"star": 1, "double_star": 2}.get(spec.kind, 0)
    return fixed + sum(x or 0 for x in (spec.k, spec.m, spec.t, spec.s))


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
        return PatternSpec.from_graph(from_graph6(token[3:]))
    if token.startswith("@"):
        if not allow_files:
            raise InvalidParameterError("file patterns not allowed here")
        return PatternSpec.from_graph(load_graph_file(token[1:]))
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

"""Simple undirected graphs on dense vertex indices 0..n-1.

Graphs are immutable; edges are stored as a lexicographically sorted tuple
of (u, v) pairs with u < v.  All file formats in the package use this
indexing, so serialized certificates are byte-stable.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property

from .errors import (
    DuplicateEdgeError,
    IndexOutOfRangeError,
    RslabError,
    SelfLoopError,
)

Edge = tuple[int, int]


def normalise_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """An immutable simple graph.  Prefer :func:`build_graph` for raw input.

    ``Graph(n, edges)`` validates its edge tuple and raises on a negative n,
    a self-loop, an unnormalised or out-of-range pair, a duplicate or an
    unsorted tuple.  The graphs that :meth:`add_edge` and :meth:`relabel`
    derive from a valid graph are made by :meth:`_trusted`, which skips
    those checks.  The adjacency lists and the edge set are built on first
    use.
    """

    n: int
    edges: tuple[Edge, ...]

    def __post_init__(self):
        if self.n < 0:
            raise IndexOutOfRangeError(f"negative vertex count {self.n}")
        seen = set()
        for u, v in self.edges:
            if u == v:
                raise SelfLoopError(f"self-loop at vertex {u}")
            if u > v:
                raise RslabError(f"edge ({u},{v}) not normalised; use build_graph")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise IndexOutOfRangeError(f"edge ({u},{v}) outside 0..{self.n - 1}")
            if (u, v) in seen:
                raise DuplicateEdgeError(f"edge ({u},{v}) repeated")
            seen.add((u, v))
        if tuple(sorted(self.edges)) != self.edges:
            raise RslabError("edge tuple not sorted; use build_graph")

    @classmethod
    def _trusted(cls, n: int, edges: tuple[Edge, ...]) -> "Graph":
        """A graph made without validation.  The caller guarantees that
        `edges` is a sorted tuple of distinct normalised pairs u < v with
        both ends in 0..n-1."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "edges", edges)
        return g

    @cached_property
    def _adj(self) -> tuple[tuple[int, ...], ...]:
        adj = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return tuple(tuple(sorted(a)) for a in adj)

    @cached_property
    def _edge_set(self) -> frozenset[Edge]:
        return frozenset(self.edges)

    # -- basic queries ----------------------------------------------------

    @property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        return self._adj

    def neighbours(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def degrees(self) -> tuple[int, ...]:
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return tuple(deg)

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted(self.degrees(), reverse=True))

    def has_edge(self, u: int, v: int) -> bool:
        return normalise_edge(u, v) in self._edge_set

    def edge_set(self) -> frozenset[Edge]:
        return self._edge_set

    def non_edges(self) -> tuple[Edge, ...]:
        out = []
        for u in range(self.n):
            for v in range(u + 1, self.n):
                if (u, v) not in self._edge_set:
                    out.append((u, v))
        return tuple(out)

    def adjacency_bits(self) -> list[int]:
        bits = [0] * self.n
        for u, v in self.edges:
            bits[u] |= 1 << v
            bits[v] |= 1 << u
        return bits

    # -- derived graphs ---------------------------------------------------

    def add_edge(self, u: int, v: int) -> "Graph":
        e = normalise_edge(u, v)
        if u == v:
            raise SelfLoopError(f"self-loop at vertex {u}")
        if e[0] < 0 or e[1] >= self.n:
            raise IndexOutOfRangeError(f"edge ({u},{v}) outside 0..{self.n - 1}")
        if e in self._edge_set:
            raise DuplicateEdgeError(f"edge {e} already present")
        return Graph._trusted(self.n, tuple(sorted(self.edges + (e,))))

    def relabel(self, perm: list[int] | tuple[int, ...]) -> "Graph":
        """Image under the permutation v -> perm[v]."""
        if sorted(perm) != list(range(self.n)):
            raise RslabError(f"relabel needs a permutation of 0..{self.n - 1}")
        edges = tuple(sorted(normalise_edge(perm[u], perm[v]) for u, v in self.edges))
        return Graph._trusted(self.n, edges)

    # -- walks and structure ----------------------------------------------

    def distance(self, u: int, v: int) -> float:
        """BFS distance; math.inf when u and v lie in different components."""
        if u == v:
            return 0
        seen = {u}
        queue = deque([(u, 0)])
        while queue:
            x, d = queue.popleft()
            for w in self._adj[x]:
                if w == v:
                    return d + 1
                if w not in seen:
                    seen.add(w)
                    queue.append((w, d + 1))
        return math.inf

    def components(self) -> list[list[int]]:
        seen = [False] * self.n
        comps = []
        for s in range(self.n):
            if seen[s]:
                continue
            comp = [s]
            seen[s] = True
            queue = deque([s])
            while queue:
                x = queue.popleft()
                for w in self._adj[x]:
                    if not seen[w]:
                        seen[w] = True
                        comp.append(w)
                        queue.append(w)
            comps.append(sorted(comp))
        return comps

    def is_connected(self) -> bool:
        return len(self.components()) <= 1

    def is_tree(self) -> bool:
        return self.is_connected() and len(self.edges) == self.n - 1

    def diameter(self) -> float:
        best = 0.0
        for u in range(self.n):
            for v in range(u + 1, self.n):
                best = max(best, self.distance(u, v))
        return best

    # -- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {"n": self.n, "edges": [[u, v] for u, v in self.edges]}

    @staticmethod
    def from_json_dict(data: dict) -> "Graph":
        """Graph from {"n": int, "edges": [[int, int], ...]}; a float, a bool
        or a string where an integer belongs raises RslabError."""
        def integer(x):
            if type(x) is not int:
                raise TypeError(f"{x!r} is not an integer")
            return x

        try:
            return build_graph(integer(data["n"]),
                               [tuple(map(integer, e)) for e in data["edges"]])
        except (KeyError, TypeError, ValueError) as exc:
            raise RslabError(
                f"graph JSON needs an integer 'n' and an 'edges' list of pairs ({exc!r})"
            ) from exc

    def to_graph6(self) -> str:
        return to_graph6(self)

    def to_dot(self, name: str = "G") -> str:
        lines = [f"graph {name} {{"]
        for v in range(self.n):
            lines.append(f"  {v};")
        for u, v in self.edges:
            lines.append(f"  {u} -- {v};")
        lines.append("}")
        return "\n".join(lines)


def build_graph(n: int, edges) -> Graph:
    """Validating constructor: normalises pair order and sorts the edge list."""
    norm = []
    for u, v in edges:
        u = int(u)
        v = int(v)
        if u == v:
            raise SelfLoopError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise IndexOutOfRangeError(f"edge ({u},{v}) outside 0..{n - 1}")
        norm.append(normalise_edge(u, v))
    if len(set(norm)) != len(norm):
        raise DuplicateEdgeError("duplicate edge after normalisation")
    return Graph(n, tuple(sorted(norm)))


def disjoint_union(*graphs: Graph) -> Graph:
    """Disjoint union; vertex blocks are laid out in argument order."""
    offset = 0
    n = 0
    edges: list[Edge] = []
    for g in graphs:
        edges.extend((u + offset, v + offset) for u, v in g.edges)
        offset += g.n
        n += g.n
    return Graph(n, tuple(sorted(edges)))


# -- graph6 ----------------------------------------------------------------
# Bit-exact implementation of the published graph6 format: N(n) followed by
# the upper triangle of the adjacency matrix in column order, six bits per
# printable byte (offset 63).

_G6_MAX_N = 258047


def _g6_size_bytes(n: int) -> str:
    if n < 0 or n > _G6_MAX_N:
        raise RslabError(f"graph6 supports 0 <= n <= {_G6_MAX_N}, got {n}")
    if n <= 62:
        return chr(n + 63)
    return "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))


def to_graph6(g: Graph) -> str:
    chars = [_g6_size_bytes(g.n)]
    eset = g.edge_set()
    acc = 0
    nbits = 0
    for j in range(1, g.n):
        for i in range(j):
            acc = (acc << 1) | (1 if (i, j) in eset else 0)
            nbits += 1
            if nbits == 6:
                chars.append(chr(acc + 63))
                acc = 0
                nbits = 0
    if nbits:
        acc <<= 6 - nbits
        chars.append(chr(acc + 63))
    return "".join(chars)


def from_graph6(text: str) -> Graph:
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise RslabError("empty graph6 string")
    data = [ord(c) - 63 for c in s]
    if any(b < 0 or b > 63 for b in data):
        raise RslabError("graph6 byte out of range")
    if data[0] == 63:  # '~' prefix: 18-bit vertex count
        if len(data) < 4:
            raise RslabError("truncated graph6 size")
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        body = data[4:]
    else:
        n = data[0]
        body = data[1:]
    need = n * (n - 1) // 2
    if len(body) != (need + 5) // 6:
        raise RslabError("graph6 body length mismatch")
    bits = []
    for b in body:
        for t in range(5, -1, -1):
            bits.append((b >> t) & 1)
    edges = []
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                edges.append((i, j))
            k += 1
    return Graph(n, tuple(sorted(edges)))

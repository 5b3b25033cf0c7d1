"""Simple undirected graphs on dense vertex indices 0..n-1.

Graphs are immutable; edges are stored as a lexicographically sorted tuple
of (u, v) pairs with u < v.  All file formats in the package use this
indexing, so serialized certificates are byte-stable.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

from .errors import (
    DuplicateEdgeError,
    IndexOutOfRangeError,
    InvalidParameterError,
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
    those checks.  The neighbour lists, built on first use, are the one
    cache; the lazy :meth:`non_edges` makes each non-edge as it walks the
    sorted edge tuple.
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

    # -- basic queries ----------------------------------------------------

    def neighbours(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def degrees(self) -> tuple[int, ...]:
        return tuple(map(len, self._adj))

    def non_edges(self) -> Iterator[Edge]:
        """The pairs u < v that are not edges, lexicographically, one by one."""
        edges = iter(self.edges)
        nxt = next(edges, None)
        for u in range(self.n):
            for v in range(u + 1, self.n):
                if (u, v) == nxt:
                    nxt = next(edges, None)
                else:
                    yield (u, v)

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
        i = bisect_left(self.edges, e)
        if self.edges[i:i + 1] == (e,):
            raise DuplicateEdgeError(f"edge {e} already present")
        return Graph._trusted(self.n, self.edges[:i] + (e,) + self.edges[i:])

    def relabel(self, perm: list[int] | tuple[int, ...]) -> "Graph":
        """Image under the permutation v -> perm[v]."""
        if sorted(perm) != list(range(self.n)):
            raise RslabError(f"relabel needs a permutation of 0..{self.n - 1}")
        edges = tuple(sorted(normalise_edge(perm[u], perm[v]) for u, v in self.edges))
        return Graph._trusted(self.n, edges)

    # -- walks and structure ----------------------------------------------

    def components(self) -> list[list[int]]:
        """The vertex sets of the components, each sorted, in the order of
        their least vertices."""
        adjb = self.adjacency_bits()
        comps = []
        left = (1 << self.n) - 1
        while left:
            comp = component_of(adjb, (left & -left).bit_length() - 1)
            left ^= comp
            members = []
            while comp:
                low = comp & -comp
                members.append(low.bit_length() - 1)
                comp ^= low
            comps.append(members)
        return comps

    def is_connected(self) -> bool:
        return len(self.components()) <= 1

    def is_tree(self) -> bool:
        return self.is_connected() and len(self.edges) == self.n - 1

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
            n = integer(data["n"])
            _check_order(n, "the JSON graph")
            return build_graph(n, [tuple(map(integer, e)) for e in data["edges"]])
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
    """Validating constructor: coerces the ends to int, normalises pair
    order and sorts the edge list; :class:`Graph` then rejects self-loops,
    out-of-range ends and duplicates."""
    return Graph(n, tuple(sorted(normalise_edge(int(u), int(v)) for u, v in edges)))


def component_of(adjb, x: int) -> int:
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
# byte b of graph6 text holds (b - 63) mod 256, in 0..63 for '?'..'~' alone;
# value b is written as the byte b + 63
_G6_VALUES = bytes((b - 63) % 256 for b in range(256))
_G6_BYTES = bytes((b + 63) % 256 for b in range(256))


def _check_order(order: int, name: str) -> None:
    """Refuse, before anything is built, a graph on more vertices than
    graph6 can write."""
    if order > _G6_MAX_N:
        raise InvalidParameterError(
            f"{name} would have more than {_G6_MAX_N} vertices, the most graph6 can write")


def _g6_size_bytes(n: int) -> str:
    if n < 0 or n > _G6_MAX_N:
        raise RslabError(f"graph6 supports 0 <= n <= {_G6_MAX_N}, got {n}")
    if n <= 62:
        return chr(n + 63)
    return "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))


def to_graph6(g: Graph) -> str:
    """The graph6 text of g, set bit by bit from the edges into its body:
    time and memory linear in the edges and the output."""
    head = _g6_size_bytes(g.n)
    # the pair (i, j), i < j, is bit k = j(j - 1)/2 + i of the triangle,
    # bit 5 - k % 6 of byte k // 6 of the body (as `from_graph6` reads it)
    body = bytearray((g.n * (g.n - 1) // 2 + 5) // 6)
    for i, j in g.edges:
        k = j * (j - 1) // 2 + i
        body[k // 6] |= 32 >> k % 6
    return head + body.translate(_G6_BYTES).decode("ascii")


def from_graph6(text: str) -> Graph:
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise RslabError("empty graph6 string")
    data = s.encode().translate(_G6_VALUES)
    if max(data) > 63:
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
    # bit t of byte p (bit 5 first) is bit k = 6p + 5 - t of the triangle, the
    # pair (i, j) with k = j(j - 1)/2 + i; padding bits past `need` are ignored
    edges = []
    for p, b in enumerate(body):
        while b:
            t = b.bit_length() - 1
            b ^= 1 << t
            k = 6 * p + 5 - t
            if k < need:
                j = (1 + math.isqrt(8 * k + 1)) // 2
                edges.append((k - j * (j - 1) // 2, j))
    return Graph(n, tuple(sorted(edges)))

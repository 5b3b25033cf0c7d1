"""Decision procedures for rainbow-free colourings and saturation verdicts.

The central search enumerates proper edge colourings of a graph as
restricted-growth assignments: edges are processed in a fixed breadth-first
order from a maximum-degree vertex, and an edge may take colour c only when
c is at most one more than the largest colour used so far.  Enumeration
(:func:`enumerate_rainbow_free_colourings`, or :class:`ColouringSearch`
with no pattern) thereby walks each partition of the edge set into
matchings exactly once, which removes colour relabelling symmetry
outright.  A branch is pruned as soon as the fully coloured edges already
contain a rainbow copy of the target pattern, since such a copy persists
in every extension.

The existence search (:func:`search_rainbow_free_colouring`, and through it
the per-step prsat verdict) also breaks one symmetry of the graph,
specialising the symmetry-breaking predicates of Crawford, Ginsberg, Luks &
Roy (KR 1996).
Call x and y *twins* at position i of the order when edges i-1 and i are
(v, x) and (v, y) and neither x nor y has a neighbour but v and each other
(both of degree 1, or both of degree 2 and adjacent).  Swapping x and y is
an automorphism that swaps just these two edges, so it maps proper and
rainbow-free colourings to proper and rainbow-free colourings; the search
asks col[i-1] < col[i] at every twin position.  This loses no answer and
keeps the certificate: swapping the two values at a pair out of this order
gives another restricted-growth string (if col[i-1] opened a new colour,
col[i] is an older one, and the swapped string opens the new colour one
step later), lexicographically smaller than the first, so the first
colouring the full walk meets is already twin-sorted, and the pruned walk
meets it first too.

That pruning test runs once per search node and asks only for copies
through the edge just coloured, and the walk remembers what each found copy
says about later colours of that edge.  A copy found through the edge at
position i coloured c uses other edges only at earlier positions, the only
coloured ones.  Those keep their colours while the walk stays at position i
or deeper, so for every later colour c' of position i outside the copy's
colour set M the same vertices carry a rainbow copy with the colours of M,
c' in place of c.  The walk therefore ORs the complement of M into a mask
for position i, clears that mask whenever it advances to position i from
i-1 (the earlier colours may have changed), and takes a colour in the mask
as a hit without asking the matcher.

The walk backtracks by conflict-directed backjumping (Prosser,
Computational Intelligence 9(3), 1993).  When position i runs out of
colours, its conflict set S holds the positions j < i whose colour lies in
seen[i], the OR of the colour sets of the copies found at i, and conf[i],
the positions that the dead ends below the colours tried at i rested on.
The walk undoes the positions between the highest position h of S and i
without trying their other colours, returns to h, and adds S minus h to
conf[h]; an empty S ends the walk.  conf[i] and seen[i] are cleared when
the walk advances to i from i-1.  Positions enter S only by their colour,
here or at a dead end below, and the positions below i keep their colours
while the walk is at i or deeper, so S holds every position below i whose
colour some position of S carries.  S is sound as a statement about the
edge partition on S, not about colour values.  Take any colouring of the
positions below i that gives the positions of S their present colours, and
a colour y for i.  If a position of S carries y, then y was offered to i
and is refused for the same reason as now: an earlier edge at e_i carries
y, and S holds it, since S holds every position of its colour; or the same
copy is rainbow, its other edges lying on S (their colours are in seen[i]);
or, by induction, the subtree below y rests on conf[i].  If no position of
S carries y, nor does the new colour c that i was offered, since c exceeds
every colour below i; swapping the names y and c keeps the colours of S,
and carries the refusal of c, by a copy on S or by a subtree resting on
conf[i], over to y.  In particular the copy that refused the new colour
holds only colours of positions in S, so it refuses every colour those
positions do not carry, and edges that share an end with e_i need no entry
of their own.  So no colouring that agrees with the present one on S
extends past i, and the skipped subtrees hold no colouring at all.  Two
cases rest on more than a conflict and backtrack chronologically instead.
A dead end at a twin position was cut by the twin order, so its conflict
set is every earlier position, and its ancestors step back one position at
a time until they are entered again.  A position whose subtree has yielded
since it was entered does the same; one integer, the lowest position
entered since the last yield, marks those.  The walk therefore yields the
same colourings in the same order, and ends the same way, as a
chronological walk that asks the matcher at every node, and it meets a
subset of that walk's nodes in the same order: within a budget it reaches
at least as far, and its certificates are the same.

The matcher compiles, once per pattern, one placement plan per orbit of
directed pattern edges under the pattern's automorphism group (copies
anchored at arcs of one orbit correspond with the same image edges), and
turns each plan into generated code with one nested loop per pattern vertex
and the used vertices and colours kept in bitmasks.  The full-pattern search
behind `contains_copy` and `find_rainbow_copy` comes from the same
generator.  There is one compiled form per plan kind, and it asks for a
rainbow copy: an uncoloured question (a copy in g, or a copy through a new
edge of g + e) gives every edge its own colour, under which every copy is
rainbow, so the answer and the first copy in scan order are those of a
colour-blind search.  Every plan carries the degree feasibility rule of
subgraph matching (Ullmann, J. ACM 1976; the look-ahead rules of VF2,
Cordella et al., TPAMI 2004): a host vertex with fewer edges than the
pattern vertex it would hold is never tried.  An injective copy maps the
neighbours of a pattern vertex h to deg_H(h) distinct neighbours of its
image, each joined to it by an edge the matcher sees (in the search, a
coloured edge), so the rule cuts only branches that hold no copy.  Plans
and scan order are those of the unguarded code, so every call returns the
same copy and colour set, and node counts, call counts and certificates do
not change.

The three verdicts share one shape, a base test on g and a step test on
each non-edge e:

- semi-saturated: no base test; step: g + e has a copy through e;
- saturated: base: g has no copy; step as for semi-saturated;
- properly rainbow saturated: base: g has a rainbow-free proper colouring;
  step: every proper colouring of g + e has a rainbow copy.

A sat or ssat step is one matcher call, so those verdicts ask every
non-edge in lexicographic order and never label g; a prsat step is a full
colouring search, so prsat asks one non-edge per automorphism orbit.  The
census decides the last with one walk over g instead (:func:`outcome`):
at each rainbow-free colouring the walk yields, it asks whether some
colour extends it to g + e.

When every two edges of the pattern share a vertex (a star K1,k, or K3),
prsat is sat, and both prsat verdicts take the sat verdict with no walk: a
proper colouring gives the edges of every copy distinct colours, so a
proper colouring is rainbow-free exactly when the graph has no copy.  The
census's verdict builds no certificate; the per-step verdict keeps those
of the walks, built from the first restricted-growth colouring, which a
graph with no copy reaches without backtracking.

The prsat step, :func:`forces_rainbow`, first asks small induced
subgraphs.  Forcing passes to supergraphs: if F is a subgraph of g and
every proper colouring of F has a rainbow copy, so has every proper
colouring of g, since it restricts to a proper colouring of F.  The
subgraphs asked are T_p, g induced on the first p vertices of each class of
twins (vertices with the same open, or the same closed, neighbourhood, the
classes that `canon` seeds its labelling with), for p = 1, 2, 4, ... while
T_p is smaller than g; a host with large twin classes, such as the paper's
caterpillars, brooms and star forests, is settled on a T_p of a few
vertices per class.  The rule is one-sided: a T_p with a rainbow-free
colouring says nothing about g, so the last walk is the plain one on g,
and a Refuted step carries the same certificate as without the rule.  The
base test stays on g, since having a rainbow-free colouring passes to
subgraphs, not to supergraphs.

Budgets are node counts on the colouring search tree.  A search that runs
out of nodes reports Unknown, never a guess.  Each walk of a forcing step
gets the whole budget, and the step reports the nodes of all of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import NamedTuple

from .canon import (automorphism_generators, non_edge_orbit_representatives, orbit_roots,
                    twin_classes)
from .colouring import EdgeColouring
from .graphs import Edge, Graph
from .patterns import PatternSpec

DEFAULT_BUDGET = 100_000_000


class Status(str, Enum):
    ESTABLISHED = "established"
    REFUTED = "refuted"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class Embedding:
    """Injective map of pattern vertices into a host graph.

    `vertices[i]` is the image of pattern vertex i; `edge_image` is parallel
    to the pattern's edge list.
    """

    vertices: tuple[int, ...]
    edge_image: tuple[Edge, ...]

    def to_json_dict(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "edge_image": [[u, v] for u, v in self.edge_image],
        }


@dataclass(frozen=True)
class NonEdgeWitness:
    """A non-edge whose addition still admits a rainbow-free colouring."""

    edge: Edge
    colouring: EdgeColouring

    def to_json_dict(self) -> dict:
        return {"non_edge": list(self.edge), "colouring": self.colouring.to_json_dict()}


@dataclass(frozen=True)
class SearchVerdict:
    """The verdict of a decision and the certificate that settles it.  sat
    and ssat are exact: they walk no colourings, so `nodes_explored` is 0
    and `budget` None."""

    status: Status
    certificate: object | None
    nodes_explored: int
    budget: int | None
    note: str | None = None

    def to_json_dict(self) -> dict:
        cert: object | None
        if self.certificate is None:
            cert = None
        elif hasattr(self.certificate, "to_json_dict"):
            cert = self.certificate.to_json_dict()
        else:
            cert = self.certificate
        out = {
            "status": self.status.value,
            "certificate": cert,
            "nodes_explored": self.nodes_explored,
            "budget": self.budget,
        }
        if self.note:
            out["note"] = self.note
        return out


# -- pattern matching ---------------------------------------------------------


class _Matcher:
    """Compiled embedder for one pattern graph.

    A placement plan orders the pattern vertices: each new vertex is
    anchored to an already placed neighbour, and a fresh component restarts
    unanchored.  The full plan serves :meth:`find`.  The anchored plans, one
    per directed pattern edge, look for copies through a given host edge;
    only the first arc of each orbit of directed edges under Aut(H) gets a
    plan, because an automorphism carrying one arc onto another turns every
    copy anchored at the first into a copy anchored at the second with the
    same image edges and colours.

    Each plan is compiled by :func:`_compile_plans` into a generated
    function with one nested ``for`` loop per step, so a call runs without
    recursion or a mapping list.  Two functions serve every question: the
    anchored plans return the colour set of a rainbow copy through an edge
    (:meth:`exists_through`: the colouring search and the saturation step),
    the full plan the images of one (:meth:`find`).  An uncoloured
    question gives each host edge its own colour, which makes every copy
    rainbow (see :func:`_host_tables`).  Both skip host vertices with fewer
    edges than the pattern vertex they would hold (see the module notes and
    :func:`_compile_plans`).  Both read the host through its lists of
    (neighbour, colour) pairs alone, closing edges of a cyclic pattern too.
    """

    def __init__(self, pattern: Graph):
        self.pattern = pattern
        self.k = pattern.n
        self.edge_count = len(pattern.edges)
        anchored = [(arc, self._plan(seed=arc)) for arc in _arc_orbit_representatives(pattern)]
        full = [((), self._plan(seed=()))]
        deg = pattern.degrees()
        self._through = _compile_plans(anchored, deg, colour_set=True)
        self._find = _compile_plans(full, deg)

    def _plan(self, seed: tuple[int, ...]):
        """The steps placing the vertices after `seed`: each time the least
        vertex with the most placed neighbours, anchored to the first of
        them, or the least unplaced vertex when none has one."""
        nbrs = [self.pattern.neighbours(x) for x in range(self.k)]
        count = [0] * self.k  # placed neighbours of each vertex; -1 once placed
        steps = []
        for i in range(self.k):
            if i < len(seed):
                x = seed[i]
            else:
                x = max(range(self.k), key=count.__getitem__)  # max keeps the first
                anchors = [y for y in nbrs[x] if count[y] < 0]
                steps.append((x, anchors[0], tuple(anchors[1:])) if anchors else (x, None, ()))
            count[x] = -1
            for y in nbrs[x]:
                if count[y] >= 0:
                    count[y] += 1
        return tuple(steps)

    def exists_through(self, u, v, c_uv, adj) -> int | None:
        """The colours of a rainbow copy among the coloured edges that uses
        the edge (u, v) coloured c_uv, as a bitmask, or None if there is none.

        The mask holds c_uv >= 1, so it is true whenever a copy exists.  The
        colouring search keeps it: the copy stays rainbow when (u, v) alone
        takes any colour outside the mask instead.  `adj[x]` lists the
        (neighbour, colour) pairs of the coloured edges at x, (u, v) among
        them: the degree guards count it.
        """
        return self._through(u, v, c_uv, adj)

    def through_added_edge(self, u, v, c, adj) -> int | None:
        """:meth:`exists_through` for the edge (u, v) coloured c, which
        `adj` holds only for this one call."""
        adj[u].append((v, c))
        adj[v].append((u, c))
        colours = self.exists_through(u, v, c, adj)
        adj[u].pop()
        adj[v].pop()
        return colours

    def find(self, adj) -> Embedding | None:
        """Complete search of the host whose (neighbour, colour) lists are
        `adj` (see :func:`_host_tables`); deterministic (first hit in the
        fixed scan order)."""
        mapping = self._find(-1, -1, 0, adj)
        if mapping is None:
            return None
        image = tuple(
            (min(mapping[a], mapping[b]), max(mapping[a], mapping[b]))
            for a, b in self.pattern.edges
        )
        return Embedding(mapping, image)


def _host_tables(n: int, edges, colouring: EdgeColouring | None):
    """Per-vertex lists of (neighbour, colour).  Without a colouring edge i
    has colour i + 1: a copy uses distinct edges, so under these colours
    every copy is rainbow, and the rainbow plans answer the uncoloured
    question in the same scan order."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for i, (u, v) in enumerate(edges):
        c = colouring.colours[i] if colouring is not None else i + 1
        adj[u].append((v, c))
        adj[v].append((u, c))
    return adj


def _arc_orbit_representatives(pattern: Graph) -> list[Edge]:
    """First directed edge, in (a, b), (b, a) edge-list order, of each orbit
    of directed edges under the automorphism group of the pattern."""
    arcs = [arc for a, b in pattern.edges for arc in ((a, b), (b, a))]
    index = {arc: i for i, arc in enumerate(arcs)}
    images = [[index[(s[a], s[b])] for a, b in arcs] for s in automorphism_generators(pattern)]
    roots = orbit_roots(len(arcs), images)
    return [arc for i, arc in enumerate(arcs) if roots[i] == i]


# CPython refuses more than 20 statically nested blocks in one function; a
# plan deeper than this continues in a helper function.
_MAX_NESTED_LOOPS = 16


def _compile_plans(plans, deg, colour_set: bool = False):
    """Generate one function that tries each (seed, steps) plan in turn.

    The function takes ``(u, v, c_uv, adj)``, `adj` the host's lists of
    (neighbour, colour) pairs; a plan seeded with the arc (a, b) maps a to u
    and b to v and starts from the colour c_uv, an unseeded plan ignores all
    three and ranges over ``range(len(adj))``.  Pattern vertex h is held in
    the local ``x{h}``; ``u{d}`` and ``m{d}`` are the used-vertex and colour
    bitmasks after depth d.  A step reads the colour of the edge to its
    anchor off the list it walks; an edge to a further placed neighbour q,
    which only a cyclic pattern has, takes its colour from a scan of
    ``adj[x]`` for the image of q, and x is skipped if there is none.  The
    first embedding reached is returned as the tuple of images of the
    pattern vertices (with `colour_set`, as the bitmask of its edge
    colours), and None when every plan is exhausted.
    Every plan asks for a rainbow copy; an uncoloured question gives each
    host edge its own colour (:func:`_host_tables`), so each of its copies
    passes the colour tests.  The source is built from pattern vertex
    indices and their degrees `deg` only.

    Two degree guards cut the search: a plan seeded with the arc (a, b)
    runs only if ``len(adj[u]) >= deg[a]`` and ``len(adj[v]) >= deg[b]``,
    and a step placing a pattern vertex h with ``deg[h] >= 2`` skips a
    candidate x with ``len(adj[x]) < deg[h]``.  The image of h in a copy
    has deg[h] distinct neighbours through edges of `adj`, so a cut branch
    holds no copy.  Guards of degree 1 are left out: they hold for the ends
    of (u, v) and for every candidate reached through an edge.
    """
    helpers: list[list[str]] = []

    def either(mask, bit):
        return bit if mask == "0" else f"{mask} | {bit}"

    def emit(lines, steps, indent, names, used, colours, depth):
        pad = "    " * indent
        for i, (hv, primary, others) in enumerate(steps):
            if i == _MAX_NESTED_LOOPS:
                masks = [m for m in (used, colours) if m != "0"]
                params = ", ".join([*names.values(), *masks, "adj"])
                name = f"_part{len(helpers)}"
                body = [f"def {name}({params}):"]
                helpers.append(body)
                emit(body, steps[i:], 1, dict(names), used, colours, depth)
                body.append("    return None")
                lines += [f"{pad}r = {name}({params})", f"{pad}if r is not None:",
                          f"{pad}    return r"]
                return
            last = i == len(steps) - 1
            x = names[hv] = f"x{hv}"
            depth += 1
            if primary is None:
                lines.append(f"{pad}for {x} in range(len(adj)):")
            else:
                lines.append(f"{pad}for {x}, c in adj[{names[primary]}]:")
            fails = []
            if deg[hv] >= 2:
                fails.append(f"len(adj[{x}]) < {deg[hv]}")
            if used != "0":
                fails.append(f"{used} >> {x} & 1")
            if primary is not None and colours != "0":
                fails.append(f"{colours} >> c & 1")
            pad += "    "
            if fails:
                lines += [f"{pad}if {' or '.join(fails)}:", f"{pad}    continue"]
            if primary is not None and (others or not last or colour_set):
                lines.append(f"{pad}m{depth} = {either(colours, '1 << c')}")
                colours = f"m{depth}"
            for q in others:
                lines += [f"{pad}for y, c in adj[{x}]:", f"{pad}    if y == {names[q]}:",
                          f"{pad}        break", f"{pad}else:", f"{pad}    continue",
                          f"{pad}if {colours} >> c & 1:", f"{pad}    continue",
                          f"{pad}{colours} |= 1 << c"]
            if not last:
                lines.append(f"{pad}u{depth} = {either(used, f'1 << {x}')}")
                used = f"u{depth}"
        if colour_set:
            lines.append(f"{pad}return {colours}")
        else:
            lines.append(f"{pad}return ({''.join(names[h] + ', ' for h in range(len(names)))})")

    main = ["def match(u, v, c_uv, adj):"]
    if any(seed for seed, _ in plans):
        main += ["    u0 = 1 << u | 1 << v", "    m0 = 1 << c_uv"]
    for seed, steps in plans:
        if seed:
            guards = [f"len(adj[{w}]) >= {deg[h]}" for h, w in zip(seed, "uv") if deg[h] >= 2]
            if guards:
                main.append(f"    if {' and '.join(guards)}:")
            emit(main, steps, 2 if guards else 1, dict(zip(seed, ("u", "v"))), "u0", "m0", 0)
        else:
            emit(main, steps, 1, {}, "0", "0", 0)
    emit = None  # emit calls itself: unbinding it frees it with no cycle left
    main.append("    return None")
    source = "\n".join(line for block in (*helpers, main) for line in block)
    scope: dict = {}
    exec(compile(source, "<rslab matcher plan>", "exec"), scope)
    return scope.pop("match")  # a matcher left in its own globals would form a cycle


@lru_cache(maxsize=1024)
def _matcher_for(spec: PatternSpec) -> _Matcher:
    return _Matcher(spec.graph)


def _matcher_in(g: Graph, spec: PatternSpec | None) -> _Matcher | None:
    """The matcher of the pattern for questions about copies in g, or None
    when g holds no copy whatever its edges and colours: no pattern, or one
    on more vertices than g.  No matcher is compiled for such a pattern."""
    if spec is None or spec.graph.n > g.n:
        return None
    return _matcher_for(spec)


# -- the colouring search ------------------------------------------------------


def bfs_edge_order(g: Graph) -> list[int]:
    """Edges ordered breadth-first from a maximum-degree vertex, each given
    by its position in `g.edges`.

    Vertices are visited in BFS order (restarting per component at the
    unvisited vertex of largest degree); an edge is ranked by the BFS
    positions of its later, then earlier, endpoint.  This packs the edges
    around each vertex together, which tightens the matching constraints
    early in the search.
    """
    n = g.n
    edges = g.edges
    # neighbours in increasing order, as the sorted edge tuple lists them
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for a, b in edges:
        nbrs[a].append(b)
        nbrs[b].append(a)
    seen = [False] * n
    bfs: list[int] = []  # also the queue: bfs[k:] are still to be expanded
    # a stable sort in reverse keeps equal degrees in increasing vertex order
    for start in sorted(range(n), key=[len(a) for a in nbrs].__getitem__, reverse=True):
        if seen[start]:
            continue
        seen[start] = True
        k = len(bfs)
        bfs.append(start)
        while k < len(bfs):
            for w in nbrs[bfs[k]]:
                if not seen[w]:
                    seen[w] = True
                    bfs.append(w)
            k += 1
    pos = [0] * n
    for i, x in enumerate(bfs):
        pos[x] = i
    # edge (a, b) ranks by (later position, earlier position), packed in one int
    key = [pos[a] * n + pos[b] if pos[a] > pos[b] else pos[b] * n + pos[a]
           for a, b in edges]
    return sorted(range(len(key)), key=key.__getitem__)


def _twin_positions(g: Graph, order) -> list[bool]:
    """For each position i of `order`: are edges i-1 and i the edges (v, x),
    (v, y) to twins x, y, that is, is v the one neighbour of x and of y
    apart from each other?"""
    adjb = g.adjacency_bits()
    twin = [False] * len(order)
    for i in range(1, len(order)):
        (a, b), (c, d) = order[i - 1], order[i]
        if a == c:
            v, x, y = a, b, d
        elif b == d:
            v, x, y = b, a, c
        elif a == d:
            v, x, y = a, b, c
        elif b == c:
            v, x, y = b, a, d
        else:
            continue
        twin[i] = adjb[x] & ~(1 << y) == adjb[y] & ~(1 << x) == 1 << v
    return twin


class ColouringSearch:
    """Iterator over proper colourings of a graph, up to colour relabelling.

    With a pattern attached, branches whose coloured edges already contain a
    rainbow copy are pruned, so the iterator yields exactly the rainbow-free
    proper colourings; after :meth:`sort_twins`, only the twin-sorted ones.
    `nodes_explored` counts colour assignments; `exhausted` reports whether
    the tree was fully walked.  A colour that a copy found earlier at the
    same position, over the same earlier colours, already makes rainbow is
    pruned without a matcher call (see the module notes); it still counts
    as a node.  A dead end jumps back to the last position it rests on.
    """

    def __init__(self, graph: Graph, pattern: PatternSpec | None,
                 budget: int | None = None):
        self.graph = graph
        self.budget = budget
        self.nodes_explored = 0
        self.exhausted = False
        self._out_slot = bfs_edge_order(graph)
        self._order = [graph.edges[j] for j in self._out_slot]
        self._matcher = _matcher_in(graph, pattern)
        self._twin = [False] * len(self._order)

    def sort_twins(self) -> ColouringSearch:
        """Walk only the twin-sorted colourings (see the module notes);
        return self."""
        self._twin = _twin_positions(self.graph, self._order)
        return self

    def run(self):
        g = self.graph
        order = self._order
        m = len(order)
        # usage[c] = bitmask of vertices already covered by colour c
        usage = [0] * (m + 2)
        cadj: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
        self._tables = (cadj, usage)
        if m == 0:
            self.exhausted = True
            yield ()
            return
        matcher = self._matcher
        min_edges = matcher.edge_count if matcher else 0
        budget = self.budget
        out_slot = self._out_slot
        twin = self._twin

        col = [0] * m
        maxu = [0] * (m + 1)
        assigned = [False] * m
        ends = [(u, v, (1 << u) | (1 << v)) for u, v in order]

        # known_bad[i]: colours of position i already known to complete a
        # rainbow copy with the colours now at positions < i; seen[i]: the
        # colours of those copies; conf[i]: the positions that the dead ends
        # below the colours tried at i so far rest on (see the module notes)
        known_bad = [0] * m
        seen = [0] * m
        conf = [0] * m
        # positions below `poisoned` have yielded since they were entered
        poisoned = 0

        i = 0
        while i >= 0:
            u, v, uvmask = ends[i]
            if assigned[i]:
                old = col[i]
                usage[old] ^= uvmask
                cadj[u].pop()
                cadj[v].pop()
                assigned[i] = False
            c = col[i] + 1
            limit = maxu[i] + 1
            while c <= limit and usage[c] & uvmask:
                c += 1
            if c > limit:
                col[i] = 0
                if i < poisoned:
                    i -= 1
                    continue
                if twin[i]:
                    cs = (1 << i) - 1
                else:
                    cs = conf[i]
                    s = seen[i]
                    if s:
                        for j in range(i):
                            if s >> col[j] & 1:
                                cs |= 1 << j
                h = cs.bit_length() - 1
                for j in range(i - 1, h, -1):
                    a, b, abmask = ends[j]
                    usage[col[j]] ^= abmask
                    cadj[a].pop()
                    cadj[b].pop()
                    assigned[j] = False
                    col[j] = 0
                if h >= 0:
                    conf[h] |= cs ^ (1 << h)
                i = h
                continue
            if budget is not None and self.nodes_explored >= budget:
                return
            self.nodes_explored += 1
            col[i] = c
            usage[c] |= uvmask
            cadj[u].append((v, c))
            cadj[v].append((u, c))
            assigned[i] = True
            if matcher is not None and i + 1 >= min_edges:
                if known_bad[i] >> c & 1:
                    continue
                colours = matcher.exists_through(u, v, c, cadj)
                if colours is not None:
                    known_bad[i] |= ~colours
                    seen[i] |= colours
                    continue
            if i + 1 == m:
                out = [0] * m
                for j in range(m):
                    out[out_slot[j]] = col[j]
                poisoned = m
                yield tuple(out)
                continue
            maxu[i + 1] = maxu[i] if c <= maxu[i] else c
            i += 1
            known_bad[i] = seen[i] = conf[i] = 0
            if poisoned > i:
                poisoned = i
            if twin[i]:
                col[i] = c  # the next try is c + 1
        self.exhausted = True

    def extension(self, u: int, v: int) -> int | None:
        """A colour for the non-edge (u, v) that keeps the colouring that
        :meth:`run` has just yielded proper and rainbow-free on g + (u, v),
        or None if there is none; valid only while the walk rests there.

        The colours offered are those used at neither end, and one new
        colour.  A copy through (u, v) with colour set M stays rainbow when
        (u, v) takes any colour outside M instead, so only the colours of M
        are tried after it.  With no matcher (no pattern, or one on more
        vertices than g) the first colour offered is taken.
        """
        cadj, usage = self._tables
        matcher = self._matcher
        uvmask = 1 << u | 1 << v
        allowed = -1
        for c in range(1, len(usage)):
            if not usage[c] & uvmask and allowed >> c & 1:
                colours = None if matcher is None else matcher.through_added_edge(u, v, c, cadj)
                if colours is None:
                    return c
                allowed &= colours
            if not usage[c]:  # c was the new colour
                break
        return None


def enumerate_rainbow_free_colourings(g: Graph, pattern: PatternSpec):
    """All proper colourings of g without a rainbow copy, up to relabelling."""
    search = ColouringSearch(g, pattern, None)
    for colours in search.run():
        yield EdgeColouring(g, colours)


# -- public decision procedures ------------------------------------------------


def contains_copy(g: Graph, pattern: PatternSpec) -> Embedding | None:
    """Complete subgraph-isomorphism search for the pattern in g."""
    matcher = _matcher_in(g, pattern)
    return None if matcher is None else matcher.find(_host_tables(g.n, g.edges, None))


def find_rainbow_copy(
    g: Graph, colouring: EdgeColouring, pattern: PatternSpec
) -> Embedding | None:
    """Complete search for a copy of the pattern whose edge colours are
    pairwise distinct.  The colouring need not be proper."""
    matcher = _matcher_in(g, pattern)
    return None if matcher is None else matcher.find(_host_tables(g.n, g.edges, colouring))


def search_rainbow_free_colouring(
    g: Graph, pattern: PatternSpec, budget: int | None = DEFAULT_BUDGET
) -> SearchVerdict:
    """Look for a proper colouring of g with no rainbow copy of the pattern.

    Established carries the colouring found; Refuted means the exhaustive
    walk pruned every branch; Unknown means the node budget ran out.
    """
    search = ColouringSearch(g, pattern, budget).sort_twins()
    for colours in search.run():
        return SearchVerdict(
            Status.ESTABLISHED,
            EdgeColouring(g, colours),
            search.nodes_explored,
            budget,
        )
    if search.exhausted:
        return SearchVerdict(Status.REFUTED, None, search.nodes_explored, budget)
    return SearchVerdict(Status.UNKNOWN, None, search.nodes_explored, budget)


def forces_rainbow(
    g: Graph, pattern: PatternSpec, budget: int | None = DEFAULT_BUDGET
) -> SearchVerdict:
    """Does every proper colouring of g contain a rainbow copy?

    The negation of :func:`search_rainbow_free_colouring`, asked first of
    the twin-trimmed subgraphs T_1, T_2, T_4, ... of g that are smaller
    than g (see :func:`_twin_trims`), then of g.  Forcing passes to
    supergraphs: every proper colouring of g restricts to a proper
    colouring of T_p, so if T_p has no rainbow-free colouring, neither has
    g, and the verdict is Established.  A T_p that has one, or whose walk
    ends Unknown, says nothing.  The last walk, on g, is the plain one with
    the full budget, so a Refuted verdict carries its rainbow-free
    colouring of g, and every status it reaches is kept.  Each walk gets
    the full budget; `nodes_explored` sums them.
    """
    nodes = 0
    for sub in _twin_trims(g):
        walk = search_rainbow_free_colouring(sub, pattern, budget)
        nodes += walk.nodes_explored
        if walk.status is Status.REFUTED:
            return SearchVerdict(Status.ESTABLISHED, None, nodes, budget)
    if walk.status is Status.ESTABLISHED:  # the walk on g itself
        return SearchVerdict(Status.REFUTED, walk.certificate, nodes, budget)
    return SearchVerdict(Status.UNKNOWN, None, nodes, budget)


def _twin_trims(g: Graph):
    """T_1, T_2, T_4, ... while smaller than g, then g itself: T_p is g
    induced on the first p vertices of each class of twins (vertices with
    the same open, or the same closed, neighbourhood), renumbered in
    order."""
    rank = [0] * g.n  # the number of v's twins below v
    for cls in twin_classes(g.adjacency_bits()):
        for r, v in enumerate(cls):
            rank[v] = r
    top = max(rank, default=0)
    p = 1
    while p <= top:
        keep = [v for v in range(g.n) if rank[v] < p]
        at = {v: i for i, v in enumerate(keep)}
        # renumbering in order keeps the edge tuple sorted
        yield Graph._trusted(len(keep), tuple((at[u], at[v]) for u, v in g.edges
                                              if rank[u] < p and rank[v] < p))
        p *= 2
    yield g


def is_semi_saturated(g: Graph, pattern: PatternSpec, non_edges=None) -> SearchVerdict:
    """Every single-edge addition creates a copy of the pattern through the
    new edge (Füredi & Kim, 2013); copies elsewhere in g do not count.

    The non-edges checked are `non_edges`, by default every non-edge in
    lexicographic order, taken one at a time, without labelling g.  A
    failure is Refuted with the non-edge as its certificate.  Passing one
    representative per automorphism orbit, each the first of its orbit,
    gives the same verdict and certificate: an automorphism carries a copy
    through e onto a copy through its image, so the first failing non-edge
    is the first of its orbit.  A pattern on more vertices than g has no
    copy in any g + e, so the first non-edge refutes.
    """
    return _steps(g, _matcher_in(g, pattern), _host_tables(g.n, g.edges, None), non_edges)


def is_saturated(g: Graph, pattern: PatternSpec, non_edges=None) -> SearchVerdict:
    """Pattern-free and semi-saturated over `non_edges` (by default every
    non-edge).  The certificate of a Refuted verdict is a copy of the
    pattern in g, or a non-edge whose addition creates none.  The copy
    search and every step read the same lists of g."""
    matcher = _matcher_in(g, pattern)
    adj = _host_tables(g.n, g.edges, None)
    emb = None if matcher is None else matcher.find(adj)
    if emb is not None:
        return SearchVerdict(Status.REFUTED, emb, 0, None)
    return _steps(g, matcher, adj, non_edges)


def _steps(g: Graph, matcher: _Matcher | None, adj, non_edges) -> SearchVerdict:
    """The step of :func:`is_semi_saturated` on each non-edge in turn, over
    the matcher's lists `adj` of g, each edge with its own colour; each
    non-edge joins them, with a colour of its own, for one call.  The
    default non-edges are made one at a time, never stored."""
    new_colour = len(g.edges) + 1
    for e in g.non_edges() if non_edges is None else non_edges:
        if matcher is None or matcher.through_added_edge(*e, new_colour, adj) is None:
            return SearchVerdict(Status.REFUTED, e, 0, None)
    return SearchVerdict(Status.ESTABLISHED, None, 0, None)


@lru_cache(maxsize=1024)
def _edges_pairwise_meet(spec: PatternSpec) -> bool:
    """Whether every two edges of the pattern share a vertex (a star K1,k,
    or K3), so that prsat is sat (see the module notes)."""
    edges = spec.graph.edges
    return all(set(e) & set(f) for i, e in enumerate(edges) for f in edges[:i])


def _first_colouring(g: Graph) -> EdgeColouring:
    """The first restricted-growth colouring of g: each edge of the search
    order takes the least colour free at both ends."""
    return EdgeColouring(g, next(ColouringSearch(g, None).run()))


def is_properly_rainbow_saturated(
    g: Graph, pattern: PatternSpec, budget: int | None = DEFAULT_BUDGET
) -> SearchVerdict:
    """Decide both defining conditions by exhaustive pruned search.

    Established: g has a rainbow-free proper colouring (the certificate) and
    for one non-edge e of each automorphism orbit, which stands for its
    whole orbit, every proper colouring of g+e contains a rainbow copy
    (:func:`forces_rainbow`).  Refuted carries either nothing (g itself has
    no rainbow-free colouring) or the offending non-edge with its
    rainbow-free colouring of g+e.  Unknown propagates from any sub-search;
    each sub-search gets the full node budget, and `nodes_explored`
    aggregates.

    When every two pattern edges share a vertex, :func:`is_saturated` over
    every non-edge decides, with no walk and no labelling of g, and the
    certificates are the first restricted-growth colourings of g and of
    g + e, the ones the walks find (see the module notes).

    When the pattern has more vertices than g, no edge addition can create a
    copy, so only complete graphs qualify; such verdicts are flagged with a
    "degenerate regime" note.
    """
    note = "degenerate regime" if g.n < pattern.graph.n else None
    if _edges_pairwise_meet(pattern):
        sat = is_saturated(g, pattern)
        cert = None
        if sat.status is Status.ESTABLISHED:
            cert = _first_colouring(g)
        elif not isinstance(sat.certificate, Embedding):
            e = sat.certificate
            cert = NonEdgeWitness(e, _first_colouring(g.add_edge(*e)))
        return SearchVerdict(sat.status, cert, 0, budget, note)
    base = search_rainbow_free_colouring(g, pattern, budget)
    total = base.nodes_explored
    if base.status is not Status.ESTABLISHED:
        return SearchVerdict(base.status, None, total, budget, note)
    saw_unknown = False
    for e in non_edge_orbit_representatives(g):
        sub = forces_rainbow(g.add_edge(*e), pattern, budget)
        total += sub.nodes_explored
        if sub.status is Status.REFUTED:
            cert = NonEdgeWitness(e, sub.certificate)
            return SearchVerdict(Status.REFUTED, cert, total, budget, note)
        if sub.status is Status.UNKNOWN:
            saw_unknown = True
    if saw_unknown:
        return SearchVerdict(Status.UNKNOWN, None, total, budget, note)
    return SearchVerdict(Status.ESTABLISHED, base.certificate, total, budget, note)


def decide(
    g: Graph, pattern: PatternSpec, quantity: str, budget: int | None = DEFAULT_BUDGET
) -> SearchVerdict:
    """The certified verdict on g for `quantity`: sat, ssat, or prsat, the
    one that reads `budget` (:func:`is_properly_rainbow_saturated`)."""
    if quantity == "prsat":
        return is_properly_rainbow_saturated(g, pattern, budget)
    return (is_semi_saturated if quantity == "ssat" else is_saturated)(g, pattern)


class Outcome(NamedTuple):
    """A verdict as the census reads it: no certificate."""

    status: Status
    nodes: int
    base_failed: bool = False  # Refuted at the base (see outcome)


def outcome(
    g: Graph,
    pattern: PatternSpec,
    quantity: str,
    budget: int | None = DEFAULT_BUDGET,
    non_edges=None,
) -> Outcome:
    """The census's verdict on g for `quantity` (sat, ssat or prsat), with
    no certificate.  The steps ask the non-edges `non_edges`; a census
    passes one per automorphism orbit, read off the generators each class
    carries, and None leaves them to the verdict's defaults (every non-edge
    for sat and ssat, one per orbit for the prsat walk).  The rules, stated
    here once:

    - Star rule.  sat and ssat take :func:`is_saturated` and
      :func:`is_semi_saturated`, and so does prsat, as sat, when every two
      pattern edges share a vertex (a star K1,k, or K3), since prsat is
      then sat (see the module notes).  These are exact, read 0 nodes and
      spend no budget.
    - One walk.  Any other prsat verdict comes from one walk over the
      rainbow-free colourings of g (:func:`_prsat_walk`), which decides
      the base and every step; `budget` bounds it, so it may end Unknown,
      and `nodes` counts its nodes, not its extension calls.
    - Base failure.  `base_failed` marks a verdict Refuted on g itself,
      before any step: g has a copy of the pattern (sat, and star prsat)
      or no rainbow-free colouring (prsat).  Either passes to supergraphs;
      ssat has no base test.
    """
    if quantity == "prsat" and not _edges_pairwise_meet(pattern):
        return _prsat_walk(g, pattern, budget, non_edges)
    verdict = (is_semi_saturated if quantity == "ssat" else is_saturated)(g, pattern, non_edges)
    return Outcome(verdict.status, 0, isinstance(verdict.certificate, Embedding))


def _prsat_walk(g: Graph, pattern: PatternSpec, budget: int | None, non_edges) -> Outcome:
    """The verdict of :func:`is_properly_rainbow_saturated` from one walk
    over the rainbow-free colourings of g.

    g + e has a rainbow-free proper colouring exactly when some rainbow-free
    proper colouring of g extends to it, so at each colouring the walk
    yields, every non-edge in `non_edges` (by default one per automorphism
    orbit) is offered to :meth:`ColouringSearch.extension`.  Refuted at the
    base when g has no colouring, or at the first non-edge that extends;
    Established once the walk ends with no extension.  The budget bounds
    the one walk.  The walk sorts no twins: twins of g need not be twins of
    g + e.

    Hosts keep the per-step walks: on the caterpillar host (n = 28) this
    walk is still Unknown after 10^6 nodes (52 s), while the three forcing
    steps close in 1,089, 1,120 and 647 nodes on twin-trimmed subgraphs
    (4,508, 4,337 and 958 walking the whole host; 7,870, 4,349 and 571,624
    before backjumping).
    """
    non_edges = non_edge_orbit_representatives(g) if non_edges is None else list(non_edges)
    search = ColouringSearch(g, pattern, budget)
    yielded = False
    for _ in search.run():
        yielded = True
        for e in non_edges:
            if search.extension(*e) is not None:
                return Outcome(Status.REFUTED, search.nodes_explored)
        if not non_edges:
            break
    nodes = search.nodes_explored
    if yielded and (search.exhausted or not non_edges):
        return Outcome(Status.ESTABLISHED, nodes)
    if search.exhausted:
        return Outcome(Status.REFUTED, nodes, True)
    return Outcome(Status.UNKNOWN, nodes)

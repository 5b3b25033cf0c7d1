"""Extremal constructions, each with its stated colouring where one exists.

Every builder fixes a deterministic vertex labelling so that serialized
output is byte-stable, and the bundles carry a provenance string naming the
construction they instantiate.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import oracle
from .colouring import EdgeColouring
from .engine import Status, is_saturated
from .errors import (
    ConstructionInvalidError,
    InvalidParameterError,
    NotRepresentableError,
    OracleBudgetExceededError,
)
from .formulas import double_star_multiplier
from .graphs import _G6_MAX_N, Graph, _check_order, build_graph, disjoint_union, from_graph6
from .patterns import PatternSpec

STAR_FOREST_VALIDATION_CUTOFF = 12


@dataclass(frozen=True)
class GadgetBundle:
    """A constructed graph together with its rainbow-free proper colouring."""

    graph: Graph
    colouring: EdgeColouring
    provenance: str

    def to_json_dict(self) -> dict:
        d = self.colouring.to_json_dict()
        d["provenance"] = self.provenance
        return d


# -- folded cubes -----------------------------------------------------------------


@dataclass(frozen=True)
class FoldedCube:
    """The folded cube with the given index: 2^(index-1) bit-vector vertices,
    adjacent when they differ by a unit vector or by the all-ones vector."""

    index: int

    def __post_init__(self):
        if self.index < 2:
            raise InvalidParameterError("folded cube index must be >= 2")

    @property
    def dim(self) -> int:
        return self.index - 1

    @property
    def directions(self) -> tuple[int, ...]:
        """Difference vectors as bitmasks, ascending; the all-ones vector is
        last.  No proper nonempty subset XORs to zero; the full set does."""
        units = [1 << i for i in range(self.dim)]
        ones = (1 << self.dim) - 1
        return tuple(sorted(set(units + [ones])))

    def graph(self) -> Graph:
        size = 1 << self.dim
        edges = set()
        for x in range(size):
            for a in self.directions:
                y = x ^ a
                edges.add((min(x, y), max(x, y)))
        return build_graph(size, sorted(edges))

    def difference_colouring(self) -> EdgeColouring:
        """Colour every edge by its difference vector (one colour per
        direction, numbered 1.. in ascending direction order)."""
        g = self.graph()
        index_of = {a: i + 1 for i, a in enumerate(self.directions)}
        return EdgeColouring(g, tuple(index_of[u ^ v] for u, v in g.edges))


def folded_cube(ell: int) -> GadgetBundle:
    """The coloured folded cube that avoids rainbow paths on ell vertices.

    For a target path on ell >= 4 vertices this is the folded cube of index
    ell-1: (ell-1)-regular on 2^(ell-2) vertices, coloured with exactly
    ell-1 colours by the difference colouring.
    """
    if ell < 4:
        raise InvalidParameterError("folded_cube needs ell >= 4")
    # 2^(ell-2) vertices; past 2^18 the bound is exceeded, so a huge ell
    # is clipped there rather than raised to its power
    _check_order(1 << min(ell - 2, _G6_MAX_N.bit_length()), "folded_cube")
    cube = FoldedCube(ell - 1)
    return GadgetBundle(
        cube.graph(),
        cube.difference_colouring(),
        f"folded-cube index {ell - 1} with difference colouring "
        f"(rainbow-free for P{ell})",
    )


def hypercube(dim: int) -> Graph:
    if dim < 0:
        raise InvalidParameterError("hypercube dimension must be >= 0")
    size = 1 << dim
    edges = []
    for x in range(size):
        for i in range(dim):
            y = x ^ (1 << i)
            if x < y:
                edges.append((x, y))
    return build_graph(size, sorted(edges))


# -- brooms -----------------------------------------------------------------------


def broom_gadget(m: int) -> GadgetBundle:
    """Triangle with m+1 pendants per corner, coloured on m+3 colours.

    Vertices: corners 0,1,2; pendants of corner i are 3+i*(m+1) .. and the
    first pendant of each corner shares its colour with the opposite
    triangle edge.  The colouring is proper and admits no rainbow broom
    B_{4,m}, and it is the unique such colouring up to relabelling.
    """
    if m < 1:
        raise InvalidParameterError("broom gadget needs m >= 1")
    _check_order(3 * m + 6, "broom gadget")
    # opposite corner of each triangle edge: (1,2)->0, (0,2)->1, (0,1)->2
    colour_map = {(1, 2): 1, (0, 2): 2, (0, 1): 3}
    nxt = 3
    for corner in range(3):
        for j in range(m + 1):
            colour_map[(corner, nxt)] = corner + 1 if j == 0 else j + 3
            nxt += 1
    g = build_graph(nxt, colour_map)
    return GadgetBundle(
        g,
        EdgeColouring.from_map(g, colour_map),
        f"broom-gadget m={m}: triangle plus {m + 1} pendants per corner",
    )


def broom_saturated(n: int, m: int, cache_dir=None) -> Graph:
    """Disjoint broom gadgets plus a minimum remainder component.

    Uses floor(n / (3(m+2))) gadget copies; the remaining r vertices carry a
    graph that is itself properly rainbow B_{4,m}-saturated with the fewest
    edges, sourced from the census oracle (for r below the broom order that
    is the complete graph K_r).
    """
    _check_order(n, "broom_saturated")
    block = 3 * (m + 2)
    if n < block:
        raise InvalidParameterError(f"broom_saturated needs n >= {block}")
    q, r = divmod(n, block)
    largest = oracle.QUANTITIES["prsat"][0]
    if r >= 4 + m and r > largest:
        raise InvalidParameterError(
            f"broom_saturated(n={n}, m={m}) leaves a remainder of r={r} vertices; its "
            f"prsat census supports r <= {largest}")
    parts = [broom_gadget(m).graph for _ in range(q)]
    if 0 < r < 4 + m:
        # no copy fits in r vertices, so only K_r has no non-edge to refute it
        parts.append(Graph(r, tuple((u, v) for u in range(r) for v in range(u + 1, r))))
    elif r:
        spec = PatternSpec.broom(4, m)
        record = oracle.census("prsat", r, spec, cache_dir=cache_dir)
        if not record.exact:
            raise OracleBudgetExceededError(
                f"remainder census for r={r} left classes unresolved"
            )
        if record.value is None:
            raise ConstructionInvalidError(
                f"no properly rainbow saturated remainder exists on {r} vertices"
            )
        parts.append(from_graph6(record.witnesses[0]))
    return disjoint_union(*parts)


# -- caterpillar host -----------------------------------------------------------


def caterpillar_construction(n: int, k: int, ell: int) -> Graph:
    """Folded cube of index ell-1 plus n - 2^(ell-2) pendant vertices.

    Pendants are attached round-robin by cube vertex index, so every cube
    vertex receives at least k of them.  Total edges: n + (ell-3)*2^(ell-3).
    """
    _check_order(n, "caterpillar host")
    if ell < 4:
        raise InvalidParameterError("caterpillar host needs ell >= 4")
    if k < ell + 2:
        raise InvalidParameterError("caterpillar host needs k >= ell + 2")
    # k+1 vertices for each of the cube's 2^(ell-2), clipped as in folded_cube
    _check_order((k + 1) << min(ell - 2, _G6_MAX_N.bit_length()), "caterpillar host")
    cube_size = 1 << (ell - 2)
    if n < (k + 1) * cube_size:
        raise InvalidParameterError(
            f"caterpillar host needs n >= {(k + 1) * cube_size}"
        )
    cube = FoldedCube(ell - 1).graph()
    edges = list(cube.edges)
    pendants = n - cube_size
    for j in range(pendants):
        edges.append((j % cube_size, cube_size + j))
    return build_graph(n, sorted(edges))


def caterpillar_bundle(n: int, k: int, ell: int) -> GadgetBundle:
    """The caterpillar host with the difference colouring extended to the
    pendant edges (fresh per-vertex colours above the cube's ell-1)."""
    g = caterpillar_construction(n, k, ell)
    cube = FoldedCube(ell - 1)
    cube_size = 1 << (ell - 2)
    index_of = {a: i + 1 for i, a in enumerate(cube.directions)}
    base = len(cube.directions)
    counter = [0] * cube_size
    colours = []
    for u, v in g.edges:
        if v < cube_size:
            colours.append(index_of[u ^ v])
        else:
            colours.append(base + 1 + counter[u])
            counter[u] += 1
    return GadgetBundle(
        g,
        EdgeColouring(g, tuple(colours)),
        f"caterpillar host n={n} k={k} ell={ell}: folded cube plus pendants",
    )


# -- star forests ------------------------------------------------------------------


def _star(size: int) -> Graph:
    return build_graph(size, [(0, i) for i in range(1, size)])


def star_forest(n: int, k: int) -> Graph:
    """A star forest saturated for the subdivided star on k+1 vertices.

    Component orders: as many (k+1)-stars as possible; order-residue 1 is
    absorbed by one larger star, residues >= 2 by one larger star plus a
    single edge.  Edge count: n - floor((n+k-1)/(k+1)).  Builds of order up
    to the validation cutoff re-check their own saturation.
    """
    _check_order(n, "star_forest")
    if k < 4:
        raise InvalidParameterError("star_forest needs k >= 4")
    if n < k + 3:
        raise InvalidParameterError("star_forest needs n >= k + 3")
    q, r = divmod(n, k + 1)
    if r == 0:
        sizes = [k + 1] * q
    elif r == 1:
        sizes = [k + 1] * (q - 1) + [k + 2]
    else:
        sizes = [k + 1] * (q - 1) + [k + r - 1, 2]
    g = disjoint_union(*[_star(s) for s in sizes])
    expected = n - (n + k - 1) // (k + 1)
    if len(g.edges) != expected:
        raise ConstructionInvalidError(
            f"star forest has {len(g.edges)} edges, expected {expected}"
        )
    if n <= STAR_FOREST_VALIDATION_CUTOFF:
        check = is_saturated(g, PatternSpec.subdivided_star(k + 1))
        if check.status is not Status.ESTABLISHED:
            raise ConstructionInvalidError(
                f"star forest on {n} vertices is not saturated: {check.certificate}"
            )
    return g


# -- double stars -----------------------------------------------------------------


def _clique_star(cliques: int, s: int) -> Graph:
    """One centre joined to `cliques` disjoint copies of the complete graph
    on s vertices."""
    edges = []
    nxt = 1
    for _ in range(cliques):
        block = list(range(nxt, nxt + s))
        for v in block:
            edges.append((0, v))
        for i in range(s):
            for j in range(i + 1, s):
                edges.append((block[i], block[j]))
        nxt += s
    return build_graph(nxt, sorted(edges))


def double_star_construction(n: int, t: int, s: int, variant: str = "sat") -> Graph:
    """Disjoint clique-stars saturating the double star S_{t+1,s+1}.

    With m cliques per small component (m from :func:`formulas.double_star_multiplier`,
    applied to (t, s) for the `sat` variant and to (t+s, s) for `prsat`),
    the graph is a disjoint union of a components with m cliques and b with
    m+1 cliques, b minimal such that the orders sum to n.
    """
    _check_order(n, "double star construction")
    if not (t >= s >= 1):
        raise InvalidParameterError("double star construction needs t >= s >= 1")
    if variant == "sat":
        m = double_star_multiplier(t, s)
    elif variant == "prsat":
        m = double_star_multiplier(t + s, s)
    else:
        raise InvalidParameterError(f"unknown variant {variant!r}")
    small = m * s + 1
    big = (m + 1) * s + 1
    a = b = None
    for cand_b in range(0, n // big + 1):
        rest = n - cand_b * big
        if rest >= 0 and rest % small == 0:
            a, b = rest // small, cand_b
            break
    if a is None:
        raise NotRepresentableError(
            f"n={n} is not a(ms+1)+b((m+1)s+1) for m={m}, s={s}"
        )
    parts = [_clique_star(m, s) for _ in range(a)]
    parts += [_clique_star(m + 1, s) for _ in range(b)]
    return disjoint_union(*parts)


# -- self-verification helpers -------------------------------------------------------


def verify_bundle(bundle: GadgetBundle, target: PatternSpec) -> bool:
    """Colouring proper and free of rainbow copies of the target."""
    return oracle.rainbow_free_certificate_ok(bundle.graph, target, bundle.colouring)


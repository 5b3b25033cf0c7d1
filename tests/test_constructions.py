import pytest

from conftest import colour_of, partition
from rslab.canon import canonical_form
from rslab.colouring import is_proper
from rslab.constructions import (
    FoldedCube,
    broom_gadget,
    broom_saturated,
    caterpillar_bundle,
    caterpillar_construction,
    double_star_construction,
    folded_cube,
    hypercube,
    star_forest,
    verify_bundle,
)
from rslab.engine import Status, find_rainbow_copy, is_properly_rainbow_saturated, is_saturated
from rslab.errors import InvalidParameterError, NotRepresentableError
from rslab.formulas import evaluate_bound
from rslab.graphs import build_graph
from rslab.patterns import PatternSpec


# -- folded cubes ----------------------------------------------------------------


def test_folded_cube_4_is_k4_with_matchings():
    bundle = folded_cube(4)
    k4 = build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    assert bundle.graph == k4
    classes = partition(bundle.colouring)
    assert len(classes) == 3
    for edges in classes:
        assert len(edges) == 2
        (a, b), (c, d) = edges
        assert {a, b}.isdisjoint({c, d})


def test_folded_cube_5_shape():
    bundle = folded_cube(5)
    g = bundle.graph
    assert g.n == 8
    assert len(g.edges) == 16
    assert set(g.degrees()) == {4}
    assert bundle.colouring.colour_count == 4
    assert verify_bundle(bundle, PatternSpec.path(5))


def test_folded_cube_5_has_no_rainbow_p5():
    bundle = folded_cube(5)
    assert find_rainbow_copy(bundle.graph, bundle.colouring, PatternSpec.path(5)) is None


def test_folded_cube_6_has_no_rainbow_p6():
    bundle = folded_cube(6)
    assert bundle.graph.n == 16
    assert bundle.colouring.colour_count == 5
    assert find_rainbow_copy(bundle.graph, bundle.colouring, PatternSpec.path(6)) is None


def test_folded_cube_rejects_small_ell():
    with pytest.raises(InvalidParameterError):
        folded_cube(3)


@pytest.mark.parametrize("ell", [4, 5, 6, 7])
def test_direction_set_general_position(ell):
    dirs = FoldedCube(ell - 1).directions
    total = 0
    for a in dirs:
        total ^= a
    assert total == 0
    for mask in range(1, (1 << len(dirs)) - 1):
        acc = 0
        for i, a in enumerate(dirs):
            if mask >> i & 1:
                acc ^= a
        assert acc != 0


@pytest.mark.parametrize("ell", [4, 5])
def test_deleting_any_direction_class_gives_hypercube(ell):
    cube = FoldedCube(ell - 1)
    g = cube.graph()
    q = hypercube(ell - 2)
    for a in cube.directions:
        sub = build_graph(g.n, [e for e in g.edges if e[0] ^ e[1] != a])
        assert canonical_form(sub) == canonical_form(q)


# -- broom gadget -----------------------------------------------------------------


def test_broom_gadget_m1_counts():
    bundle = broom_gadget(1)
    assert bundle.graph.n == 9
    assert len(bundle.graph.edges) == 9
    assert bundle.colouring.colour_count == 4
    assert bundle.colouring.colours == (3, 2, 1, 4, 1, 2, 4, 3, 4)
    assert is_proper(bundle.graph, bundle.colouring)
    assert verify_bundle(bundle, PatternSpec.broom(4, 1))


def test_broom_gadget_m2_counts():
    bundle = broom_gadget(2)
    assert bundle.graph.n == 12
    assert len(bundle.graph.edges) == 12
    assert bundle.colouring.colour_count == 5
    assert bundle.colouring.colours == (3, 2, 1, 4, 5, 1, 2, 4, 5, 3, 4, 5)
    assert verify_bundle(bundle, PatternSpec.broom(4, 2))


def test_broom_gadget_pendant_colour_matches_opposite_edge():
    bundle = broom_gadget(1)
    col = bundle.colouring
    # first pendant at corner 0 repeats the colour of triangle edge (1,2)
    assert colour_of(col, 0, 3) == colour_of(col, 1, 2)
    assert colour_of(col, 1, 5) == colour_of(col, 0, 2)
    assert colour_of(col, 2, 7) == colour_of(col, 0, 1)


def test_every_corner_sees_every_colour():
    for m in (1, 2, 3):
        bundle = broom_gadget(m)
        col = bundle.colouring
        for corner in range(3):
            seen = {colour_of(col, corner, w) for w in bundle.graph.neighbours(corner)}
            assert seen == set(range(1, m + 4))


# -- broom saturated hosts -----------------------------------------------------------


def test_broom_saturated_exact_blocks():
    g = broom_saturated(18, 1)
    assert g.n == 18 and len(g.edges) == 18
    assert len(g.components()) == 2


def test_broom_saturated_rejects_small_n():
    with pytest.raises(InvalidParameterError):
        broom_saturated(8, 1)


def test_broom_saturated_remainder_from_census():
    # below the broom order the only qualifying remainder is complete
    for n, extra_edges in ((11, 1), (12, 3), (13, 6)):
        g = broom_saturated(n, 1)
        assert len(g.edges) == 9 + extra_edges
        comps = sorted(len(c) for c in g.components())
        assert comps == [n - 9, 9]
    # from the broom order on (r = 5..8) the remainder is the census's witness
    for n, edges in ((14, 15), (15, 16), (16, 17), (17, 18)):
        g = broom_saturated(n, 1)
        assert g.n == n and len(g.edges) == edges
        assert edges <= evaluate_bound("broom4-bounds", n, m=1).upper
    # n = 15 is Established too, but in 253,558 nodes
    for n, nodes in ((14, 581), (16, 70_477)):
        verdict = is_properly_rainbow_saturated(broom_saturated(n, 1), PatternSpec.broom(4, 1),
                                                10**6)
        assert (verdict.status, verdict.nodes_explored) == (Status.ESTABLISHED, nodes)


# -- caterpillar host ---------------------------------------------------------------


def test_caterpillar_edge_count_28():
    g = caterpillar_construction(28, 6, 4)
    assert g.n == 28
    assert len(g.edges) == 30


def test_caterpillar_every_cube_vertex_has_enough_pendants():
    g = caterpillar_construction(28, 6, 4)
    for v in range(4):
        pendants = [w for w in g.neighbours(v) if g.degree(w) == 1]
        assert len(pendants) >= 6


def test_caterpillar_edge_count_formula_sweep():
    for ell, k in ((4, 6), (4, 8), (5, 7)):
        n = (k + 1) * (1 << (ell - 2))
        g = caterpillar_construction(n, k, ell)
        assert len(g.edges) == n + (ell - 3) * (1 << (ell - 3))


def test_caterpillar_rejects_out_of_range():
    with pytest.raises(InvalidParameterError):
        caterpillar_construction(27, 6, 4)
    with pytest.raises(InvalidParameterError):
        caterpillar_construction(56, 7, 5)  # needs n >= 64


def test_caterpillar_bundle_extension_is_rainbow_free():
    bundle = caterpillar_bundle(28, 6, 4)
    assert is_proper(bundle.graph, bundle.colouring)
    spec = PatternSpec.caterpillar((1, 0, 0, 1))
    assert find_rainbow_copy(bundle.graph, bundle.colouring, spec) is None
    # the cube keeps its difference colours
    fc = folded_cube(4)
    for e in fc.graph.edges:
        assert colour_of(bundle.colouring, *e) == colour_of(fc.colouring, *e)


# -- star forests ----------------------------------------------------------------------


def test_star_forest_10_4_is_two_stars():
    g = star_forest(10, 4)
    assert len(g.edges) == 8
    assert [len(c) for c in g.components()] == [5, 5]
    assert canonical_form(g) == canonical_form(double_star_construction(10, 2, 1, "sat"))


def test_star_forest_rejects_small_n():
    with pytest.raises(InvalidParameterError):
        star_forest(6, 4)


# -- double stars -----------------------------------------------------------------------


def test_double_star_sat_example():
    g = double_star_construction(10, 2, 1, "sat")
    assert [len(c) for c in g.components()] == [5, 5]
    assert is_saturated(g, PatternSpec.double_star(2, 1)).status is Status.ESTABLISHED


def test_double_star_sat_s22():
    g = double_star_construction(8, 1, 1, "sat")
    assert [len(c) for c in g.components()] == [4, 4]
    # S(2,2) is the 4-vertex path
    assert is_saturated(g, PatternSpec.path(4)).status is Status.ESTABLISHED


def test_double_star_prsat_variant_structure():
    g = double_star_construction(12, 1, 1, "prsat")
    assert [len(c) for c in g.components()] == [6, 6]
    assert len(g.edges) == 10


def test_double_star_not_representable():
    with pytest.raises(NotRepresentableError):
        double_star_construction(7, 2, 1, "sat")


def test_double_star_clique_blocks():
    g = double_star_construction(14, 2, 2, "sat")
    comp = g.components()[0]
    degrees = sorted(g.degree(v) for v in comp)
    # centre adjacent to all; clique vertices adjacent to centre + clique mate
    assert degrees == [2, 2, 2, 2, 2, 2, 6]


def test_bundles_carry_provenance():
    assert "folded-cube" in folded_cube(5).provenance
    assert "broom-gadget" in broom_gadget(1).provenance

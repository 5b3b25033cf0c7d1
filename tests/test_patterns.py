from functools import partial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rslab.canon import canonical_form
from rslab.errors import InvalidParameterError
from rslab.graphs import build_graph
from rslab import patterns
from rslab.patterns import PatternSpec, parse_pattern


def test_subdivided_star_k4_is_p4():
    # subdividing one edge of the 2-leaf star gives the 4-vertex path
    t4 = PatternSpec.subdivided_star(4).graph
    assert canonical_form(t4) == canonical_form(PatternSpec.path(4).graph)


def test_double_star_1_1_is_p4():
    s22 = PatternSpec.double_star(1, 1).graph
    assert canonical_form(s22) == canonical_form(PatternSpec.path(4).graph)


def test_broom_4_2_shape():
    g = PatternSpec.broom(4, 2).graph
    assert g.n == 6
    assert len(g.edges) == 5
    assert sorted(g.degrees()) == [1, 1, 1, 2, 2, 3]
    assert g.degree(0) == 3  # the head carries the pendants


def test_broom_4_1_is_p5():
    assert canonical_form(PatternSpec.broom(4, 1).graph) == canonical_form(
        PatternSpec.path(5).graph)


def test_star_centre_is_vertex_zero():
    g = PatternSpec.star(5).graph
    assert g.degree(0) == 5
    assert len(g.edges) == 5


@given(st.integers(min_value=2, max_value=12))
def test_path_invariants(k):
    g = PatternSpec.path(k).graph
    assert len(g.edges) == k - 1
    assert max(g.degrees()) <= 2
    assert g.is_tree()


@given(st.integers(min_value=1, max_value=10))
def test_star_invariants(k):
    g = PatternSpec.star(k).graph
    assert len(g.edges) == k
    assert g.degrees().count(k) >= 1
    assert g.is_tree()


@given(st.integers(min_value=2, max_value=6), st.integers(min_value=1, max_value=4))
def test_broom_is_tree(k, m):
    assert PatternSpec.broom(k, m).graph.is_tree()


@given(st.integers(min_value=4, max_value=9))
def test_subdivided_star_is_tree(k):
    g = PatternSpec.subdivided_star(k).graph
    assert g.n == k and g.is_tree()


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4))
def test_double_star_is_tree(t, s):
    g = PatternSpec.double_star(t, s).graph
    assert g.n == t + s + 2 and g.is_tree()


@given(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=5))
def test_caterpillar_is_tree(leaves):
    if len(leaves) == 1 and leaves[0] == 0:
        with pytest.raises(InvalidParameterError):
            PatternSpec.caterpillar(leaves)
        return
    g = PatternSpec.caterpillar(leaves).graph
    assert g.is_tree()
    assert g.n == len(leaves) + sum(leaves)


def test_invalid_parameters():
    # a family's parameters are checked when the spec is made
    with pytest.raises(InvalidParameterError):
        PatternSpec.path(1)
    with pytest.raises(InvalidParameterError):
        PatternSpec.subdivided_star(3)
    with pytest.raises(InvalidParameterError):
        PatternSpec.broom(0, 1)


# Each spec is made inside pytest.raises: the order is refused by the
# constructor, before any edge list exists.
@pytest.mark.parametrize("spec", [
    partial(PatternSpec.path, 10**20), partial(PatternSpec.star, 10**20),
    partial(PatternSpec.broom, 4, 10**20), partial(PatternSpec.double_star, 10**20, 1),
    partial(PatternSpec.caterpillar, (10**20,)),
])
def test_an_order_graph6_cannot_write_is_refused_before_building(monkeypatch, spec):
    def built(*args):
        raise AssertionError("a pattern was built past the graph6 bound")

    monkeypatch.setattr(patterns, "build_graph", built)
    with pytest.raises(InvalidParameterError, match="258047"):
        spec()


def test_explicit_rejects_isolated_vertices():
    with pytest.raises(InvalidParameterError):
        PatternSpec.explicit([(0, 2)])


# (token, order, edges) of each family at two sizes and of a graph6 pattern;
# the labellings are part of the census contract, since witnesses and
# certificates name pattern vertices.
REALIZATIONS = (
    (PatternSpec.path(2), ("P2", 2, ((0, 1),))),
    (PatternSpec.path(5), ("P5", 5, ((0, 1), (1, 2), (2, 3), (3, 4)))),
    (PatternSpec.star(1), ("K1,1", 2, ((0, 1),))),
    (PatternSpec.star(4), ("K1,4", 5, ((0, 1), (0, 2), (0, 3), (0, 4)))),
    (PatternSpec.broom(2, 1), ("B2,1", 3, ((0, 1), (0, 2)))),
    (PatternSpec.broom(4, 2), ("B4,2", 6, ((0, 1), (0, 4), (0, 5), (1, 2), (2, 3)))),
    (PatternSpec.subdivided_star(4), ("T4star", 4, ((0, 1), (0, 2), (2, 3)))),
    (PatternSpec.subdivided_star(6),
     ("T6star", 6, ((0, 1), (0, 2), (0, 3), (0, 4), (4, 5)))),
    (PatternSpec.double_star(1, 1), ("S2,2", 4, ((0, 1), (0, 2), (1, 3)))),
    (PatternSpec.double_star(1, 3), ("S4,2", 6, ((0, 1), (0, 2), (0, 3), (0, 4), (1, 5)))),
    (PatternSpec.caterpillar((1,)), ("cat:ell=1;leaves=1", 2, ((0, 1),))),
    (PatternSpec.caterpillar((1, 0, 2)),
     ("cat:ell=3;leaves=1,0,2", 6, ((0, 1), (0, 3), (1, 2), (2, 4), (2, 5)))),
    (parse_pattern("g6:DeK"), ("g6:DeK", 5, ((0, 1), (0, 3), (1, 3), (2, 4), (3, 4)))),
    (PatternSpec.explicit([(3, 0), (0, 1), (1, 3), (3, 4), (4, 2)]),
     ("g6:DeK", 5, ((0, 1), (0, 3), (1, 3), (2, 4), (3, 4)))),
)


def test_realizations_are_pinned():
    for spec, pinned in REALIZATIONS:
        assert (spec.token(), spec.graph.n, spec.graph.edges) == pinned


def test_parse_tokens():
    assert parse_pattern("P5") == PatternSpec.path(5)
    assert parse_pattern("K1,4") == PatternSpec.star(4)
    assert parse_pattern("B4,2") == PatternSpec.broom(4, 2)
    assert parse_pattern("T5star") == PatternSpec.subdivided_star(5)
    assert parse_pattern("S3,2") == PatternSpec.double_star(2, 1)
    cat = parse_pattern("cat:ell=4;leaves=1,0,0,1")
    assert cat == PatternSpec.caterpillar((1, 0, 0, 1))
    assert parse_pattern("cat:ℓ=4;leaves=1,0,0,1") == cat


def test_token_roundtrip():
    specs = [
        PatternSpec.path(6),
        PatternSpec.star(3),
        PatternSpec.broom(4, 1),
        PatternSpec.subdivided_star(5),
        PatternSpec.double_star(2, 1),
        PatternSpec.double_star(1, 2),
        PatternSpec.caterpillar((1, 0, 0, 1)),
        parse_pattern("g6:DeK"),
    ]
    for spec in specs:
        assert parse_pattern(spec.token()) == spec


def test_parse_graph6_token():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    spec = parse_pattern("g6:" + g.to_graph6())
    assert canonical_form(spec.graph) == canonical_form(g)


def test_parse_file(tmp_path):
    path = tmp_path / "g.g6"
    path.write_text("Ch\n")
    spec = parse_pattern(f"@{path}")
    assert spec.graph.n == 4


def test_parse_rejects_garbage():
    for token, named in [("Q17", "Q17"), ("cat:ell=x;leaves=1", "'ell'"),
                         ("cat:leaves=1,x", "'leaves'"), ("cat:ell=;leaves=1", "'ell'")]:
        with pytest.raises(InvalidParameterError, match=named):
            parse_pattern(token)

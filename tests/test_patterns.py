import pytest
from hypothesis import given
from hypothesis import strategies as st

from rslab.canon import canonical_form
from rslab.errors import InvalidParameterError
from rslab.graphs import build_graph
from rslab import patterns
from rslab.patterns import PatternSpec, parse_pattern, realize_pattern


def test_subdivided_star_k4_is_p4():
    # subdividing one edge of the 2-leaf star gives the 4-vertex path
    t4 = realize_pattern(PatternSpec.subdivided_star(4))
    assert canonical_form(t4) == canonical_form(realize_pattern(PatternSpec.path(4)))


def test_double_star_1_1_is_p4():
    s22 = realize_pattern(PatternSpec.double_star(1, 1))
    assert canonical_form(s22) == canonical_form(realize_pattern(PatternSpec.path(4)))


def test_broom_4_2_shape():
    g = realize_pattern(PatternSpec.broom(4, 2))
    assert g.n == 6
    assert len(g.edges) == 5
    assert sorted(g.degrees()) == [1, 1, 1, 2, 2, 3]
    assert g.degree(0) == 3  # the head carries the pendants


def test_broom_4_1_is_p5():
    assert canonical_form(realize_pattern(PatternSpec.broom(4, 1))) == canonical_form(
        realize_pattern(PatternSpec.path(5)))


def test_star_centre_is_vertex_zero():
    g = realize_pattern(PatternSpec.star(5))
    assert g.degree(0) == 5
    assert len(g.edges) == 5


@given(st.integers(min_value=2, max_value=12))
def test_path_invariants(k):
    g = realize_pattern(PatternSpec.path(k))
    assert len(g.edges) == k - 1
    assert max(g.degrees()) <= 2
    assert g.is_tree()


@given(st.integers(min_value=1, max_value=10))
def test_star_invariants(k):
    g = realize_pattern(PatternSpec.star(k))
    assert len(g.edges) == k
    assert g.degrees().count(k) >= 1
    assert g.is_tree()


@given(st.integers(min_value=2, max_value=6), st.integers(min_value=1, max_value=4))
def test_broom_is_tree(k, m):
    assert realize_pattern(PatternSpec.broom(k, m)).is_tree()


@given(st.integers(min_value=4, max_value=9))
def test_subdivided_star_is_tree(k):
    g = realize_pattern(PatternSpec.subdivided_star(k))
    assert g.n == k and g.is_tree()


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4))
def test_double_star_is_tree(t, s):
    g = realize_pattern(PatternSpec.double_star(t, s))
    assert g.n == t + s + 2 and g.is_tree()


@given(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=5))
def test_caterpillar_is_tree(leaves):
    if len(leaves) == 1 and leaves[0] == 0:
        with pytest.raises(InvalidParameterError):
            realize_pattern(PatternSpec.caterpillar(leaves))
        return
    g = realize_pattern(PatternSpec.caterpillar(leaves))
    assert g.is_tree()
    assert g.n == len(leaves) + sum(leaves)


def test_invalid_parameters():
    with pytest.raises(InvalidParameterError):
        realize_pattern(PatternSpec.path(1))
    with pytest.raises(InvalidParameterError):
        realize_pattern(PatternSpec.subdivided_star(3))
    with pytest.raises(InvalidParameterError):
        realize_pattern(PatternSpec.broom(0, 1))


@pytest.mark.parametrize("spec", [
    PatternSpec.path(10**20), PatternSpec.star(10**20), PatternSpec.broom(4, 10**20),
    PatternSpec.double_star(10**20, 1), PatternSpec.caterpillar((10**20,)),
])
def test_an_order_graph6_cannot_write_is_refused_before_building(monkeypatch, spec):
    def built(*args):
        raise AssertionError("a pattern was built past the graph6 bound")

    monkeypatch.setattr(patterns, "build_graph", built)
    with pytest.raises(InvalidParameterError, match="258047"):
        realize_pattern(spec)


def test_explicit_rejects_isolated_vertices():
    with pytest.raises(InvalidParameterError):
        realize_pattern(PatternSpec.explicit([(0, 2)]))


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
        PatternSpec.caterpillar((1, 0, 0, 1)),
    ]
    for spec in specs:
        assert parse_pattern(spec.token()) == spec


def test_parse_graph6_token():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    spec = parse_pattern("g6:" + g.to_graph6())
    assert canonical_form(realize_pattern(spec)) == canonical_form(g)


def test_parse_file(tmp_path):
    path = tmp_path / "g.g6"
    path.write_text("Ch\n")
    spec = parse_pattern(f"@{path}")
    assert realize_pattern(spec).n == 4


def test_parse_rejects_garbage():
    for token, named in [("Q17", "Q17"), ("cat:ell=x;leaves=1", "'ell'"),
                         ("cat:leaves=1,x", "'leaves'"), ("cat:ell=;leaves=1", "'ell'")]:
        with pytest.raises(InvalidParameterError, match=named):
            parse_pattern(token)

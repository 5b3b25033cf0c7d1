import dataclasses
from fractions import Fraction

import pytest

from rslab import formulas, reproduce
from rslab.errors import InvalidParameterError, RegularGraphError
from rslab.formulas import bare_path_parameter, evaluate_bound, tree_second_degree
from rslab.patterns import PatternSpec

SPIDER_3x2 = PatternSpec.explicit([(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])


def test_star_exact_k3_n6():
    row = evaluate_bound("star-exact", 6, k=3)
    assert row.exact == 5
    assert not row.out_of_range


def test_star_exact_small_n_branch():
    # below k + floor(k/2) the two-clique form applies
    row = evaluate_bound("star-exact", 5, k=4)
    assert row.exact == Fraction(6 + 0)  # C(4,2) + C(1,2)
    assert not row.out_of_range


def test_subdivided_star_rows():
    assert evaluate_bound("subdivided-star-prsat", 7, k=4).exact == 5
    assert evaluate_bound("subdivided-star-prsat", 8, k=4).exact == 6
    assert [evaluate_bound("subdivided-star-sat", n, k=5).exact for n in (7, 8, 9)] == [5, 6, 7]


def test_long_path_lower():
    row = evaluate_bound("long-path-lower", 10, pattern=PatternSpec.path(6))
    assert row.lower == 9
    assert not row.out_of_range
    short = evaluate_bound("long-path-lower", 10, pattern=PatternSpec.path(4))
    assert short.out_of_range


def test_broom4_rows():
    row = evaluate_bound("broom4-bounds", 18, m=1)
    assert (row.lower, row.upper) == (17, 18)
    row = evaluate_bound("broom4-bounds", 10, m=1)
    assert (row.lower, row.upper) == (9, 9)
    assert evaluate_bound("broom4-bounds", 5, m=1).out_of_range


def test_caterpillar_upper_rows():
    row = evaluate_bound("caterpillar-upper", 28, k=6, ell=4)
    assert row.upper == 30 and not row.out_of_range
    row = evaluate_bound("caterpillar-upper", 56, k=7, ell=5)
    assert row.upper == 64
    assert row.out_of_range  # needs n >= (k+1) * 2^(ell-2) = 64


def test_bare_path_parameter_spider():
    assert bare_path_parameter(SPIDER_3x2) == 2


def test_bare_path_lower_row():
    row = evaluate_bound("bare-path-lower", 100, pattern=SPIDER_3x2)
    assert row.lower == Fraction(77, 76) * 100
    assert row.asymptotic
    # mid-leg vertices have leaf neighbours, so the stated hypothesis fails
    assert row.out_of_range


def test_bare_path_parameter_long_path():
    assert bare_path_parameter(PatternSpec.path(7)) == 6


def test_tree_second_degree():
    assert tree_second_degree(PatternSpec.double_star(2, 1)) == 2
    assert tree_second_degree(PatternSpec.double_star(3, 2)) == 3
    assert tree_second_degree(PatternSpec.path(5)) == 2
    assert tree_second_degree(PatternSpec.star(4)) == 4
    with pytest.raises(RegularGraphError):
        tree_second_degree(PatternSpec.path(2))


def test_double_star_rows():
    row = evaluate_bound("double-star-sat", 30, t=2, s=2)
    assert row.lower == 30
    assert row.upper == Fraction(2, 2) * 30 + Fraction(2 * 4, 2)
    assert not row.asymptotic
    row = evaluate_bound("double-star-sat", 30, t=3, s=2)
    assert row.upper == Fraction(3, 2) * 30 - Fraction(12, 8)
    row = evaluate_bound("double-star-prsat", 12, t=1, s=1)
    assert row.lower == 6
    assert row.upper == Fraction(4, 5) * 12
    assert row.asymptotic


def test_second_degree_lower_rows():
    row = evaluate_bound("second-degree-lower", 10, pattern=PatternSpec.double_star(2, 1))
    assert row.lower == Fraction(1, 2) * 10
    assert not row.out_of_range
    star_row = evaluate_bound("second-degree-lower", 10, pattern=PatternSpec.star(3))
    assert star_row.out_of_range  # stars are excluded


def test_unknown_formula_rejected():
    with pytest.raises(InvalidParameterError):
        evaluate_bound("no-such-formula", 5)


def test_row_json_shape():
    row = evaluate_bound("star-exact", 6, k=3)
    d = row.to_json_dict()
    assert d["exact"] == "5" and d["quantity"] == "prsat"


def test_formula_names_listed():
    names = sorted(formulas._FORMULAS)
    assert "subdivided-star-prsat" in names and "star-exact" in names


# One valid parameter set per formula; the test below fails on a new formula
# until it is listed here.
VALID_PARAMETERS = {
    "bare-path-lower": {"pattern": SPIDER_3x2},
    "broom4-bounds": {"m": 1},
    "caterpillar-upper": {"k": 6, "ell": 4},
    "double-star-prsat": {"t": 1, "s": 1},
    "double-star-sat": {"t": 2, "s": 2},
    "double-star-sat-upper": {"t": 2, "s": 1},
    "long-path-lower": {"pattern": PatternSpec.path(6)},
    "second-degree-lower": {"pattern": PatternSpec.double_star(2, 1)},
    "star-exact": {"k": 3},
    "star-exact-sat": {"k": 3},
    "subdivided-star-prsat": {"k": 4},
    "subdivided-star-sat": {"k": 5},
}


def test_rows_carry_the_name_they_are_looked_up_by():
    assert sorted(VALID_PARAMETERS) == sorted(formulas._FORMULAS)
    for name, params in VALID_PARAMETERS.items():
        assert evaluate_bound(name, 30, **params).name == name


def test_rows_keep_lower_below_upper(monkeypatch):
    # The formulas suite checks lower <= upper over reproduce.BOUND_CHECKS.
    # Every formula with two non-asymptotic bounds must be in that table,
    # each table row must be such a row in its stated range, and the check
    # must fail when any one formula puts its lower bound above its upper.
    two_sided = set()
    for name, params in VALID_PARAMETERS.items():
        row = evaluate_bound(name, 30, **params)
        if not row.asymptotic and row.lower is not None and row.upper is not None:
            two_sided.add(name)
    assert {name for name, _, _ in reproduce.BOUND_CHECKS} == two_sided
    for name, params, orders in reproduce.BOUND_CHECKS:
        for n in orders:
            row = evaluate_bound(name, n, **params)
            assert not (row.asymptotic or row.out_of_range), (name, params, n)
    assert reproduce.bounds_in_order()

    for broken in two_sided:
        def flipped(name, n, **params):
            row = evaluate_bound(name, n, **params)
            if name != broken:
                return row
            return dataclasses.replace(row, lower=row.upper + 1)

        monkeypatch.setattr(reproduce, "evaluate_bound", flipped)
        assert not reproduce.bounds_in_order(), broken

import dataclasses

import pytest

from rslab import reproduce
from rslab.errors import RslabError
from rslab.formulas import evaluate_bound
from rslab.oracle import QUANTITIES
from rslab.patterns import parse_pattern
from rslab.reproduce import (
    CLAIMS,
    CONSTRUCTION_CHECKS,
    ReproConfig,
    ReproRow,
    all_pass,
    format_rows,
    run_suite,
)


def test_claims_are_checkable_data():
    # a new claim is checked here as data: a census the oracle accepts, and
    # a closed form, if named, that holds at that order and equals the value
    for c in CLAIMS:
        assert 1 <= c.n <= QUANTITIES[c.quantity][0], c
        assert c.spec().token() == c.pattern, c
        if c.value is None:  # its label speaks of prsat under the cap
            assert c.quantity == "prsat" and c.edge_cap is not None, c
        if c.formula is not None:
            assert c.formula in reproduce.FORMS, c
            row = evaluate_bound(c.formula, c.n, **c.params)
            assert row.quantity == c.quantity and not row.out_of_range, c
            assert row.exact == c.value, c


def test_census_suite_all_pass(suite_rows):
    rows = suite_rows("census")
    assert [r.claim for r in rows[:len(CLAIMS)]] == [c.label() for c in CLAIMS]
    assert len(rows) == len(CLAIMS) + 2  # the ssat sandwich and the delta2 row
    assert all_pass(rows)


def test_formulas_suite_all_pass(suite_rows):
    rows = suite_rows("formulas")
    assert len(rows) == sum(c.formula is not None for c in CLAIMS) + 1
    assert all(r.status == "PASS" for r in rows)


def test_lemma4_suite_both_ells(suite_rows):
    rows = suite_rows("lemma4")
    assert all(r.status == "PASS" for r in rows)
    assert [r.claim for r in rows if "saturated" in r.claim] == [
        "K4 is properly rainbow P4-saturated", "F4 is properly rainbow P5-saturated"]


def test_constructions_suite(suite_rows):
    assert all_pass(suite_rows("constructions"))


def test_construction_checks_are_checkable_data():
    # a new construction check is checked here as data: a formula of the
    # row's quantity, in range at every order, and a pattern token that
    # parses back to itself
    for build, args, orders, pattern, quantity, formula, params in CONSTRUCTION_CHECKS:
        assert parse_pattern(pattern, allow_files=False).token() == pattern, pattern
        for n in orders:
            row = evaluate_bound(formula, n, **params)
            assert row.quantity == quantity and not row.out_of_range, (formula, n)
            assert row.upper is not None, (formula, n)


def test_lemma4_and_constructions_searches_take_the_configured_budget(monkeypatch):
    # The budget of the configuration bounds every certified verdict and
    # forcing search of these suites: one verdict per construction check
    # and order, and lemma4's 3 (K4 and F4, and the one non-edge orbit of F4).
    budgets = []
    for name in ("decide", "forces_rainbow"):
        real = getattr(reproduce, name)
        # reproduce passes the budget to both as the last positional argument
        monkeypatch.setattr(reproduce, name, lambda *args, real=real:
                            budgets.append(args[-1]) or real(*args))
    config = ReproConfig(budget=54_321)
    rows = reproduce.suite_lemma4(config) + reproduce.suite_constructions(config)
    assert all_pass(rows)
    assert budgets == [54_321] * (sum(len(row[2]) for row in CONSTRUCTION_CHECKS) + 3)


def test_inexact_records_read_unknown(monkeypatch, tmp_path):
    real = reproduce.oracle_census

    def inexact(*args, **kwargs):
        return dataclasses.replace(real(*args, **kwargs), exact=False)

    monkeypatch.setattr(reproduce, "oracle_census", inexact)
    config = ReproConfig(cache_dir=tmp_path)
    assert {r.status for r in run_suite("census", config)} == {"UNKNOWN"}
    *claims, bounds = run_suite("formulas", config)
    assert {r.status for r in claims} == {"UNKNOWN"}
    assert bounds.status == "PASS"


def test_unknown_rows_fail_without_allow_unknown():
    rows = [ReproRow("x", "1", "1", "PASS"), ReproRow("y", "1", "?", "UNKNOWN")]
    assert not all_pass(rows)
    assert all_pass(rows, allow_unknown=True)


def test_format_rows_mentions_status():
    text = format_rows([ReproRow("claim text", "1", "1", "PASS")])
    assert "PASS" in text and "claim text" in text


def test_unknown_suite_rejected():
    with pytest.raises(RslabError):
        run_suite("nope", ReproConfig())

import dataclasses

import pytest

from rslab import reproduce
from rslab.errors import RslabError
from rslab.formulas import evaluate_bound
from rslab.oracle import QUANTITIES
from rslab.reproduce import CLAIMS, ReproConfig, ReproRow, all_pass, format_rows, run_suite


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
    assert all(r.status == "PASS" for r in suite_rows("lemma4", 4) + suite_rows("lemma4", 5))


def test_constructions_suite(suite_rows):
    assert all_pass(suite_rows("constructions"))


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

"""The census records are the contract: each record of
`census_records.jsonl` is recomputed cold, with no cache, and must come out
the same in every field.  `make_census_records.py` regenerates the file."""

import json
import pathlib

from rslab.oracle import census
from rslab.patterns import parse_pattern
from rslab.reproduce import CLAIMS

RECORDS = pathlib.Path(__file__).with_name("census_records.jsonl")


def _records():
    return [json.loads(line) for line in RECORDS.read_text(encoding="utf-8").splitlines()]


def _point(record) -> str:
    cap = "" if record["edge_cap"] is None else f",cap={record['edge_cap']}"
    return f"{record['quantity']}({record['n']},{record['pattern']}{cap})"


def test_census_records_have_not_moved(monkeypatch):
    monkeypatch.delenv("RSLAB_CACHE", raising=False)
    moved = []
    for want in _records():
        got = census(want["quantity"], want["n"], parse_pattern(want["pattern"], allow_files=False),
                     edge_cap=want["edge_cap"]).to_json_dict()
        moved += [f"{_point(want)}: {field} {want.get(field)!r} -> {got.get(field)!r}"
                  for field in sorted(want.keys() | got.keys())
                  if want.get(field) != got.get(field)]
    assert not moved, "\n".join(moved)


def test_census_records_hold_every_claim_and_its_ssat_twin():
    held = {(r["quantity"], r["n"], r["pattern"], r["edge_cap"]) for r in _records()}
    for c in CLAIMS:
        assert (c.quantity, c.n, c.pattern, c.edge_cap) in held, c
        assert ("ssat", c.n, c.pattern, c.edge_cap) in held, c

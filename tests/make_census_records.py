"""Regenerate `tests/census_records.jsonl`, the census records that
`tests/test_census_records.py` recomputes.

The points are the `census` workload of the benchmark
(`perfbench/workloads.py`), every `reproduce.CLAIMS` row, and the ssat twin
of each claim, each once, in that order.  Every record is computed cold, at
the default budget and with no cache, and written as one sorted-key JSON
line.  Run from the root of the repository:

    PYTHONPATH=src python tests/make_census_records.py

A change that moves a record regenerates the file and names each point and
field that moved.
"""

import json
import os
import pathlib
import sys

from rslab.oracle import census
from rslab.patterns import parse_pattern
from rslab.reproduce import CLAIMS

ROOT = pathlib.Path(__file__).resolve().parent.parent
RECORDS = ROOT / "tests" / "census_records.jsonl"


def points():
    """(quantity, n, pattern token, edge cap) of every checked point, once
    each, in file order."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import CENSUS_POINTS

    claims = [(c.quantity, c.n, c.pattern, c.edge_cap) for c in CLAIMS]
    twins = [("ssat", n, token, cap) for _, n, token, cap in claims]
    return list(dict.fromkeys([*CENSUS_POINTS, *claims, *twins]))


def main() -> None:
    os.environ.pop("RSLAB_CACHE", None)
    lines = []
    for quantity, n, token, cap in points():
        record = census(quantity, n, parse_pattern(token, allow_files=False), edge_cap=cap)
        lines.append(json.dumps(record.to_json_dict(), sort_keys=True))
    RECORDS.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {len(lines)} records to {RECORDS}")


if __name__ == "__main__":
    main()

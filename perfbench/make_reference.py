"""Write perfbench/reference.json from the program as it stands.

Run from the root of a checkout, on the commit whose answers are taken as
correct:

    python3 perfbench/make_reference.py

The reference holds, per census point, the value, exactness and witnesses;
the per-level class counts of the n=8 enumeration; and the caterpillar
host's non-edge orbit representatives, which the hosts workload searches.
"""

from __future__ import annotations

import json
import shutil
import tempfile

import run


def main() -> None:
    wl = run.load_program()
    from rslab import canon

    run.WORK.mkdir(parents=True, exist_ok=True)
    work = tempfile.mkdtemp(dir=run.WORK)
    try:
        census = wl.run_census(wl.build_census(0, {}), work)
    finally:
        shutil.rmtree(work)
    levels = wl.run_enumerate(wl.build_enumerate(0, {}), "").results["levels"]
    host = wl.constructions.caterpillar_construction(*wl.CATERPILLAR)
    reference = {
        "census": {
            wl.census_key(r.quantity, r.n, r.pattern, r.edge_cap): {
                "value": r.value, "exact": r.exact, "witnesses": list(r.witnesses)}
            for r in census.results["cold"]
        },
        "enumerate": {"n": wl.ENUMERATE_ORDER,
                      "level_counts": [len(level) for level in levels]},
        "hosts": {"non_edges": [list(e) for e in canon.non_edge_orbit_representatives(host)]},
    }
    with open(run.REFERENCE, "w", encoding="utf-8") as f:
        json.dump(reference, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()

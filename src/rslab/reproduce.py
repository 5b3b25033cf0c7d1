"""Desk-scale reproduction suites: every claim becomes a pass/fail row.

Four suites: `formulas` cross-checks the closed forms against the census
oracle, `constructions` re-verifies every builder and bundle invariant,
`lemma4` checks the folded-cube colouring properties at a given ell, and
`census` recomputes the exact small-order values.  Rows that stay Unknown
(budget exhausted) fail unless explicitly allowed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .canon import canonical_form, non_edge_orbit_representatives
from .colouring import is_proper
from .constructions import (
    FoldedCube,
    broom_gadget,
    broom_saturated,
    caterpillar_bundle,
    double_star_construction,
    folded_cube,
    hypercube,
    star_forest,
    verify_bundle,
)
from .engine import (
    Status,
    enumerate_rainbow_free_colourings,
    find_rainbow_copy,
    forces_rainbow,
    is_properly_rainbow_saturated,
    is_saturated,
)
from .errors import RslabError
from .formulas import evaluate_bound
from .graphs import build_graph
from .oracle import DEFAULT_CENSUS_BUDGET, census as oracle_census
from .patterns import PatternSpec

SUITES = ("formulas", "constructions", "lemma4", "census")


@dataclass
class ReproRow:
    claim: str
    expected: str
    computed: str
    status: str  # PASS | FAIL | UNKNOWN

    def to_json_dict(self) -> dict:
        return {
            "claim": self.claim,
            "expected": self.expected,
            "computed": self.computed,
            "status": self.status,
        }


@dataclass
class ReproConfig:
    budget: int = DEFAULT_CENSUS_BUDGET
    spot_budget: int = 1_000_000
    cache_dir: object = None
    ell: int = 4

    def census(self, quantity: str, n: int, spec: PatternSpec, edge_cap=None):
        return oracle_census(quantity, n, spec, budget=self.budget, edge_cap=edge_cap,
                             cache_dir=self.cache_dir)


def _row(claim: str, expected, computed, unknown: bool = False) -> ReproRow:
    if unknown:
        status = "UNKNOWN"
    else:
        status = "PASS" if expected == computed else "FAIL"
    return ReproRow(claim, str(expected), str(computed), status)


def run_suite(name: str, config: ReproConfig | None = None) -> list[ReproRow]:
    config = config or ReproConfig()
    if name == "formulas":
        return suite_formulas(config)
    if name == "constructions":
        return suite_constructions(config)
    if name == "lemma4":
        return suite_lemma4(config)
    if name == "census":
        return suite_census(config)
    raise RslabError(f"unknown suite {name!r}; choose one of {SUITES}")


# -- formulas ------------------------------------------------------------------


def suite_formulas(config: ReproConfig) -> list[ReproRow]:
    rows: list[ReproRow] = []
    p4 = PatternSpec.path(4)
    for n in (7, 8):
        rec = config.census("prsat", n, p4)
        want = evaluate_bound("subdivided-star-prsat", n, k=4).exact
        rows.append(_row(
            f"prsat({n},P4) census equals n-floor((n+3)/5)",
            int(want), rec.value, unknown=not rec.exact,
        ))
    t5 = PatternSpec.subdivided_star(5)
    for n in (7, 8, 9):
        rec = config.census("sat", n, t5)
        want = evaluate_bound("subdivided-star-sat", n, k=5).exact
        rows.append(_row(
            f"sat({n},T5star) census equals n-floor((n+3)/5)",
            int(want), rec.value,
        ))
    k13 = PatternSpec.star(3)
    for quantity, formula in (("prsat", "star-exact"), ("sat", "star-exact-sat")):
        rows.append(_row(
            f"{quantity}(6,K1,3) census equals the star closed form",
            int(evaluate_bound(formula, 6, k=3).exact), config.census(quantity, 6, k13).value,
        ))
    # internal consistency: lower <= upper for non-asymptotic rows
    consistent = True
    for n in range(9, 40):
        r = evaluate_bound("broom4-bounds", n, m=1)
        if not r.asymptotic and r.lower is not None and r.upper is not None:
            consistent = consistent and r.lower <= r.upper
    for n in range(8, 30):
        for k in (4, 5, 6):
            r = evaluate_bound("subdivided-star-prsat", n, k=k)
            consistent = consistent and r.lower <= r.upper
    rows.append(_row("non-asymptotic bound rows have lower <= upper", True, consistent))
    return rows


# -- constructions --------------------------------------------------------------


def suite_constructions(config: ReproConfig) -> list[ReproRow]:
    rows: list[ReproRow] = []

    fc = folded_cube(4)
    rows.append(_row("folded_cube(4) is K4 under 3 perfect matchings",
                     (4, 6, 3, True),
                     (fc.graph.n, len(fc.graph.edges), fc.colouring.colour_count,
                      verify_bundle(fc, PatternSpec.path(4)))))
    fc5 = folded_cube(5)
    rows.append(_row("folded_cube(5): 8 vertices, 4-regular, 4 colours, no rainbow P5",
                     (8, 16, 4, 4, True),
                     (fc5.graph.n, len(fc5.graph.edges), fc5.graph.degree(0),
                      fc5.colouring.colour_count,
                      verify_bundle(fc5, PatternSpec.path(5)))))
    fc6 = folded_cube(6)
    rows.append(_row("folded_cube(6): 16 vertices, 5 colours, no rainbow P6",
                     (16, 40, 5, True),
                     (fc6.graph.n, len(fc6.graph.edges), fc6.colouring.colour_count,
                      verify_bundle(fc6, PatternSpec.path(6)))))

    ok = True
    for ell in (4, 5, 6, 7):
        dirs = FoldedCube(ell - 1).directions
        full = 0
        for a in dirs:
            full ^= a
        ok = ok and full == 0
        for mask in range(1, (1 << len(dirs)) - 1):
            acc = 0
            for i, a in enumerate(dirs):
                if mask >> i & 1:
                    acc ^= a
            if acc == 0:
                ok = False
    rows.append(_row("direction sets in general position (ell=4..7)", True, ok))

    ok = True
    for ell in (4, 5):
        cube = FoldedCube(ell - 1)
        g = cube.graph()
        for a in cube.directions:
            sub = build_graph(g.n, [e for e in g.edges if e[0] ^ e[1] != a])
            ok = ok and canonical_form(sub) == canonical_form(hypercube(ell - 2))
    rows.append(_row("folded cube minus any direction class is the hypercube", True, ok))

    bg = broom_gadget(1)
    rows.append(_row("broom_gadget(1): 9 vertices, 9 edges, 4 colours, rainbow-free",
                     (9, 9, 4, True),
                     (bg.graph.n, len(bg.graph.edges), bg.colouring.colour_count,
                      verify_bundle(bg, PatternSpec.broom(4, 1)))))
    bg2 = broom_gadget(2)
    rows.append(_row("broom_gadget(2): 12 vertices, 12 edges, 5 colours, rainbow-free",
                     (12, 12, 5, True),
                     (bg2.graph.n, len(bg2.graph.edges), bg2.colouring.colour_count,
                      verify_bundle(bg2, PatternSpec.broom(4, 2)))))

    rows.append(_row("broom_saturated(18,1) has 18 edges",
                     18, len(broom_saturated(18, 1).edges)))
    rows.append(_row("broom_saturated(10,1) has 9 edges",
                     9, len(broom_saturated(10, 1).edges)))
    v = is_properly_rainbow_saturated(
        broom_saturated(9, 1), PatternSpec.broom(4, 1), config.budget)
    rows.append(_row("broom_saturated(9,1) is properly rainbow B(4,1)-saturated",
                     "established", v.status.value,
                     unknown=v.status is Status.UNKNOWN))

    sf = star_forest(10, 4)
    rows.append(_row("star_forest(10,4) has 8 edges", 8, len(sf.edges)))
    rows.append(_row("star_forest(7,4) has 5 edges", 5, len(star_forest(7, 4).edges)))
    v = is_properly_rainbow_saturated(sf, PatternSpec.path(4), config.budget)
    rows.append(_row("star_forest(10,4) is properly rainbow P4-saturated",
                     "established", v.status.value,
                     unknown=v.status is Status.UNKNOWN))

    ds = double_star_construction(10, 2, 1, "sat")
    rows.append(_row("double_star_construction(10,2,1,sat) is S(3,2)-saturated",
                     True, is_saturated(ds, PatternSpec.double_star(2, 1)).holds))

    cb = caterpillar_bundle(28, 6, 4)
    cat = PatternSpec.caterpillar((1, 0, 0, 1))
    rows.append(_row("caterpillar host (n=28,k=6,ell=4): 30 edges, rainbow-free extension",
                     (30, True, True),
                     (len(cb.graph.edges), is_proper(cb.graph, cb.colouring),
                      find_rainbow_copy(cb.graph, cb.colouring, cat) is None)))
    reps = non_edge_orbit_representatives(cb.graph)[:5]
    for e in reps:
        v = forces_rainbow(cb.graph.add_edge(*e), cat, config.spot_budget)
        rows.append(_row(
            f"caterpillar host + non-edge {e} forces a rainbow caterpillar (spot check)",
            "established", v.status.value,
            unknown=v.status is Status.UNKNOWN,
        ))
    return rows


# -- lemma4: folded-cube colouring properties -------------------------------------


def suite_lemma4(config: ReproConfig) -> list[ReproRow]:
    rows: list[ReproRow] = []
    ell = config.ell
    if ell == 4:
        k4 = FoldedCube(3).graph()
        colourings = list(enumerate_rainbow_free_colourings(k4, PatternSpec.path(4)))
        rows.append(_row(
            "every rainbow-P4-free proper colouring of K4 uses exactly 3 colours",
            True,
            bool(colourings) and all(c.colour_count == 3 for c in colourings),
        ))
        v = is_properly_rainbow_saturated(k4, PatternSpec.path(4), config.budget)
        rows.append(_row("K4 is properly rainbow P4-saturated",
                         "established", v.status.value,
                         unknown=v.status is Status.UNKNOWN))
    elif ell == 5:
        f4 = FoldedCube(4).graph()
        reps = non_edge_orbit_representatives(f4)
        for e in reps:
            v = forces_rainbow(f4.add_edge(*e), PatternSpec.path(5), 10**9)
            rows.append(_row(
                f"every proper colouring of F4 + {e} has a rainbow P5",
                "established", v.status.value,
                unknown=v.status is Status.UNKNOWN,
            ))
        v = is_properly_rainbow_saturated(f4, PatternSpec.path(5), 10**9)
        rows.append(_row("F4 is properly rainbow P5-saturated",
                         "established", v.status.value,
                         unknown=v.status is Status.UNKNOWN))
    else:
        raise RslabError("lemma4 suite supports ell in {4, 5}")
    return rows


# -- census ------------------------------------------------------------------------


def suite_census(config: ReproConfig) -> list[ReproRow]:
    rows: list[ReproRow] = []
    p4 = PatternSpec.path(4)
    p5 = PatternSpec.path(5)
    k13 = PatternSpec.star(3)
    t5 = PatternSpec.subdivided_star(5)

    for n, want in ((7, 5), (8, 6)):
        rec = config.census("prsat", n, p4)
        rows.append(_row(f"prsat({n},P4) = {want}", want, rec.value,
                         unknown=not rec.exact))
    for n, want in ((7, 5), (8, 6), (9, 7)):
        rec = config.census("sat", n, t5)
        rows.append(_row(f"sat({n},T5star) = {want}", want, rec.value))
    rows.append(_row("prsat(6,K1,3) = 5", 5, config.census("prsat", 6, k13).value))
    rows.append(_row("sat(6,K1,3) = 5", 5, config.census("sat", 6, k13).value))

    for n in (5, 6):
        rec = config.census("prsat", n, p5, edge_cap=n - 2)
        rows.append(_row(
            f"no properly rainbow P5-saturated graph on {n} vertices has < {n - 1} edges",
            (None, True), (rec.value, rec.exact),
        ))

    # sandwich: ssat <= prsat and ssat <= sat at each computed point
    points = [("prsat", 7, p4), ("prsat", 8, p4), ("prsat", 6, k13)]
    ok = True
    for quantity, n, spec in points:
        rec = config.census(quantity, n, spec)
        srec = config.census("ssat", n, spec)
        if rec.value is not None and srec.value is not None:
            ok = ok and srec.value <= rec.value
    for n in (7, 8, 9):
        ok = ok and config.census("ssat", n, t5).value <= config.census("sat", n, t5).value
    rows.append(_row("ssat <= prsat and ssat <= sat at every census point", True, ok))

    # second-smallest-degree lower bound rows sit below the census values
    ok = True
    for n in (7, 8):
        row = evaluate_bound("second-degree-lower", n, pattern=p4)
        rec = config.census("prsat", n, p4)
        if row.lower is not None and rec.value is not None:
            ok = ok and row.lower <= Fraction(rec.value)
    rows.append(_row("delta2 lower-bound rows do not exceed census prsat values",
                     True, ok))
    return rows


def all_pass(rows: list[ReproRow], allow_unknown: bool = False) -> bool:
    for row in rows:
        if row.status == "FAIL":
            return False
        if row.status == "UNKNOWN" and not allow_unknown:
            return False
    return True


def format_rows(rows: list[ReproRow]) -> str:
    width = max(len(r.claim) for r in rows) if rows else 0
    lines = []
    for r in rows:
        lines.append(f"{r.status:<8} {r.claim:<{width}}  expected={r.expected}  computed={r.computed}")
    n_pass = sum(1 for r in rows if r.status == "PASS")
    lines.append(f"{n_pass}/{len(rows)} rows pass")
    return "\n".join(lines)

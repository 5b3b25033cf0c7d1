"""Acceptance suite: each test reproduces one desk-scale headline claim at
its stated tolerance (all exact) and prints a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.
"""

import pytest

from rslab.canon import automorphism_group, non_edge_orbit_representatives
from rslab.colouring import is_proper
from rslab.constructions import (
    broom_gadget,
    broom_saturated,
    caterpillar_bundle,
    double_star_construction,
    folded_cube,
    star_forest,
)
from rslab.engine import (
    Status,
    enumerate_rainbow_free_colourings,
    find_rainbow_copy,
    forces_rainbow,
    is_properly_rainbow_saturated,
    is_saturated,
)
from rslab.formulas import evaluate_bound
from rslab.graphs import Graph, disjoint_union
from rslab.oracle import enumerate_trees, prsat_number, sat_number, ssat_number
from rslab.patterns import PatternSpec

P4 = PatternSpec.path(4)
P5 = PatternSpec.path(5)
P6 = PatternSpec.path(6)
K13 = PatternSpec.star(3)
T5 = PatternSpec.subdivided_star(5)
B41 = PatternSpec.broom(4, 1)
CAT = PatternSpec.caterpillar((1, 0, 0, 1))

SPOT_BUDGET = 1_000_000  # caterpillar spot checks; each must be Established


def report(line, ok):
    print(f"ACCEPTANCE {'PASS' if ok else 'FAIL'}: {line}")
    assert ok, line


@pytest.fixture(scope="module")
def census():
    memo = {}

    def get(quantity, n, spec, **kw):
        key = (quantity, n, spec.token(), tuple(sorted(kw.items())))
        if key not in memo:
            fn = {"sat": sat_number, "ssat": ssat_number, "prsat": prsat_number}[quantity]
            memo[key] = fn(n, spec, **kw)
        return memo[key]

    return get


def test_criterion_1_exact_prsat_values_for_p4(census):
    for n in (7, 8):
        rec = census("prsat", n, P4)
        want = n - (n + 3) // 5
        report(
            f"criterion 1: prsat({n},P4) = {rec.value} (expected {want}, exact search)",
            rec.exact and rec.value == want,
        )


def test_criterion_2_classical_oracle_agreement(census):
    for n in (7, 8, 9):
        rec = census("sat", n, T5)
        want = n - (n + 3) // 5
        report(
            f"criterion 2: sat({n},T5star) = {rec.value} (expected {want})",
            rec.exact and rec.value == want,
        )


def test_criterion_3_star_equality(census):
    pr = census("prsat", 6, K13)
    st = census("sat", 6, K13)
    report(
        f"criterion 3: prsat(6,K1,3) = {pr.value} and sat(6,K1,3) = {st.value} (expected 5)",
        pr.exact and pr.value == 5 and st.value == 5,
    )


def test_criterion_4_folded_cube_certificates():
    f4 = folded_cube(5)
    ok4 = (
        is_proper(f4.graph, f4.colouring)
        and f4.colouring.colour_count == 4
        and find_rainbow_copy(f4.graph, f4.colouring, P5) is None
    )
    report("criterion 4: F4 difference colouring proper, 4 colours, no rainbow P5", ok4)
    f5 = folded_cube(6)
    ok5 = (
        is_proper(f5.graph, f5.colouring)
        and find_rainbow_copy(f5.graph, f5.colouring, P6) is None
    )
    report("criterion 4: F5 difference colouring proper, no rainbow P6", ok5)


def test_criterion_5_folded_cube_colouring_properties():
    k4 = folded_cube(4).graph
    colourings = list(enumerate_rainbow_free_colourings(k4, P4))
    ok = bool(colourings) and all(c.colour_count == 3 for c in colourings)
    report(
        f"criterion 5 (ell=4): all {len(colourings)} rainbow-P4-free proper colourings"
        " of K4 use exactly 3 colours",
        ok,
    )
    verdict = is_properly_rainbow_saturated(k4, P4, 10**8)
    report(
        "criterion 5 (ell=4): K4 is properly rainbow P4-saturated",
        verdict.status is Status.ESTABLISHED,
    )
    f4 = folded_cube(5).graph
    reps = non_edge_orbit_representatives(f4)
    for e in reps:
        sub = forces_rainbow(f4.add_edge(*e), P5, 10**9)
        report(
            f"criterion 5 (ell=5): every proper colouring of F4+{e} has a rainbow P5"
            f" ({sub.nodes_explored} nodes)",
            sub.status is Status.ESTABLISHED,  # Unknown is a failure here
        )


def test_criterion_6_broom_gadget():
    bundle = broom_gadget(1)
    g = bundle.graph
    phi = bundle.colouring
    report(
        "criterion 6: gadget colouring is proper and rainbow-P5-free",
        is_proper(g, phi) and find_rainbow_copy(g, phi, B41) is None,
    )

    target = phi.partition()
    group = automorphism_group(g)
    found = list(enumerate_rainbow_free_colourings(g, B41))

    def image(partition, sigma):
        return frozenset(
            frozenset((min(sigma[u], sigma[v]), max(sigma[u], sigma[v])) for u, v in cls)
            for cls in partition
        )

    unique = bool(found) and all(
        any(image(c.partition(), sigma) == target for sigma in group) for c in found
    )
    report(
        f"criterion 6: all {len(found)} rainbow-P5-free proper colourings of the"
        " gadget equal the stated one up to relabelling and automorphism",
        unique,
    )

    host = disjoint_union(g, Graph(2, ((0, 1),)))
    reps = [e for e in non_edge_orbit_representatives(host) if e[0] < g.n or e[1] < g.n]
    forced = True
    for e in reps:
        sub = forces_rainbow(host.add_edge(*e), B41, 10**8)
        forced = forced and sub.status is Status.ESTABLISHED
    report(
        f"criterion 6: all {len(reps)} gadget-incident edge additions force a rainbow P5",
        forced,
    )


def test_criterion_7_tree_exclusion():
    counts = []
    for n in range(3, 9):
        trees = enumerate_trees(n)
        counts.append(len(trees))
        for tree in trees:
            verdict = is_properly_rainbow_saturated(tree, P6, 10**8)
            assert verdict.status is Status.REFUTED, (n, tree.edges, verdict.status)
    report(
        f"criterion 7: no tree on 3..8 vertices is properly rainbow P6-saturated"
        f" (census sizes {counts})",
        counts == [1, 2, 3, 6, 11, 23],
    )


def test_criterion_8_broom_lower_bound(census):
    for n in (5, 6):
        rec = census("prsat", n, P5, edge_cap=n - 2)
        report(
            f"criterion 8: no properly rainbow P5-saturated graph on {n} vertices"
            f" has fewer than {n - 1} edges",
            rec.exact and rec.value is None,
        )


def test_criterion_9_construction_self_verification():
    v = is_properly_rainbow_saturated(broom_saturated(9, 1), B41, 10**8)
    report(
        "criterion 9: broom_saturated(9,1) is properly rainbow B(4,1)-saturated",
        v.status is Status.ESTABLISHED,
    )
    v = is_properly_rainbow_saturated(star_forest(10, 4), P4, 10**8)
    report(
        "criterion 9: star_forest(10,4) is properly rainbow P4-saturated",
        v.status is Status.ESTABLISHED,
    )
    ds = double_star_construction(10, 2, 1, "sat")
    report(
        "criterion 9: double_star_construction(10,2,1,sat) is S(3,2)-saturated",
        is_saturated(ds, PatternSpec.double_star(2, 1)).holds,
    )


def test_criterion_10_property_suites(census):
    # sandwich at every computed census point
    points = [(7, P4), (8, P4), (6, K13)]
    sandwich = True
    for n, spec in points:
        pr = census("prsat", n, spec)
        ss = census("ssat", n, spec)
        sandwich = sandwich and ss.value <= pr.value
    for n in (7, 8, 9):
        ss = census("ssat", n, T5)
        st = census("sat", n, T5)
        sandwich = sandwich and ss.value <= st.value
    report("criterion 10: ssat <= prsat and ssat <= sat at every census point", sandwich)

    # second-smallest-degree rows sit below the census prsat values
    ok = True
    for n, spec in ((7, P4), (8, P4)):
        row = evaluate_bound("second-degree-lower", n, pattern=spec)
        ok = ok and row.lower <= census("prsat", n, spec).value
    report("criterion 10: delta2 lower-bound rows do not exceed census prsat values", ok)

    consistent = True
    for name, params, rng in (
        ("broom4-bounds", {"m": 1}, range(9, 40)),
        ("broom4-bounds", {"m": 2}, range(12, 40)),
        ("subdivided-star-prsat", {"k": 4}, range(7, 30)),
        ("subdivided-star-sat", {"k": 5}, range(7, 30)),
        ("star-exact", {"k": 3}, range(4, 20)),
    ):
        for n in rng:
            row = evaluate_bound(name, n, **params)
            if not row.asymptotic and not row.out_of_range:
                if row.lower is not None and row.upper is not None:
                    consistent = consistent and row.lower <= row.upper
    report("criterion 10: formula rows keep lower <= upper (non-asymptotic)", consistent)

    bundle = caterpillar_bundle(28, 6, 4)
    ok = (
        len(bundle.graph.edges) == 30
        and is_proper(bundle.graph, bundle.colouring)
        and find_rainbow_copy(bundle.graph, bundle.colouring, CAT) is None
    )
    report(
        "criterion 10: caterpillar host (n=28) has 30 edges and a rainbow-free"
        " extension of the cube colouring",
        ok,
    )
    reps = non_edge_orbit_representatives(bundle.graph)[:5]
    statuses = [forces_rainbow(bundle.graph.add_edge(*e), CAT, SPOT_BUDGET).status
                for e in reps]
    report(
        f"criterion 10: caterpillar spot checks on {len(reps)} non-edge orbits"
        f" all force a rainbow copy within budget {SPOT_BUDGET}",
        statuses == [Status.ESTABLISHED] * len(reps),
    )

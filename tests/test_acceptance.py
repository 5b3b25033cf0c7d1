"""Acceptance suite: each test reproduces one desk-scale headline claim at
its stated tolerance (all exact) and prints a pass/fail line.

Criteria 1-5 and 8-10 assert rows of the reproduce suites, at the default
budgets; the census values and closed forms they check are the rows of
`rslab.reproduce.CLAIMS`.  The `suite_rows` fixture runs each suite once per
session.  Criteria 6 and 7 check what no suite checks.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.
"""

import re

from conftest import automorphism_group, enumerate_trees, partition
from rslab.canon import automorphism_generators, non_edge_orbit_representatives
from rslab.colouring import is_proper
from rslab.constructions import broom_gadget
from rslab.engine import (
    Status,
    enumerate_rainbow_free_colourings,
    find_rainbow_copy,
    forces_rainbow,
    is_properly_rainbow_saturated,
)
from rslab.graphs import Graph, disjoint_union
from rslab.patterns import PatternSpec

P6 = PatternSpec.path(6)
B41 = PatternSpec.broom(4, 1)

SUITES = ("census", "formulas", "constructions", "lemma4")

# The suite rows each criterion asserts: (suite, pattern the claim matches).
CRITERIA = {
    1: [("census", r"prsat\(\d+,P4\)"), ("formulas", r"prsat\(\d+,P4\)")],
    2: [("census", r"sat\(\d+,T5star\)"), ("formulas", r"sat\(\d+,T5star\)")],
    3: [("census", r"(pr)?sat\(\d+,K1,[345]\)"), ("formulas", r"(pr)?sat\(\d+,K1,[345]\)")],
    4: [("constructions", r"folded|direction")],
    5: [("lemma4", "")],
    8: [("census", r"no properly rainbow P5-saturated")],
    9: [("constructions", r"broom_|star_forest|double_star")],
    10: [("census", r"ssat <=|delta2"), ("formulas", r"non-asymptotic"),
         ("constructions", r"caterpillar")],
}


def report(line, ok):
    print(f"ACCEPTANCE {'PASS' if ok else 'FAIL'}: {line}")
    assert ok, line


def assert_criterion(suite_rows, criterion):
    rows = [row for suite, pattern in CRITERIA[criterion] for row in suite_rows(suite)
            if re.match(pattern, row.claim)]
    assert rows, f"criterion {criterion} asserts no suite row"
    for row in rows:
        report(f"criterion {criterion}: {row.claim} (expected {row.expected},"
               f" computed {row.computed})", row.status == "PASS")


def test_every_suite_row_belongs_to_one_criterion(suite_rows):
    for suite in SUITES:
        for row in suite_rows(suite):
            owners = [k for k, parts in CRITERIA.items()
                      if any(s == suite and re.match(p, row.claim) for s, p in parts)]
            assert len(owners) == 1, (suite, row.claim, owners)


def test_criterion_1_exact_prsat_values_for_p4(suite_rows):
    assert_criterion(suite_rows, 1)


def test_criterion_2_classical_oracle_agreement(suite_rows):
    assert_criterion(suite_rows, 2)


def test_criterion_3_star_equality(suite_rows):
    assert_criterion(suite_rows, 3)


def test_criterion_4_folded_cube_certificates(suite_rows):
    assert_criterion(suite_rows, 4)


def test_criterion_5_folded_cube_colouring_properties(suite_rows):
    assert_criterion(suite_rows, 5)


def test_criterion_6_broom_gadget():
    bundle = broom_gadget(1)
    g = bundle.graph
    phi = bundle.colouring
    report(
        "criterion 6: gadget colouring is proper and rainbow-P5-free",
        is_proper(g, phi) and find_rainbow_copy(g, phi, B41) is None,
    )

    target = partition(phi)
    group = automorphism_group(g.n, automorphism_generators(g))
    found = list(enumerate_rainbow_free_colourings(g, B41))

    def image(partition, sigma):
        return frozenset(
            frozenset((min(sigma[u], sigma[v]), max(sigma[u], sigma[v])) for u, v in cls)
            for cls in partition
        )

    unique = bool(found) and all(
        any(image(partition(c), sigma) == target for sigma in group) for c in found
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


def test_criterion_8_broom_lower_bound(suite_rows):
    assert_criterion(suite_rows, 8)


def test_criterion_9_construction_self_verification(suite_rows):
    assert_criterion(suite_rows, 9)


def test_criterion_10_property_suites(suite_rows):
    assert_criterion(suite_rows, 10)

import types

import rslab

# The public names of the package, modules aside.  A change to this list is
# a change of the API and must be made on purpose.
PUBLIC_NAMES = (
    "CacheMismatchError", "CheckResult", "ConstructionInvalidError", "DEFAULT_BUDGET",
    "DuplicateEdgeError", "EdgeColouring", "Embedding", "Graph", "IndexOutOfRangeError",
    "InvalidParameterError", "MissingEdgeColourError", "NonEdgeWitness",
    "NotRepresentableError", "OracleBudgetExceededError", "PatternSpec",
    "RegularGraphError", "RslabError", "SearchVerdict", "SelfLoopError", "Status",
    "automorphism_generators", "automorphism_group", "build_graph", "canonical_form",
    "canonical_graph", "contains_copy", "count_proper_colourings", "disjoint_union",
    "enumerate_rainbow_free_colourings", "find_rainbow_copy", "forces_rainbow",
    "from_graph6", "is_isomorphic", "is_proper", "is_properly_rainbow_saturated",
    "is_saturated", "is_semi_saturated", "load_graph_file",
    "non_edge_orbit_representatives", "pair_orbits", "parse_pattern", "realize_pattern",
    "search_rainbow_free_colouring", "to_graph6", "vertex_orbits",
)


def test_public_names_are_pinned():
    public = {name for name, value in vars(rslab).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(public) == sorted(PUBLIC_NAMES)
    assert len(PUBLIC_NAMES) == 45

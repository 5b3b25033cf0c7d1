import ast
import pathlib
import types

import rslab

# The public names of the package, modules aside.  A change to this list is
# a change of the API and must be made on purpose.
PUBLIC_NAMES = (
    "CacheMismatchError", "ConstructionInvalidError", "DEFAULT_BUDGET",
    "DuplicateEdgeError", "EdgeColouring", "Embedding", "Graph", "IndexOutOfRangeError",
    "InvalidParameterError", "MissingEdgeColourError", "NonEdgeWitness",
    "NotRepresentableError", "OracleBudgetExceededError", "PatternSpec",
    "RegularGraphError", "RslabError", "SearchVerdict", "SelfLoopError", "Status",
    "automorphism_generators", "build_graph", "canonical_form", "canonical_graph",
    "contains_copy", "disjoint_union", "enumerate_rainbow_free_colourings",
    "find_rainbow_copy", "forces_rainbow", "from_graph6", "is_proper",
    "is_properly_rainbow_saturated", "is_saturated", "is_semi_saturated",
    "load_graph_file", "non_edge_orbit_representatives", "parse_pattern",
    "search_rainbow_free_colouring", "to_graph6",
)


def test_public_names_are_pinned():
    public = {name for name, value in vars(rslab).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(public) == sorted(PUBLIC_NAMES)
    assert len(PUBLIC_NAMES) == 38


def test_every_public_name_is_used_by_the_package():
    # A public name that no module of the package uses serves only tests;
    # such helpers belong in the tests.  Uses are read from the syntax tree,
    # so a docstring that names a function does not count.
    used = set()
    for path in pathlib.Path(rslab.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    assert sorted(set(PUBLIC_NAMES) - used) == []

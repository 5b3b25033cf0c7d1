import ast
import dataclasses
import pathlib
import types

import rslab
from rslab.colouring import EdgeColouring
from rslab.graphs import Graph
from rslab.oracle import CensusRecord
from rslab.patterns import PatternSpec

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


def _package_nodes():
    """Every node of the syntax trees of the package's modules but
    `__init__`, which only re-exports."""
    for path in pathlib.Path(rslab.__file__).parent.glob("*.py"):
        if path.name != "__init__.py":
            yield from ast.walk(ast.parse(path.read_text(encoding="utf-8")))


def test_every_public_name_is_used_by_the_package():
    # A public name that no module of the package uses serves only tests;
    # such helpers belong in the tests.  Uses are read from the syntax tree,
    # so a docstring that names a function does not count.
    used = set()
    for node in _package_nodes():
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    assert sorted(set(PUBLIC_NAMES) - used) == []


def test_every_public_method_is_used_by_the_package():
    # The same rule for the methods and properties of the classes that
    # callers hold: each must be read, by name, as an attribute somewhere
    # in the package.
    used = {node.attr for node in _package_nodes() if isinstance(node, ast.Attribute)}
    unused = [f"{cls.__name__}.{name}"
              for cls in (Graph, EdgeColouring, PatternSpec, CensusRecord)
              for name in vars(cls)
              if not name.startswith("_")
              and name not in {f.name for f in dataclasses.fields(cls)}
              and name not in used]
    assert unused == []

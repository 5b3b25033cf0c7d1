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
    "RslabError", "SearchVerdict", "SelfLoopError", "Status",
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
    assert len(PUBLIC_NAMES) == 37


def _modules():
    """The path and syntax tree of each module of the package."""
    for path in sorted(pathlib.Path(rslab.__file__).parent.glob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"))


# (module, module it reads from, name) for each name that a module of the
# package imports, or reads as a module attribute, from another module in
# which the name is private.  Such a read reaches into the other module's
# internals and makes a second owner of its decisions, so a change to this
# list must be made on purpose.
PRIVATE_IMPORTS = {
    ("cli", "graphs", "_G6_MAX_N"),
    ("constructions", "graphs", "_G6_MAX_N"),
    ("constructions", "graphs", "_check_order"),
    ("patterns", "graphs", "_check_order"),
}


def test_cross_module_private_imports_are_pinned():
    found = set()
    for path, tree in _modules():
        modules = {}  # local name -> package module, for `from . import m`
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:
                        modules[alias.asname or alias.name] = alias.name
                    elif alias.name.startswith("_"):
                        found.add((path.stem, node.module, alias.name))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules and node.attr.startswith("_")):
                found.add((path.stem, modules[node.value.id], node.attr))
    assert found == PRIVATE_IMPORTS


def _package_nodes():
    """Every node of the syntax trees of the package's modules but
    `__init__`, which only re-exports."""
    for path, tree in _modules():
        if path.name != "__init__.py":
            yield from ast.walk(tree)


def _used_names():
    """The names the package uses: read, read as an attribute, or imported.
    Uses are read from the syntax tree, so a docstring that names a
    function does not count."""
    used = set()
    for node in _package_nodes():
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def test_every_public_name_is_used_by_the_package():
    # A public name that no module of the package uses serves only tests;
    # such helpers belong in the tests.
    assert sorted(set(PUBLIC_NAMES) - _used_names()) == []


# (module, name) for each public module-level name that no module of the
# package uses because only the benchmark harness calls it.
HARNESS_ONLY_NAMES = {
    ("oracle", "enumerate_graphs_by_edges"),
    ("oracle", "prsat_number"),
    ("oracle", "sat_number"),
}


def test_every_module_level_public_name_is_used_by_the_package():
    # The same rule for every public function, class and constant that a
    # module defines, exported or not.
    defined = set()
    for path, tree in _modules():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                names = []
            defined.update((path.stem, name) for name in names if not name.startswith("_"))
    used = _used_names()
    assert sorted((m, name) for m, name in defined if name not in used) == sorted(
        HARNESS_ONLY_NAMES)


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

"""rslab: exhaustive-search lab for proper rainbow saturation of small graphs.

The package decides, by exact pruned search, whether small graphs are
saturated, semi-saturated, or properly rainbow saturated with respect to a
tree pattern; builds the extremal families that realise the known bounds;
and computes brute-force censuses (sat / ssat / prsat) over all graphs of a
given order up to isomorphism.
"""

from .canon import (
    automorphism_generators,
    canonical_form,
    canonical_graph,
    non_edge_orbit_representatives,
)
from .colouring import EdgeColouring, is_proper
from .engine import (
    DEFAULT_BUDGET,
    Embedding,
    NonEdgeWitness,
    SearchVerdict,
    Status,
    contains_copy,
    enumerate_rainbow_free_colourings,
    find_rainbow_copy,
    forces_rainbow,
    is_properly_rainbow_saturated,
    is_saturated,
    is_semi_saturated,
    search_rainbow_free_colouring,
)
from .errors import (
    CacheMismatchError,
    ConstructionInvalidError,
    DuplicateEdgeError,
    IndexOutOfRangeError,
    InvalidParameterError,
    MissingEdgeColourError,
    NotRepresentableError,
    OracleBudgetExceededError,
    RegularGraphError,
    RslabError,
    SelfLoopError,
)
from .graphs import Graph, build_graph, disjoint_union, from_graph6, to_graph6
from .patterns import PatternSpec, load_graph_file, parse_pattern

__version__ = "0.1.0"

"""Edge colourings: positive integer colours on the edges of one graph."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MissingEdgeColourError, RslabError
from .graphs import Edge, Graph


@dataclass(frozen=True)
class EdgeColouring:
    """Colours stored parallel to `graph.edges`; colours are >= 1."""

    graph: Graph
    colours: tuple[int, ...]

    def __post_init__(self):
        if len(self.colours) != len(self.graph.edges):
            raise MissingEdgeColourError(
                f"{len(self.colours)} colours for {len(self.graph.edges)} edges"
            )
        if any(c < 1 for c in self.colours):
            raise RslabError("colours must be positive integers")

    @staticmethod
    def from_map(graph: Graph, mapping: dict[Edge, int]) -> "EdgeColouring":
        colours = []
        for e in graph.edges:
            if e not in mapping:
                raise MissingEdgeColourError(f"edge {e} has no colour")
            colours.append(int(mapping[e]))
        if len(mapping) != len(graph.edges):
            raise MissingEdgeColourError("colouring mentions edges not in the graph")
        return EdgeColouring(graph, tuple(colours))

    @property
    def colour_count(self) -> int:
        return len(set(self.colours))

    def to_json_dict(self) -> dict:
        d = self.graph.to_json_dict()
        d["colours"] = list(self.colours)
        return d

    def to_dot(self) -> str:
        return self.graph.to_dot(self.colours)


def is_proper(g: Graph, colouring: EdgeColouring) -> bool:
    """True iff every colour class is a matching: no vertex meets two edges
    of one colour."""
    if colouring.graph != g:
        raise MissingEdgeColourError("colouring belongs to a different graph")
    seen: set[tuple[int, int]] = set()  # (vertex, colour) of the edges so far
    for (u, v), c in zip(g.edges, colouring.colours):
        if (u, c) in seen or (v, c) in seen:
            return False
        seen.add((u, c))
        seen.add((v, c))
    return True

"""Simple undirected graphs and the handful of constructions the rest of the
package builds on: complete graphs, cycle rank, connectivity-preserving edge
deletion, 2-fold interlacement, and the file reader and header check that
graph and embedding documents share.

``_bfs_tree`` is the package's one graph search: connectivity here, the
connectivity check of a rotation system, and the spinal builder's order of
tree edges all come from it.  ``Graph(n, edges)`` is the package's one
check of an edge's range, order and loop: the graph reader, ``make_graph``
and ``RotationSystem`` leave that test to it.  ``_Value`` is the immutable
base of the package's checked value types."""

from __future__ import annotations

import json
import os
from collections import deque
from typing import Iterable, Sequence

Edge = tuple[int, int]

GRAPH_FORMAT = "qforge-graph/1"


class FormatError(ValueError):
    """A JSON document does not match the expected on-disk format."""


# ============================================================
# Core type
# ============================================================


class _Value:
    """Immutable base of a checked value type.  A subclass declares its
    ``__slots__``, names the slots that make its value in ``_fields`` and
    sets each slot once in ``__init__`` with ``object.__setattr__``;
    equality, hashing, repr, copying and pickling read ``_fields``, and
    assignment raises AttributeError."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({args})"

    def __reduce__(self) -> tuple:
        return type(self), self._values()


class Graph(_Value):
    """Immutable simple undirected graph on vertices 0..vertex_count-1.

    Edges are stored as ordered pairs (i, j) with i < j; no loops, no
    duplicates.  All operations in this module are pure.
    """

    __slots__ = _fields = ("vertex_count", "edges")
    vertex_count: int
    edges: frozenset[Edge]

    def __init__(self, vertex_count: int, edges: frozenset[Edge]) -> None:
        if vertex_count < 0:
            raise ValueError("vertex_count must be non-negative")
        for i, j in edges:
            if i == j:
                raise ValueError(f"loop edge ({i}, {j}) not allowed")
            if not 0 <= i < j < vertex_count:
                raise ValueError(f"edge ({i}, {j}) out of range or not ordered")
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "edges", edges)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def adjacency(self) -> list[list[int]]:
        """Neighbor lists in ascending order, indexed by vertex."""
        adj: list[list[int]] = [[] for _ in range(self.vertex_count)]
        for i, j in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        for row in adj:
            row.sort()
        return adj


def make_graph(vertex_count: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a Graph from possibly unordered edge pairs, rejecting duplicates;
    Graph rejects loops and out-of-range endpoints."""
    normalized: set[Edge] = set()
    for u, v in edges:
        edge = (u, v) if u < v else (v, u)
        if edge in normalized:
            raise ValueError(f"duplicate edge {edge}")
        normalized.add(edge)
    return Graph(vertex_count, frozenset(normalized))


# ============================================================
# Constructions
# ============================================================


def complete_graph(p: int) -> Graph:
    """The complete graph on p vertices."""
    if p < 1:
        raise ValueError("complete graph needs at least 1 vertex")
    return Graph(p, frozenset((i, j) for i in range(p) for j in range(i + 1, p)))


def _bfs_tree(adjacency: Sequence[Sequence[int]]) -> list[tuple[int, int]]:
    """The one graph search: the tree edges (parent, child) of a breadth-first
    search from vertex 0, in discovery order, taking neighbours in list order."""
    if not adjacency:
        return []
    seen = [False] * len(adjacency)
    seen[0] = True
    queue = deque([0])
    tree: list[tuple[int, int]] = []
    while queue:
        v = queue.popleft()
        for w in adjacency[v]:
            if not seen[w]:
                seen[w] = True
                tree.append((v, w))
                queue.append(w)
    return tree


def is_connected(graph: Graph) -> bool:
    """True when the graph has a single connected component.

    The empty graph counts as connected by convention.
    """
    # a spanning tree has vertex_count - 1 edges; the empty graph has none
    return len(_bfs_tree(graph.adjacency())) >= graph.vertex_count - 1


def betti(graph: Graph) -> int:
    """Cycle rank |E| - |V| + 1 of a non-empty connected graph."""
    if graph.vertex_count == 0:
        raise ValueError("cycle rank is undefined for the empty graph")
    if not is_connected(graph):
        raise ValueError("cycle rank is defined for connected graphs only")
    return graph.edge_count - graph.vertex_count + 1


def delete_edges_connected(graph: Graph, m: int) -> Graph:
    """Remove exactly m edges while keeping the graph connected.

    Edges are scanned once in lexicographic order and removed greedily
    whenever removal keeps the graph connected, i.e. current bridges are
    skipped.  A skipped bridge stays a bridge as more edges go, so a full
    scan ends at a spanning tree and one scan reaches any m up to the cycle
    rank.  Raises ValueError when m exceeds the cycle rank, since no
    connected result exists then.

    Beyond the cycle-rank check, m = 0 costs nothing.  Otherwise the trials
    share one mutable adjacency of sets, and one Graph is built at the end.
    An edge whose ends have a common neighbour closes a triangle, so it is
    no bridge and goes at once; any other trial is one breadth-first
    search, about |V| + |E| steps.
    """
    if m < 0:
        raise ValueError("number of edges to delete must be non-negative")
    rank = betti(graph)
    if m > rank:
        raise ValueError(f"cannot delete {m} edges and stay connected; cycle rank is {rank}")
    if not m:
        return graph
    near = [set(row) for row in graph.adjacency()]
    kept = set(graph.edges)
    for u, w in sorted(graph.edges):
        near[u].remove(w)
        near[w].remove(u)
        # a spanning tree has vertex_count - 1 edges
        if not near[u].isdisjoint(near[w]) or len(_bfs_tree(near)) >= graph.vertex_count - 1:
            kept.remove((u, w))
            m -= 1
            if not m:
                break
        else:
            near[u].add(w)
            near[w].add(u)
    return Graph(graph.vertex_count, frozenset(kept))


def interlace(graph: Graph) -> Graph:
    """Split every vertex v into the pair 2v, 2v+1 and join both copies of u
    with both copies of v for each original edge (u, v).

    Copies of the same vertex stay non-adjacent, so the result has 2|V|
    vertices and 4|E| edges.  The fixed labeling makes the interlacement of
    K_p literally equal to K_2p minus the matching {2k, 2k+1}, the octahedral
    graph, not merely isomorphic to it; tests/_reference.py checks that.
    """
    doubled: set[Edge] = set()
    for u, v in graph.edges:
        for a in (2 * u, 2 * u + 1):
            for b in (2 * v, 2 * v + 1):
                doubled.add((min(a, b), max(a, b)))
    return Graph(2 * graph.vertex_count, frozenset(doubled))


# ============================================================
# File format
# ============================================================


def canonical_json(doc: dict) -> str:
    """Serialize a document with sorted keys, no whitespace, one trailing
    newline; identical content yields identical bytes."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def graph_to_document(graph: Graph) -> dict:
    return {
        "format": GRAPH_FORMAT,
        "vertex_count": graph.vertex_count,
        "edges": [list(edge) for edge in sorted(graph.edges)],
    }


def _id_list(value: object) -> bool:
    """A list of non-bool ints."""
    return isinstance(value, list) and all(
        isinstance(x, int) and not isinstance(x, bool) for x in value
    )


def _is_count(value: object) -> bool:
    """A non-negative integer that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _vertex_count(doc: object, fmt: str) -> int:
    """The header every document kind shares: a dict tagged with the given
    format and a non-negative integer vertex_count, which is returned."""
    if not isinstance(doc, dict) or doc.get("format") != fmt:
        raise FormatError(f"expected a {fmt} document")
    vertex_count = doc.get("vertex_count")
    if not _is_count(vertex_count):
        raise FormatError("vertex_count must be a non-negative integer")
    return vertex_count


def graph_from_document(doc: object) -> Graph:
    """Parse and strictly validate a graph document.

    The document's JSON shape and duplicate edges, which a frozenset would
    merge silently, are checked here; unordered, looping and out-of-range
    edges are Graph's to reject, its ValueError becoming FormatError.
    """
    vertex_count = _vertex_count(doc, GRAPH_FORMAT)
    raw_edges = doc.get("edges")
    if not isinstance(raw_edges, list):
        raise FormatError("edges must be a list")
    edges: set[Edge] = set()
    for item in raw_edges:
        if not _id_list(item) or len(item) != 2:
            raise FormatError(f"bad edge entry {item!r}")
        i, j = item
        if (i, j) in edges:
            raise FormatError(f"duplicate edge [{i}, {j}]")
        edges.add((i, j))
    try:
        return Graph(vertex_count, frozenset(edges))
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def save_graph(graph: Graph, path: str | os.PathLike[str]) -> None:
    with open(path, "w", encoding="utf-8") as out:
        out.write(canonical_json(graph_to_document(graph)))


def _read_document(path: str | os.PathLike[str]) -> object:
    """The one reader of document files (UTF-8 JSON).  Bad bytes, bad JSON
    and integers over the interpreter's digit limit all become FormatError."""
    try:
        with open(path, encoding="utf-8") as source:
            return json.loads(source.read())
    except ValueError as exc:
        raise FormatError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise FormatError("JSON nesting is too deep") from exc


def load_graph(path: str | os.PathLike[str]) -> Graph:
    return graph_from_document(_read_document(path))

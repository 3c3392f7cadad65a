"""Rotation systems on connected simple graphs: face tracing, Euler
characteristic and genus, quadrangulation validation, and a canonical JSON
file format.

A rotation system fixes a cyclic neighbor order at every vertex and thereby
an oriented cellular embedding.  The rotations alone fix the graph, so
``RotationSystem(rotations)`` takes nothing else: it indexes the darts of
the rotation lists once and, from that one index, validates the lists,
derives the graph and traces the faces.  Rotations
are read counterclockwise; the face-tracing successor of a dart (u, v) is
(v, w) where w is the neighbor after u in the rotation at v.  Any
consistent convention would do; this one is fixed so face lists are
reproducible.
"""

from __future__ import annotations

import os
from itertools import count
from typing import Iterator, NamedTuple, Sequence

from .graph import FormatError, Graph, _Value, canonical_json
from .graph import _connected, _id_list, _is_count, _read_document, _vertex_count

EMBEDDING_FORMAT = "qforge-embedding/1"


class GenusMismatchError(ValueError):
    """A document's declared genus disagrees with the traced embedding."""


def _rotate_to_min(cycle: Sequence[int]) -> tuple[int, ...]:
    """Rotate a cyclic sequence so it starts at its smallest element."""
    pivot = cycle.index(min(cycle))
    return tuple(cycle[pivot:]) + tuple(cycle[:pivot])


def _first_fault(rotations: Sequence[Sequence[int]], at: list[dict[int, int]]) -> str:
    """The error message for a rotation list that _indexed refuses.  The
    checks run in their fixed order, vertex by vertex and then dart by dart,
    so the first fault in that order is the one named."""
    n = len(rotations)
    for v, (rotation, near) in enumerate(zip(rotations, at)):
        if any(not 0 <= u < n for u in near):
            return f"rotation at vertex {v} mentions an out-of-range vertex"
        if len(near) != len(rotation):
            return f"rotation at vertex {v} repeats a neighbor"
        if v in near:
            return f"rotation at vertex {v} lists the vertex itself"
    for v, rotation in enumerate(rotations):
        for u in rotation:
            if v not in at[u]:
                return f"rotation asymmetry: {u} listed at {v} but not {v} at {u}"
    raise AssertionError("a rotation list failed a test but shows no fault")


def _indexed(rotations: Sequence[Sequence[int]]) -> tuple[Graph, list[dict[int, int]]]:
    """The graph a rotation list describes and its dart index, after every
    structural check of the list (see RotationSystem).

    ``at[v][u]`` is the id of the dart (v, u): the darts are numbered in
    the order of the list, vertex by vertex, so the ids at v are
    consecutive and follow the rotation at v.  The checks read the index's
    keys and the face tracer reads the whole index, so a rotation list is
    indexed once.

    Each edge v < u with u listed at v accounts for at least two entries:
    u at v and, once the loop finds it, v at u.  When the rotations hold
    exactly 2|E| entries, these are all of them, each listed once, so no
    entry is left to repeat, to be the vertex itself or a negative id, or
    to be a dart that is not listed back.  One count of the entries and
    one look per edge, half as many as darts."""
    # zip reads the rotation first, so it takes no id past the rotation's end
    ids = count()
    at = [dict(zip(rotation, ids)) for rotation in rotations]
    edges = frozenset((v, u) for v, near in enumerate(at) for u in near if v < u)
    try:
        graph = Graph(len(rotations), edges)
    except ValueError:
        raise ValueError(_first_fault(rotations, at)) from None
    if sum(map(len, rotations)) != 2 * len(edges) or any(v not in at[u] for v, u in edges):
        raise ValueError(_first_fault(rotations, at))
    if not edges:
        raise ValueError("rotation system needs a graph with at least one edge")
    if not _connected(rotations):
        raise ValueError("rotation system needs a connected graph")
    return graph, at


class RotationSystem(_Value):
    """A cyclic neighbor order at every vertex of a connected simple graph,
    given by the rotations alone: u and v are adjacent exactly when each is
    listed at the other.

    Construction is the one structural check of a rotation list: every
    entry is a vertex id other than the vertex itself and appears once, the
    listing is symmetric, and the graph it describes has at least one edge
    and is connected.  That graph is kept as the derived ``graph``.  It is
    built first, from the pairs v < u with u listed at v, so ``Graph``'s
    range check is the check of every id listed above its vertex; the dart
    count in ``_indexed`` rules out every other fault (the argument is
    there).  Either refusal raises ``_first_fault``'s message, never
    Graph's own.  Each rotation is stored starting from the vertex's
    smallest neighbor, so equal embeddings compare and serialize
    identically.  The faces are traced once, here, over the dart index the
    checks built, and what ``validate_quadrangulation`` reports is derived
    with the graph.
    Instances are immutable and compare by their rotations alone.
    """

    __slots__ = ("rotations", "graph", "_validation")
    _fields = ("rotations",)
    rotations: tuple[tuple[int, ...], ...]
    graph: Graph
    _validation: EmbeddingReport

    def __init__(self, rotations: Sequence[Sequence[int]]) -> None:
        graph, at = _indexed(rotations)
        object.__setattr__(self, "rotations", tuple(map(_rotate_to_min, rotations)))
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "_validation", _report(graph, at))


class EmbeddingReport(NamedTuple):
    """Outcome of quadrangulation validation plus the embedding's counts."""

    vertex_count: int
    edge_count: int
    face_count: int
    euler_characteristic: int
    genus: int
    is_quadrangulation: bool
    failures: tuple[str, ...]


def _trace(at: list[dict[int, int]]) -> Iterator[list[int]]:
    """The one face tracer: yields every face as its list of corners,
    walked over the dart index of a checked rotation list (see _indexed).

    One table gives each dart's successor id.  Start darts are taken in
    ascending (tail, head) order, so each face starts at its smallest dart
    and faces come in ascending order of that dart.  Face k's darts are
    (c[i], c[i + 1]) for its corners c, read cyclically.  The faces depend
    only on the cyclic order at each vertex, not on where the rotation
    list starts it.
    """
    # after[d]: the dart after d around its tail, wrapping at the end of the
    # tail's ids; it holds at's own int objects, so no id is made twice
    after: list[int] = []
    for near in at:
        ids = list(near.values())
        after += ids[1:]
        after += ids[:1]
    # the successor of (v, h) is (h, w) with w after v in the rotation at h
    successor = [after[at[head][tail]] for tail, near in enumerate(at) for head in near]
    corner = [tail for tail, near in enumerate(at) for _ in near]
    seen = bytearray(len(corner))
    for tail, near in enumerate(at):
        for first in map(near.__getitem__, sorted(near)):
            if seen[first]:
                continue
            face = [tail]
            dart = successor[first]
            while dart != first:
                seen[dart] = 1
                face.append(corner[dart])
                dart = successor[dart]
            yield face


def _report(graph: Graph, at: list[dict[int, int]]) -> EmbeddingReport:
    """Check each face of a checked rotation list, given its graph and dart
    index, as the tracer walks it, and count the faces; no list of faces is
    kept.  See validate_quadrangulation."""
    failures: list[str] = []
    face_count = 0
    for face_count, corners in enumerate(_trace(at), 1):
        # a quad walk has length four and four distinct corners; its four
        # edges are then distinct too, since two edges of a 4-walk with
        # distinct corners never join the same pair
        if len(corners) != 4:
            defect = f"has length {len(corners)}, not 4"
        elif len(set(corners)) != 4:
            defect = "revisits a vertex"
        else:
            continue
        label = "-".join(map(str, corners))
        failures.append(f"face {face_count - 1} ({label}) {defect}")
    chi = graph.vertex_count - graph.edge_count + face_count
    if chi % 2 or chi > 2:
        raise RuntimeError(f"impossible Euler characteristic {chi} for an oriented embedding")
    return EmbeddingReport(
        vertex_count=graph.vertex_count,
        edge_count=graph.edge_count,
        face_count=face_count,
        euler_characteristic=chi,
        genus=(2 - chi) // 2,
        is_quadrangulation=not failures,
        failures=tuple(failures),
    )


def validate_quadrangulation(system: RotationSystem) -> EmbeddingReport:
    """Check that every face of the embedding is a genuine 4-cycle.

    A face passes when its boundary walk has length exactly four and visits
    four distinct vertices and four distinct edges.  Two distinct faces may
    share all four edges; that genuinely happens on the sphere at order 4.
    The underlying graph is simple and connected by construction.
    Violations are reported per face, never raised; the Euler characteristic
    |V| - |E| + |F| and genus (2 - chi) / 2 are reported for any embedding.
    """
    return system._validation


# ============================================================
# File format
# ============================================================


def embedding_to_document(system: RotationSystem, declared_genus: int | None = None) -> dict:
    doc: dict = {
        "format": EMBEDDING_FORMAT,
        "vertex_count": system.graph.vertex_count,
        "rotations": [list(rotation) for rotation in system.rotations],
    }
    if declared_genus is not None:
        doc["declared_genus"] = declared_genus
    return doc


def embedding_from_document(doc: object) -> RotationSystem:
    """Parse an embedding document into its rotation system.

    The document's JSON shape is checked here.  RotationSystem checks the
    rotations, which must be mutually symmetric (u listed at v exactly when
    v is listed at u), and derives the graph, its ValueError becoming
    FormatError.  If the document declares a genus, it is compared against
    the traced genus and a mismatch raises GenusMismatchError.
    """
    vertex_count = _vertex_count(doc, EMBEDDING_FORMAT)
    raw = doc.get("rotations")
    if not isinstance(raw, list) or len(raw) != vertex_count:
        raise FormatError("rotations must list one neighbor cycle per vertex")
    for v, row in enumerate(raw):
        if not _id_list(row):
            raise FormatError(f"rotation at vertex {v} must be a list of vertex ids")
    try:
        system = RotationSystem(raw)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
    declared = doc.get("declared_genus")
    if declared is not None:
        if not _is_count(declared):
            raise FormatError("declared_genus must be a non-negative integer")
        genus = validate_quadrangulation(system).genus
        if genus != declared:
            raise GenusMismatchError(f"declared genus {declared} but traced genus is {genus}")
    return system


def save_embedding(
    system: RotationSystem, path: str | os.PathLike[str], declared_genus: int | None = None
) -> None:
    with open(path, "w", encoding="utf-8") as out:
        out.write(canonical_json(embedding_to_document(system, declared_genus)))


def load_embedding(path: str | os.PathLike[str]) -> RotationSystem:
    return embedding_from_document(_read_document(path))


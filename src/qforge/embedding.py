"""Rotation systems on connected simple graphs: face tracing, Euler
characteristic and genus, quadrangulation validation, and a canonical JSON
file format.

A rotation system fixes a cyclic neighbor order at every vertex and thereby
an oriented cellular embedding.  The rotations alone fix the graph, so
``RotationSystem(rotations)`` takes nothing else: it validates the rotation
lists, derives the graph from them and traces the faces, once.  Rotations
are read counterclockwise; the face-tracing successor of a dart (u, v) is
(v, w) where w is the neighbor after u in the rotation at v.  Any
consistent convention would do; this one is fixed so face lists are
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from pathlib import Path
from typing import Sequence

from .graph import FormatError, Graph, canonical_json
from .graph import _bfs_tree, _id_list, _is_count, _read_document, _vertex_count

EMBEDDING_FORMAT = "qforge-embedding/1"


class GenusMismatchError(ValueError):
    """A document's declared genus disagrees with the traced embedding."""


def _rotate_to_min(cycle: Sequence[int]) -> tuple[int, ...]:
    """Rotate a cyclic sequence so it starts at its smallest element."""
    pivot = cycle.index(min(cycle))
    return tuple(cycle[pivot:]) + tuple(cycle[:pivot])


def _symmetric(
    rotations: Sequence[Sequence[int]],
    edges: frozenset[tuple[int, int]],
    neighbours: list[set[int]],
) -> bool:
    """Whether a rotation list repeats no entry and is symmetric, given its
    edges v < u with u listed at v, which Graph has checked for range.

    Each edge accounts for at least two entries: u in the rotation at v and,
    once the loop finds it, v in the rotation at u.  When the rotations hold
    exactly 2|E| entries, these are all of them, each listed once, so no
    entry is left to repeat, to be the vertex itself or a negative id, or to
    be a dart that is not listed back.  One count of the entries and one
    look per edge, half as many as darts."""
    if sum(map(len, rotations)) != 2 * len(edges):
        return False
    for v, u in edges:
        if v not in neighbours[u]:
            return False
    return True


def _first_fault(rotations: Sequence[Sequence[int]], neighbours: list[set[int]]) -> str:
    """The error message for a rotation list that Graph or _symmetric
    refuses.  The checks run in their fixed order, vertex by vertex and
    then dart by dart, so the first fault in that order is the one named."""
    n = len(rotations)
    for v, (rotation, near) in enumerate(zip(rotations, neighbours)):
        if any(not 0 <= u < n for u in near):
            return f"rotation at vertex {v} mentions an out-of-range vertex"
        if len(near) != len(rotation):
            return f"rotation at vertex {v} repeats a neighbor"
        if v in near:
            return f"rotation at vertex {v} lists the vertex itself"
    for v, rotation in enumerate(rotations):
        for u in rotation:
            if v not in neighbours[u]:
                return f"rotation asymmetry: {u} listed at {v} but not {v} at {u}"
    raise AssertionError("a rotation list failed a test but shows no fault")


def _checked_graph(rotations: Sequence[Sequence[int]]) -> Graph:
    """The graph a rotation list describes, after every structural check of
    the list (see RotationSystem).  The checks' neighbour sets and edge set
    are freed when this returns, before the faces are traced."""
    neighbours = list(map(set, rotations))
    edges = frozenset((v, u) for v, near in enumerate(neighbours) for u in near if v < u)
    try:
        graph = Graph(len(rotations), edges)
    except ValueError:
        raise ValueError(_first_fault(rotations, neighbours)) from None
    if not _symmetric(rotations, edges, neighbours):
        raise ValueError(_first_fault(rotations, neighbours))
    if not edges:
        raise ValueError("rotation system needs a graph with at least one edge")
    if len(_bfs_tree(rotations)) != len(rotations) - 1:
        raise ValueError("rotation system needs a connected graph")
    return graph


@dataclass(frozen=True)
class RotationSystem:
    """A cyclic neighbor order at every vertex of a connected simple graph,
    given by the rotations alone: u and v are adjacent exactly when each is
    listed at the other.

    Construction is the one structural check of a rotation list: every
    entry is a vertex id other than the vertex itself and appears once, the
    listing is symmetric, and the graph it describes has at least one edge
    and is connected.  That graph is kept as the derived ``graph``.  It is
    built first, from the pairs v < u with u listed at v, so ``Graph``'s
    range check is the check of every id listed above its vertex; the dart
    count in ``_symmetric`` rules out every other fault (the argument is
    there).  Either refusal raises ``_first_fault``'s message, never
    Graph's own.  Each rotation is stored starting from the vertex's
    smallest neighbor, so equal embeddings compare and serialize
    identically.  The faces are traced once, here, and what
    ``validate_quadrangulation`` reports is derived with the graph.
    Instances are immutable.
    """

    rotations: tuple[tuple[int, ...], ...]
    graph: Graph = field(init=False, repr=False, compare=False)
    _validation: EmbeddingReport = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "graph", _checked_graph(self.rotations))
        object.__setattr__(self, "rotations", tuple(map(_rotate_to_min, self.rotations)))
        object.__setattr__(self, "_validation", _report(self.rotations, self.graph))


@dataclass(frozen=True)
class EmbeddingReport:
    """Outcome of quadrangulation validation plus the embedding's counts."""

    vertex_count: int
    edge_count: int
    face_count: int
    euler_characteristic: int
    genus: int
    is_quadrangulation: bool
    failures: tuple[str, ...]


def _trace(rotations: Sequence[Sequence[int]]) -> list[list[int]]:
    """The one face tracer: every face as its list of corners.

    The dart (v, rotations[v][i]) has the integer id offset[v] + i, and one
    table gives each dart's successor id.  Start darts are taken in
    ascending (tail, head) order, so each face starts at its smallest dart
    and faces come in ascending order of that dart.  Face k's darts are
    (c[i], c[i + 1]) for its corners c, read cyclically.
    """
    offset = [0, *accumulate(map(len, rotations))]
    darts = offset.pop()
    # one int object per dart id, shared by both tables below
    ids = list(range(darts + 1))
    # at[v][h]: the id of the dart (v, h)
    at = [
        dict(zip(rotation, ids[start : start + len(rotation)]))
        for start, rotation in zip(offset, rotations)
    ]
    # the successor of (v, h) is (h, w) with w after v in the rotation at h:
    # the id after that of (h, v), wrapping at the end of h's ids
    successor = [ids[at[head][tail] + 1] for tail, rotation in enumerate(rotations) for head in rotation]
    for head, (start, rotation) in enumerate(zip(offset, rotations)):
        if rotation:
            successor[at[rotation[-1]][head]] = ids[start]
    corner = [tail for tail, rotation in enumerate(rotations) for _ in rotation]
    seen = bytearray(darts)
    faces: list[list[int]] = []
    for tail, rotation in enumerate(rotations):
        for first in map(at[tail].__getitem__, sorted(rotation)):
            if seen[first]:
                continue
            face = [tail]
            dart = successor[first]
            while dart != first:
                seen[dart] = 1
                face.append(corner[dart])
                dart = successor[dart]
            faces.append(face)
    return faces


def _quad_defect(corners: Sequence[int]) -> str | None:
    """Why a closed face walk, given by its corners in walk order, is not a
    genuine quad, or None if it is one.  A quad walk has length four and
    four distinct corners; its four edges are then distinct too, since two
    edges of a 4-walk with distinct corners never join the same pair."""
    if len(corners) != 4:
        return f"has length {len(corners)}, not 4"
    if len(set(corners)) != 4:
        return "revisits a vertex"
    return None


def _report(rotations: Sequence[Sequence[int]], graph: Graph) -> EmbeddingReport:
    """Trace the faces of a checked rotation list on its graph and report
    them; see validate_quadrangulation."""
    faces = _trace(rotations)
    failures: list[str] = []
    for index, corners in enumerate(faces):
        defect = _quad_defect(corners)
        if defect:
            label = "-".join(map(str, corners))
            failures.append(f"face {index} ({label}) {defect}")
    chi = graph.vertex_count - graph.edge_count + len(faces)
    if chi % 2 or chi > 2:
        raise RuntimeError(f"impossible Euler characteristic {chi} for an oriented embedding")
    return EmbeddingReport(
        vertex_count=graph.vertex_count,
        edge_count=graph.edge_count,
        face_count=len(faces),
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
        system = RotationSystem(tuple(map(tuple, raw)))
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
    system: RotationSystem, path: str | Path, declared_genus: int | None = None
) -> None:
    Path(path).write_text(
        canonical_json(embedding_to_document(system, declared_genus)), encoding="utf-8"
    )


def load_embedding(path: str | Path) -> RotationSystem:
    return embedding_from_document(_read_document(path))


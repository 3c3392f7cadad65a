"""Incremental construction of spinal quadrangulations.

Given a connected spine graph G, the builder grows an oriented embedding of
the interlaced graph (two copies of every spine vertex) one spine edge at a
time: a tree edge extends the surface without changing its genus, while a
chord splices in a handle, raising the genus by one.  After the last edge
the embedding is a quadrangulation whose genus equals the cycle rank of G
and whose face count is twice the spine's edge count.

Surgery happens inside witness faces: quads carrying both copies of a spine
vertex as opposite corners.  The build keeps two records, changed in place:
the rotation at every embedding vertex and the witness table.  A step takes
only faces from that table, computes the four rotations with the new
neighbors spliced in, and names the faces those rotations make (three quads
for a tree edge, four for a chord), read off the corners of the consumed
faces; nothing is traced per step.  If a step would leave some vertex
without any witness, it returns False and writes nothing, and the next
witness face (or pair, for a chord) is tried, smallest first; these retries
are reported as backtracks rather than assumed to be zero.  Spine edges are
added in one fixed order (tree edges breadth-first, then chords).  The
finished embedding is validated once in full, and that validation, with the
genus check against the spine's cycle rank, is the proof that every step
named its faces right.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from itertools import product

from .embedding import RotationSystem, _rotate_to_min, validate_quadrangulation
from .formulas import min_order
from .graph import Graph, _bfs_tree, complete_graph, delete_edges_connected

Quad = tuple[int, int, int, int]


class BuildError(RuntimeError):
    """The builder exhausted its witness choices or broke an invariant; a
    spinal quadrangulation always exists, so this indicates a defect."""


def _copies(vertex: int) -> tuple[int, int]:
    """The two embedding vertices carrying a spine vertex."""
    return 2 * vertex, 2 * vertex + 1


def _align_quad(face: Quad, corner: int) -> Quad:
    """Rotate a quad's corner cycle so it starts at the given corner."""
    i = face.index(corner)
    return face[i:] + face[:i]


def _insert_after(rotation: tuple[int, ...], after: int, items: tuple[int, ...]) -> tuple[int, ...]:
    """Insert items into a cyclic rotation immediately after one entry."""
    i = rotation.index(after)
    return rotation[: i + 1] + items + rotation[i + 1 :]


def _witnessed(face: Quad) -> list[int]:
    """The spine vertices whose two copies are opposite corners of a quad."""
    a, b, c, d = face
    return [x >> 1 for x, y in ((a, c), (b, d)) if x ^ 1 == y]


# ============================================================
# Surgery steps
# ============================================================


class _Build:
    """A partial spinal embedding, grown in place one spine edge at a time.
    It keeps two records: the rotation at every embedding vertex, and the
    witness table.

    Faces are canonical corner 4-tuples (rotated to start at the smallest
    corner, orientation kept).  The witness table maps each spine vertex of
    the build to the ascending list of faces holding its two copies as
    opposite corners; every spine vertex keeps at least one.  A step accepts
    only faces from that table, and names the faces its new rotations make
    instead of tracing them; the finished embedding's full validation is
    the proof that they were named right.  A step that would orphan a vertex
    returns False and writes nothing.
    """

    __slots__ = ("rotations", "witnesses")

    def __init__(self) -> None:
        self.rotations: dict[int, tuple[int, ...]] = {}
        self.witnesses: dict[int, list[Quad]] = {}

    def base(self, u: int, v: int) -> None:
        """The single spine edge (u, v) on an empty state: a 4-cycle in the
        sphere whose two quad faces each witness both endpoints."""
        u0, u1 = _copies(u)
        v0, v1 = _copies(v)
        rotations = {u0: (v0, v1), u1: (v0, v1), v0: (u0, u1), v1: (u0, u1)}
        self._splice(rotations, (), ((u0, v0, u1, v1), (u0, v1, u1, v0)))

    def tree_surgery(self, u: int, v: int, face: Quad) -> bool:
        """Attach a new leaf v to u inside a witness face of u, split into three quads."""
        self._require_witnesses((u, face))
        u0, u1 = _copies(u)
        v0, v1 = _copies(v)
        _, x, _, y = _align_quad(face, u0)
        rotations = {
            u0: _insert_after(self.rotations[u0], after=y, items=(v1, v0)),
            u1: _insert_after(self.rotations[u1], after=x, items=(v0, v1)),
            v0: (u0, u1),
            v1: (u0, u1),
        }
        created = ((u0, x, u1, v0), (u0, v1, u1, y), (u0, v0, u1, v1))
        return self._splice(rotations, (face,), created)

    def chord_surgery(self, u: int, v: int, face_u: Quad, face_v: Quad) -> bool:
        """Join u and v by a handle between a witness face of each: two quads become four."""
        self._require_witnesses((u, face_u), (v, face_v))
        u0, u1 = _copies(u)
        v0, v1 = _copies(v)
        _, a, _, b = _align_quad(face_u, u0)
        _, c, _, d = _align_quad(face_v, v0)
        rotations = {
            u0: _insert_after(self.rotations[u0], after=b, items=(v1, v0)),
            u1: _insert_after(self.rotations[u1], after=a, items=(v0, v1)),
            v0: _insert_after(self.rotations[v0], after=d, items=(u1, u0)),
            v1: _insert_after(self.rotations[v1], after=c, items=(u0, u1)),
        }
        created = ((u0, a, u1, v0), (u0, v1, u1, b), (v0, c, v1, u0), (v0, u1, v1, d))
        return self._splice(rotations, (face_u, face_v), created)

    def _require_witnesses(self, *claims: tuple[int, Quad]) -> None:
        """Raise BuildError unless each face is in the witness table of its
        spine vertex: only a face of the build, in canonical rotation and
        holding that vertex's copies as opposite corners, can be consumed."""
        for w, face in claims:
            if face not in self.witnesses.get(w, ()):
                raise BuildError(f"{face} is not a witness face of spine vertex {w}")

    def _splice(
        self,
        rotations: dict[int, tuple[int, ...]],
        consumed: tuple[Quad, ...],
        created: tuple[Quad, ...],
    ) -> bool:
        """Install the new rotations, which replace the consumed faces by the
        created ones; return whether the step committed.

        Returns False, writing nothing, if some spine vertex would be left
        without a witness face.  Only a vertex that loses a face can: a tree
        step's quad (u0, v0, u1, v1) witnesses the new leaf, and a chord
        joins two vertices already in the build.
        """
        created = tuple(_rotate_to_min(face) for face in created)
        lost = [w for face in consumed for w in _witnessed(face)]
        gained = [w for face in created for w in _witnessed(face)]
        witnesses = self.witnesses
        for w in set(lost):
            if len(witnesses[w]) - lost.count(w) + gained.count(w) == 0:
                return False
        self.rotations.update(rotations)
        for face in consumed:
            for w in _witnessed(face):
                witnesses[w].remove(face)
        for face in created:
            for w in _witnessed(face):
                insort(witnesses.setdefault(w, []), face)
        return True


# ============================================================
# Driver
# ============================================================


@dataclass(frozen=True)
class BuildReport:
    """A finished build: the verified embedding plus search statistics."""

    embedding: RotationSystem
    spine: Graph
    order: int
    genus: int
    face_count: int
    backtracks: int

    @property
    def minimal(self) -> bool | None:
        """Whether the order is the minimum for the genus, as min_order
        decides it: None where min_order only brackets the order."""
        return min_order(self.genus).minimal(self.order)


def build_spinal_report(graph: Graph) -> BuildReport:
    """Build and verify a spinal quadrangulation of the given connected
    spine, returning the embedding together with search statistics.

    Steps follow the breadth-first plan; each takes the smallest witness
    face (or pair) that keeps every vertex witnessed, and every refused
    choice along the way counts as one backtrack.
    """
    if graph.vertex_count < 2:
        raise ValueError("spine needs at least 2 vertices")
    # too few edges to connect: say so before the search allocates per vertex
    if graph.edge_count < graph.vertex_count - 1:
        raise ValueError("spine must be connected")
    tree_steps = _bfs_tree(graph.adjacency())
    if len(tree_steps) != graph.vertex_count - 1:
        raise ValueError("spine must be connected")
    chords = sorted(graph.edges - {(min(u, v), max(u, v)) for u, v in tree_steps})
    build = _Build()
    build.base(*tree_steps[0])
    backtracks = 0
    for u, v in tree_steps[1:] + chords:
        if v in build.witnesses:  # both ends built: a chord
            surgery, choices = build.chord_surgery, product(build.witnesses[u], build.witnesses[v])
        else:
            surgery, choices = build.tree_surgery, product(build.witnesses[u])
        tried = next((i for i, choice in enumerate(choices) if surgery(u, v, *choice)), None)
        if tried is None:
            raise BuildError(f"no witness choice completes spine edge ({u}, {v})")
        backtracks += tried
    system = RotationSystem(tuple(build.rotations[v] for v in range(2 * graph.vertex_count)))
    # 4|E| edges over the spine's |E| edges, at most four per spine edge
    # (one per pair of copies): exactly the interlaced spine
    spine_edges = {(x >> 1, y >> 1) for x, y in system.graph.edges}
    if spine_edges != graph.edges or system.graph.edge_count != 4 * graph.edge_count:
        raise BuildError("surgery did not embed the interlaced spine")
    check = validate_quadrangulation(system)
    if not check.is_quadrangulation:
        raise BuildError(f"surgery broke the quadrangulation: {'; '.join(check.failures[:3])}")
    # a connected spine has one chord per independent cycle; on the interlaced
    # spine (2|V| vertices, 4|E| edges) this is Euler's count of 2|E| faces
    genus = len(chords)
    if check.genus != genus:
        raise BuildError(f"surgery genus {check.genus} does not match spine rank {genus}")
    return BuildReport(
        embedding=system,
        spine=graph,
        order=2 * graph.vertex_count,
        genus=genus,
        face_count=check.face_count,
        backtracks=backtracks,
    )


def build_instance(p: int, m: int) -> BuildReport:
    """Spinal quadrangulation over the spine K_p minus m edges."""
    if p < 2:
        raise ValueError("spine needs at least 2 vertices")
    return build_spinal_report(delete_edges_connected(complete_graph(p), m))


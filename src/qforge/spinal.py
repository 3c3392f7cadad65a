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

What a step computes: one look-up per consumed face in the witness table,
the two corners beside u0 (and v0) in each consumed face, read by index,
the rotations at the four copies rebuilt with two neighbors spliced in,
each created face rotated to its smallest corner, and the spine vertices
each consumed or created face witnesses, once per face.  The orphan check
looks only at a vertex whose one witness face is consumed, since no step
takes two faces of a vertex that has just two (see ``_Build._splice``).
A step therefore costs O(degree) for the splices and O(witness faces) for
the table edits, with no term in the size of the embedding.  Timed by
``scripts/fresh_runs.py spinal``, a whole K_p build, the
final validation included, costs about 37-41 microseconds per step at
p = 12..100 (CPython 3.11 on a 2-CPU shared host).
"""

from __future__ import annotations

from bisect import insort
from itertools import product
from typing import NamedTuple

from .embedding import RotationSystem, _rotate_to_min, validate_quadrangulation
from .formulas import min_order
from .graph import Graph, _bfs_tree, complete_graph, delete_edges_connected

Quad = tuple[int, int, int, int]


class BuildError(RuntimeError):
    """The builder exhausted its witness choices or broke an invariant; a
    spinal quadrangulation always exists, so this indicates a defect."""


def _insert_after(rotation: tuple[int, ...], after: int, items: tuple[int, ...]) -> tuple[int, ...]:
    """Insert items into a cyclic rotation immediately after one entry."""
    i = rotation.index(after) + 1
    return rotation[:i] + items + rotation[i:]


def _witnessed(face: Quad) -> tuple[int, ...]:
    """The spine vertices whose two copies are opposite corners of a quad."""
    a, b, c, d = face
    if a ^ 1 == c:
        return (a >> 1, b >> 1) if b ^ 1 == d else (a >> 1,)
    return (b >> 1,) if b ^ 1 == d else ()


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
        u0, u1, v0, v1 = 2 * u, 2 * u + 1, 2 * v, 2 * v + 1
        rotations = {u0: (v0, v1), u1: (v0, v1), v0: (u0, u1), v1: (u0, u1)}
        self._splice(rotations, (), ((u0, v0, u1, v1), (u0, v1, u1, v0)))

    def tree_surgery(self, u: int, v: int, face: Quad) -> bool:
        """Attach a new leaf v to u inside a witness face of u, split into three quads."""
        self._require_witnesses((u, face))
        u0, u1, v0, v1 = 2 * u, 2 * u + 1, 2 * v, 2 * v + 1
        # the face is (u0, x, u1, y) read from u0
        i = face.index(u0)
        x, y = face[i - 3], face[i - 1]
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
        u0, u1, v0, v1 = 2 * u, 2 * u + 1, 2 * v, 2 * v + 1
        # the faces are (u0, a, u1, b) read from u0 and (v0, c, v1, d) from v0
        i = face_u.index(u0)
        a, b = face_u[i - 3], face_u[i - 1]
        i = face_v.index(v0)
        c, d = face_v[i - 3], face_v[i - 1]
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
        without a witness face: a consumed face is its only one and no
        created face witnesses it.  Only a vertex that loses a face can be
        orphaned, since a tree step's quad (u0, v0, u1, v1) witnesses the
        new leaf.

        The test misses no orphan, because no step takes two faces of a
        vertex that has only two.  A face with four distinct corners
        witnesses a vertex at most once.  Only ``base`` and that tree quad
        make faces that witness two vertices, the ends of their spine edge;
        every other created face witnesses one.  A tree step consumes one
        face, so only a chord (u, v) can take two faces of a vertex w, and
        then they are two-vertex faces {u, w} and {v, w}; w is neither u nor
        v, since the edge uv is not built yet.  Count w's faces: it starts
        with s = 1, or s = 2 from ``base``; a tree step from w adds a net
        two and a chord at w one, and only a step at the other end of a
        two-vertex face of w takes a face of w without replacing it.  With
        each spine edge added once, w has had s + T two-vertex faces after
        T tree steps from it, and with two of them left at most s + T - 2
        are gone, so w keeps at least s + 2T - (s + T - 2) = T + 2 faces.
        One of u and v is a tree child of w, so T >= 1 and w has three.
        """
        lost = [(face, _witnessed(face)) for face in consumed]
        gained = [(face, _witnessed(face)) for face in map(_rotate_to_min, created)]
        witnesses = self.witnesses
        kept = {w for _, ws in gained for w in ws}
        if any(len(witnesses[w]) == 1 and w not in kept for _, ws in lost for w in ws):
            return False
        self.rotations.update(rotations)
        for face, ws in lost:
            for w in ws:
                witnesses[w].remove(face)
        for face, ws in gained:
            for w in ws:
                insort(witnesses.setdefault(w, []), face)
        return True


# ============================================================
# Driver
# ============================================================


class BuildReport(NamedTuple):
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


"""Spinal quadrangulations: one closed-form rotation system per spine.

Given a connected spine graph G, the builder embeds the interlaced graph
(two copies 2s and 2s + 1 of every spine vertex s, four edges per spine
edge) as a quadrangulation of the surface whose genus is the cycle rank of
G.  Let N(s) be the ascending neighbour list of s.  The rotation at 2s is
(2t + 1, 2t) for t in N(s), and the rotation at 2s + 1 is (2t, 2t + 1) for
t in N(s) reversed.

Why it is a quadrangulation.  The face-tracing successor of a dart (u, v)
is (v, w), where w follows u in the rotation at v.  Take t' after t in
N(s), cyclically.  Then the walk 2s -> 2t' + 1 -> 2s + 1 -> 2t -> 2s
closes: 2s + 1 follows 2s at 2t' + 1, 2t follows 2t' + 1 at 2s + 1, 2s
follows 2s + 1 at 2t, and 2t' + 1 follows 2t at 2s.  So each dart (s, t)
of the spine gives the face (2s, 2t' + 1, 2s + 1, 2t).  Its four corners
are distinct even when deg s = 1 (t = t'), since 2t' + 1 is odd and 2t
even.  The face of (s, t) holds one dart of each parity pattern (even to
odd, odd to odd, odd to even, even to even), and each such dart names its
face back: (2s, 2t' + 1) is in the face of (s, t) with t before t' in
N(s), (2a + 1, 2b + 1) in the face of (b, t) with a after t in N(b),
(2s + 1, 2t) in the face of (s, t), and (2t, 2s) in the face of (s, t).
So these 2|E| quads cover all 8|E| darts once each, and they are all the
faces.  Euler's formula on 2|V| vertices, 4|E| edges and 2|E| faces then
gives genus |E| - |V| + 1.

Every spine edge xy is a handle: the rotations hold (y1, y0) at x0,
(y0, y1) at x1, (x1, x0) at y0 and (x0, x1) at y1, where x0 = 2x and
x1 = 2x + 1, and deleting those four entries gives the build of G - xy.

The finished embedding is still validated once in full, and that
validation, with the genus check against the spine's cycle rank, is the
machine-checked form of the proof above.
"""

from __future__ import annotations

from typing import NamedTuple

from .embedding import RotationSystem, validate_quadrangulation
from .formulas import min_order
from .graph import Graph, _connected, complete_graph, delete_edges_connected


class BuildError(RuntimeError):
    """The rotations failed the final validation; the construction always
    quadrangulates a connected spine, so this indicates a defect."""


class BuildReport(NamedTuple):
    """A finished build: the verified embedding and its counts.
    ``backtracks`` is always 0, since the construction makes no choice to
    retry; it stays because ``qforge build`` prints it."""

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
    """Build and verify the spinal quadrangulation of the given connected
    spine (see the module docstring), returning the embedding together with
    its counts."""
    if graph.vertex_count < 2:
        raise ValueError("spine needs at least 2 vertices")
    # too few edges to connect: say so before anything is allocated per vertex
    if graph.edge_count < graph.vertex_count - 1:
        raise ValueError("spine must be connected")
    adjacency = graph.adjacency()
    if not _connected(adjacency):
        raise ValueError("spine must be connected")
    rotations: list[tuple[int, ...]] = []
    for near in adjacency:
        rotations.append(tuple(x for t in near for x in (2 * t + 1, 2 * t)))
        rotations.append(tuple(x for t in reversed(near) for x in (2 * t, 2 * t + 1)))
    system = RotationSystem(rotations)
    # 4|E| edges over the spine's |E| edges, at most four per spine edge
    # (one per pair of copies): exactly the interlaced spine
    spine_edges = {(x >> 1, y >> 1) for x, y in system.graph.edges}
    if spine_edges != graph.edges or system.graph.edge_count != 4 * graph.edge_count:
        raise BuildError("the rotations do not embed the interlaced spine")
    check = validate_quadrangulation(system)
    if not check.is_quadrangulation:
        raise BuildError(f"the rotations are no quadrangulation: {'; '.join(check.failures[:3])}")
    # the cycle rank, read directly: betti would search the spine again
    genus = graph.edge_count - graph.vertex_count + 1
    # catches a tracer defect: Euler gives this genus only if _trace partitions the darts
    if check.genus != genus:
        raise BuildError(f"embedding genus {check.genus} does not match spine rank {genus}")
    return BuildReport(
        embedding=system,
        spine=graph,
        order=2 * graph.vertex_count,
        genus=genus,
        face_count=check.face_count,
        backtracks=0,
    )


def build_instance(p: int, m: int) -> BuildReport:
    """Spinal quadrangulation over the spine K_p minus m edges."""
    if p < 2:
        raise ValueError("spine needs at least 2 vertices")
    return build_spinal_report(delete_edges_connected(complete_graph(p), m))

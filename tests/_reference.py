"""Independent references the tests check the library against.

Each restates a fact the package computes another way: the octahedral graph
that interlace(complete_graph(p)) must equal, the closed forms of the
bounds whose meeting formulas._classify decides, the spine inequality that
min_order's minimality rule reduces to, the corner options the oracle's
face assembler reads from its maintained tables, the ring test the
oracle's candidate enumerator runs row by row, the rotation of a cycle
to its smallest element that the embedding canonicalises with, and the
faces of a rotation system walked dart by dart, which the library's
tracer finds through a table of integer dart ids.  They are kept here, not
in the package, so an assertion against them compares two derivations.
"""

from __future__ import annotations

from math import isqrt
from typing import Sequence

from qforge.embedding import RotationSystem
from qforge.formulas import min_spine_size
from qforge.graph import Graph


def octahedral_graph(p: int) -> Graph:
    """The complete graph on 2p vertices minus the perfect matching that
    pairs vertex 2k with 2k+1; this is also the interlacement of K_p."""
    if p < 2:
        raise ValueError("octahedral graph needs p >= 2")
    edges = set()
    for i in range(2 * p):
        for j in range(i + 1, 2 * p):
            if j == i + 1 and i % 2 == 0:
                continue
            edges.add((i, j))
    return Graph(2 * p, frozenset(edges))


def rotate_to_min(cycle: Sequence[int]) -> tuple[int, ...]:
    """A cyclic sequence rotated to start at its smallest element, the
    pivot found as the index whose entry is smallest."""
    pivot = min(range(len(cycle)), key=cycle.__getitem__)
    return tuple(cycle[pivot:]) + tuple(cycle[:pivot])


def half_order_cap(genus: int) -> int:
    """Largest q with (4q-7)^2 <= 32*genus-15.

    This is the biggest half-order an even-order quadrangulation of genus g
    can have while the vertex-count lower bound still reaches it; when it
    meets min_spine_size, the minimum order is pinned exactly.
    """
    if genus < 1:
        raise ValueError("genus must be at least 1")
    return (isqrt(32 * genus - 15) + 7) // 4


def bounds_agree(genus: int) -> bool:
    """True when the spinal upper bound meets the vertex-count lower bound,
    pinning the minimum order at genus g; defined for genus >= 3."""
    if genus < 3:
        raise ValueError("bounds_agree applies to genus >= 3 only")
    return min_spine_size(genus) == half_order_cap(genus)


def complete_spine_order(genus: int) -> tuple[int, int] | None:
    """If g equals the cycle rank of a complete graph K_p with p >= 4,
    return (2p, p): that spinal quadrangulation is minimal.  Else None."""
    if genus < 1:
        raise ValueError("genus must be at least 1")
    s = isqrt(8 * genus + 1)
    if s * s != 8 * genus + 1:
        return None
    p = (3 + s) // 2
    if p < 4:
        return None
    return (2 * p, p)


def spine_inequality(p: int, m: int) -> bool:
    """The closed form of min_order's "yes" for the spine K_p minus m edges:
    order 2p is the minimum at genus C(p-1, 2) - m >= 1 exactly when
    p >= 4(m+1).  For g = C(p-1, 2) - m the lower bound is 2p exactly when
    (4p-7)^2 < 32g-7, which reduces to 8p > 24 + 32m."""
    return p >= 4 * (m + 1) and (p - 1) * (p - 2) // 2 - m >= 1


def rotation_options(neighbours: int, successor: dict[int, int]) -> dict[int, int]:
    """For each neighbour u of a vertex, the mask of the neighbours w that
    "w follows u" may still take in the vertex's rotation, given its
    neighbour mask and its partial rotation as a successor map.

    A set successor is the only option.  Otherwise w must have no
    predecessor yet, must not be u, and must not be the head of the partial
    path that ends at u, found by walking predecessors back from u: closing
    that path would make a rotation cycle that misses a neighbour.  When that
    path is the only one left, closing it completes the rotation, so the
    head is allowed.
    """
    near = [u for u in range(neighbours.bit_length()) if neighbours >> u & 1]
    predecessor = {w: u for u, w in successor.items()}
    free = [w for w in near if w not in predecessor]
    options = {}
    for u in near:
        if u in successor:
            options[u] = 1 << successor[u]
            continue
        head = u
        while head in predecessor:
            head = predecessor[head]
        options[u] = sum(1 << w for w in free if w != u and (w != head or len(free) == 1))
    return options


def anchor_ring_linked(nmask: Sequence[int]) -> bool:
    """The ring test on a whole graph given by its neighbour masks (bit w of
    entry v is the edge vw): False proves that the oracle's face assembler
    answers None on this labelling.

    The assembler fixes the rotation at its anchor, the last vertex of
    largest degree, to the anchor's neighbours in ascending order,
    u_0 < ... < u_{d-1}.  Each corner (u_i, anchor, u_{i+1}), indices
    cyclic, then lies on a quad face with a fourth vertex adjacent to both
    u_i and u_{i+1} other than the anchor.  The graph with no vertex has no
    anchor and passes.
    """
    n = len(nmask)
    if not n:
        return True
    anchor = max(reversed(range(n)), key=lambda v: nmask[v].bit_count())
    ring = [u for u in range(n) if nmask[anchor] >> u & 1]
    return all(
        any(x != anchor and nmask[u] >> x & nmask[w] >> x & 1 for x in range(n))
        for u, w in zip(ring, ring[1:] + ring[:1])
    )


def rotation_fault(rotations: Sequence[Sequence[int]]) -> str | None:
    """The message RotationSystem raises for a rotation list, or None when
    it accepts the list, found dart by dart.

    Each vertex's darts are walked in listing order and their faults noted;
    the first vertex with a fault reports an out-of-range id before a
    repeated one and a repeated one before the vertex itself.  Only then
    are all darts walked again for one that is not listed back, the list is
    tested for an edge, and a depth-first search from vertex 0 must reach
    every vertex.
    """
    n = len(rotations)
    for v, rotation in enumerate(rotations):
        out_of_range = repeated = itself = False
        earlier: list[int] = []
        for u in rotation:
            out_of_range |= not 0 <= u < n
            repeated |= u in earlier
            itself |= u == v
            earlier.append(u)
        if out_of_range:
            return f"rotation at vertex {v} mentions an out-of-range vertex"
        if repeated:
            return f"rotation at vertex {v} repeats a neighbor"
        if itself:
            return f"rotation at vertex {v} lists the vertex itself"
    for v, rotation in enumerate(rotations):
        for u in rotation:
            if v not in rotations[u]:
                return f"rotation asymmetry: {u} listed at {v} but not {v} at {u}"
    if not any(rotations):
        return "rotation system needs a graph with at least one edge"
    reached = {0}
    stack = [0]
    while stack:
        for u in rotations[stack.pop()]:
            if u not in reached:
                reached.add(u)
                stack.append(u)
    if len(reached) != n:
        return "rotation system needs a connected graph"
    return None


def trace_faces(system: RotationSystem) -> list[tuple[int, ...]]:
    """Partition all 2|E| darts into face boundary walks, each given as the
    tuple of its corners in walk order; face c has the darts (c[i], c[i + 1]),
    read cyclically.

    Each orbit of the successor map is reported exactly once, started at its
    lexicographically smallest dart, and orbits are listed in ascending order
    of their starting dart, so identical inputs give identical output.  A
    quad with four distinct corners therefore starts at its smallest corner.
    """
    successor = [
        {u: rotation[(i + 1) % len(rotation)] for i, u in enumerate(rotation)}
        for rotation in system.rotations
    ]
    darts = sorted((u, v) for i, j in system.graph.edges for u, v in ((i, j), (j, i)))
    seen = set()
    faces = []
    for start in darts:
        if start in seen:
            continue
        corners = []
        dart = start
        while True:
            seen.add(dart)
            tail, head = dart
            corners.append(tail)
            dart = (head, successor[head][tail])
            if dart == start:
                break
        faces.append(tuple(corners))
    return faces

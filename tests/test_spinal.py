from __future__ import annotations

import hashlib
import random

import pytest

from qforge import spinal
from qforge.embedding import (
    RotationSystem,
    embedding_to_document,
    validate_quadrangulation,
)
from qforge.graph import (
    Graph,
    betti,
    canonical_json,
    complete_graph,
    interlace,
    is_connected,
    make_graph,
)
from qforge.spinal import (
    BuildError,
    build_instance,
    build_spinal_report,
)

from _reference import octahedral_graph, rotate_to_min, trace_faces


def _random_connected(rng, max_vertices=10, max_edges=20):
    n = rng.randint(2, max_vertices)
    edges = set()
    for v in range(1, n):
        edges.add((rng.randrange(v), v))
    pool = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in edges]
    rng.shuffle(pool)
    budget = max(0, rng.randint(n - 1, max_edges) - len(edges))
    edges.update(pool[:budget])
    return make_graph(n, edges)


def _relabeled_spine(rng, max_vertices=12, max_chords=24):
    """A random spanning tree on shuffled vertex ids plus random chords."""
    n = rng.randint(2, max_vertices)
    label = rng.sample(range(n), n)
    tree = [(label[rng.randrange(v)], label[v]) for v in range(1, n)]
    present = {(min(e), max(e)) for e in tree}
    others = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in present]
    chords = rng.sample(others, rng.randint(0, min(len(others), max_chords)))
    return make_graph(n, [(v, u) for u, v in tree] + chords)


def _document_bytes(report):
    """The embedding document `qforge build` writes for a report."""
    doc = embedding_to_document(report.embedding, declared_genus=report.genus)
    return canonical_json(doc).encode("utf-8")


# ============================================================
# Driver
# ============================================================


def test_build_single_edge_spine():
    report = build_spinal_report(make_graph(2, [(0, 1)]))
    assert (report.order, report.genus, report.face_count) == (4, 0, 2)
    assert report.embedding.graph == octahedral_graph(2)
    assert report.backtracks == 0
    assert report.minimal is True  # the sphere's minimum order is 4


def test_build_triangle_driver_rotations():
    system = build_spinal_report(complete_graph(3)).embedding
    assert system.rotations == (
        (2, 5, 4, 3),
        (2, 3, 4, 5),
        (0, 5, 4, 1),
        (0, 1, 4, 5),
        (0, 3, 2, 1),
        (0, 1, 2, 3),
    )
    assert system.graph == octahedral_graph(3)


def test_build_k4_driver_rotations():
    system = build_spinal_report(complete_graph(4)).embedding
    assert system.rotations == (
        (2, 5, 4, 7, 6, 3),
        (2, 3, 6, 7, 4, 5),
        (0, 5, 4, 7, 6, 1),
        (0, 1, 6, 7, 4, 5),
        (0, 3, 2, 7, 6, 1),
        (0, 1, 6, 7, 2, 3),
        (0, 3, 2, 5, 4, 1),
        (0, 1, 4, 5, 2, 3),
    )
    report = validate_quadrangulation(system)
    assert report.is_quadrangulation
    assert (report.genus, report.face_count) == (3, 12)


def test_build_is_deterministic():
    graph = make_graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (1, 4)])
    first = build_spinal_report(graph)
    second = build_spinal_report(graph)
    assert first == second
    assert hash(first) == hash(second)
    with pytest.raises(AttributeError):
        first.genus = 0


def test_complete_spines_small():
    for p in range(2, 7):
        report = build_spinal_report(complete_graph(p))
        assert report.order == 2 * p
        assert report.genus == (p - 1) * (p - 2) // 2
        assert report.face_count == p * (p - 1)
        assert report.embedding.graph == interlace(complete_graph(p))
        check = validate_quadrangulation(report.embedding)
        assert check.is_quadrangulation
        assert check.genus == report.genus


def test_build_rejects_bad_spines():
    with pytest.raises(ValueError):
        build_spinal_report(make_graph(1, []))
    with pytest.raises(ValueError):
        build_spinal_report(make_graph(4, [(0, 1), (2, 3)]))
    # too few edges to connect 10**12 vertices: refused before any per-vertex work
    with pytest.raises(ValueError, match="spine must be connected"):
        build_spinal_report(Graph(10**12, frozenset({(0, 1)})))
    # enough edges to connect, but K_4 plus an isolated vertex is not connected
    with pytest.raises(ValueError, match="spine must be connected"):
        build_spinal_report(make_graph(5, [(i, j) for i in range(4) for j in range(i + 1, 4)]))


def test_build_instance_certificates():
    report = build_instance(12, 2)
    assert (report.order, report.genus, report.face_count) == (24, 53, 128)
    assert report.minimal is True
    assert report.backtracks == 0

    small = build_instance(4, 0)
    assert (small.order, small.genus, small.face_count) == (8, 3, 12)
    assert small.minimal is True

    uncertified = build_instance(7, 1)
    assert (uncertified.order, uncertified.genus) == (14, 14)
    assert uncertified.minimal is None  # min_order(14) is [13, 14]

    with pytest.raises(ValueError):
        build_instance(1, 0)
    with pytest.raises(ValueError):
        build_instance(4, 4)  # only 3 deletable edges before rank 0


def test_build_for_genus():
    # genus g at order 2p is the spine K_p minus rank - g edges; K_5 has rank 6
    report = build_instance(5, 1)
    assert (report.order, report.genus, report.face_count) == (10, 5, 18)
    assert validate_quadrangulation(report.embedding).genus == 5

    exact = build_instance(5, 0)
    assert (exact.order, exact.genus) == (10, 6)
    assert exact.minimal is True


def test_random_spines_build_and_verify():
    rng = random.Random(97)
    for _ in range(30):
        spine = _random_connected(rng)
        report = build_spinal_report(spine)
        assert report.order == 2 * spine.vertex_count
        assert report.genus == betti(spine)
        assert report.face_count == 2 * spine.edge_count
        check = validate_quadrangulation(report.embedding)
        assert check.is_quadrangulation
        assert check.genus == report.genus


def test_driver_raises_build_error_when_the_final_check_fails(monkeypatch):
    # the construction never fails its final check, so each of the three
    # defect guards is reached by corrupting what the driver reads
    assert issubclass(BuildError, RuntimeError)
    path = make_graph(3, [(0, 1), (1, 2)])
    triangle = build_spinal_report(complete_graph(3)).embedding
    validate = spinal.validate_quadrangulation
    with monkeypatch.context() as patch:
        patch.setattr(spinal, "RotationSystem", lambda rotations: triangle)
        with pytest.raises(BuildError, match="do not embed the interlaced spine"):
            build_spinal_report(path)
    with monkeypatch.context() as patch:
        patch.setattr(
            spinal,
            "validate_quadrangulation",
            lambda system: validate(system)._replace(is_quadrangulation=False, failures=("face 0",)),
        )
        with pytest.raises(BuildError, match="no quadrangulation: face 0$"):
            build_spinal_report(path)
    with monkeypatch.context() as patch:
        patch.setattr(
            spinal, "validate_quadrangulation", lambda system: validate(system)._replace(genus=1)
        )
        with pytest.raises(BuildError, match="embedding genus 1 does not match spine rank 0"):
            build_spinal_report(path)
    assert build_spinal_report(path).backtracks == 0


# ============================================================
# The closed form
# ============================================================


def _formula_faces(spine):
    """The faces the module docstring derives: (2s, 2t' + 1, 2s + 1, 2t)
    for each spine dart (s, t), t' after t in the ascending neighbours of s,
    each started at its smallest corner and listed in ascending order."""
    faces = []
    for s, near in enumerate(spine.adjacency()):
        for t, after in zip(near, near[1:] + near[:1]):
            faces.append(rotate_to_min((2 * s, 2 * after + 1, 2 * s + 1, 2 * t)))
    return sorted(faces)


def test_traced_faces_follow_the_formula():
    rng = random.Random(31)
    spines = [_random_connected(rng, max_vertices=12, max_edges=40) for _ in range(60)]
    spines += [_relabeled_spine(rng) for _ in range(60)]
    spines += [complete_graph(p) for p in range(2, 9)]
    for spine in spines:
        report = build_spinal_report(spine)
        assert trace_faces(report.embedding) == _formula_faces(spine)
        assert report.face_count == 2 * spine.edge_count


def _without_handle(rotations, x, y):
    """The rotations with spine edge xy's handle removed, after checking
    that they hold (y1, y0) at x0, (y0, y1) at x1, (x1, x0) at y0 and
    (x0, x1) at y1, each pair adjacent in that cyclic order."""
    x0, x1, y0, y1 = 2 * x, 2 * x + 1, 2 * y, 2 * y + 1
    pairs = {x0: (y1, y0), x1: (y0, y1), y0: (x1, x0), y1: (x0, x1)}
    for v, (first, second) in pairs.items():
        rotation = rotations[v]
        assert rotation[(rotation.index(first) + 1) % len(rotation)] == second
    return [
        tuple(u for u in rotation if u not in pairs.get(v, ()))
        for v, rotation in enumerate(rotations)
    ]


def test_every_non_bridge_spine_edge_is_a_handle():
    rng = random.Random(7)
    spines = [complete_graph(p) for p in range(3, 11)]
    spines += [_random_connected(rng, max_vertices=9, max_edges=18) for _ in range(40)]
    checked = 0
    for spine in spines:
        built = build_spinal_report(spine).embedding
        for x, y in sorted(spine.edges):
            smaller = Graph(spine.vertex_count, spine.edges - {(x, y)})
            if is_connected(smaller):
                removed = RotationSystem(_without_handle(built.rotations, x, y))
                assert removed == build_spinal_report(smaller).embedding
                checked += 1
    # all 164 edges of K_3..K_10, and 290 of the random spines' edges
    assert checked == 164 + 290


# ============================================================
# Golden outputs
# ============================================================

# SHA-256 of the canonical embedding document that `qforge build` writes
# (declared genus included) and the backtrack count, pinned from the
# closed-form builder (the rotation at 2s is (2t + 1, 2t) for t in N(s), at
# 2s + 1 the same pairs swapped, in reverse order) when it replaced the
# incremental surgery builder.  Only K_2's document is unchanged.  The
# builder must reproduce them exactly.
GOLDEN_COMPLETE = {
    (2, 0): ("f062c9c9b641bce803027eadb0b9e74f1402bad1e2928f0ea443c15c5e608628", 0),
    (3, 0): ("18d22f450fde39648de844f561a4b6b1c2954c5a591a6d734df5d4eca21d8324", 0),
    (4, 0): ("9d2211a255d5df1f600a0b132b127cb6b61158b54000635ca637cc42e3ec733a", 0),
    (5, 0): ("f84be2957c6c4a0e1fbe1e7120e6d89bf52a503639eeb2714493985743c7abd1", 0),
    (6, 0): ("62ec572f0e4aab856480e2a33285033093878f3292202ce1e658c5616f5da6b2", 0),
    (7, 0): ("9226fa0f4b14652a3995be29a292909edcc249a45440b865e21f4096b3c9faf9", 0),
    (8, 0): ("9b5a7d1bf5ba8e20b504db15c8c824d3c48fbfb93afdfff235c09f89717c1e2f", 0),
    (9, 0): ("ea8003ead71567cba2b8f2a5252c6d38a913977185e9042fa53a4b5a3da76ed1", 0),
    (10, 0): ("b36cff574bae0396ab1096c77253f793616795de0e24fe7fb7ce78cc3e513061", 0),
    (11, 0): ("1113f4a3a770213efcff32b371639fb30812f460d05e552cef07b5922cf9d45f", 0),
    (12, 0): ("b0582b4e0e9ad20f477f282f9f8e20434efd511e7ed671433d363f4b39fa53d0", 0),
    (12, 1): ("66acc7ba1f578ed96ec6e17de0215aa3fdb3b26b54dd843f62d25d180518451b", 0),
    (12, 2): ("fcdf5b74d24025f6ecae10e2b33cc907d6cb1c2e44ae3d2a61d50f3cfadab190", 0),
}

# One digest over the documents of 40 relabeled random spines (seed 10)
# in build order, and their backtrack counts.
GOLDEN_RANDOM_DIGEST = "6f0752b3f12982b9305da45ea7bdc5c90f78bce305c4c0aa93aaa28d4f041ac7"
GOLDEN_RANDOM_BACKTRACKS = [0] * 40


@pytest.mark.parametrize("p, m", sorted(GOLDEN_COMPLETE))
def test_golden_complete_spines(p, m):
    report = build_instance(p, m)
    digest = hashlib.sha256(_document_bytes(report)).hexdigest()
    assert (digest, report.backtracks) == GOLDEN_COMPLETE[p, m]


def test_golden_random_spines():
    rng = random.Random(10)
    digest = hashlib.sha256()
    backtracks = []
    for _ in range(40):
        report = build_spinal_report(_relabeled_spine(rng))
        digest.update(_document_bytes(report))
        backtracks.append(report.backtracks)
    assert backtracks == GOLDEN_RANDOM_BACKTRACKS
    assert digest.hexdigest() == GOLDEN_RANDOM_DIGEST

from __future__ import annotations

import hashlib
import random
from itertools import product

import pytest

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
    make_graph,
)
from qforge.spinal import (
    BuildError,
    build_instance,
    build_spinal_report,
    _Build,
)

from _reference import octahedral_graph, trace_faces


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


def _relabeled_spine_steps(rng, max_vertices=12, max_chords=24):
    """A random spanning tree on shuffled vertex ids, as (parent, child)
    steps in growth order, plus random chords."""
    n = rng.randint(2, max_vertices)
    label = rng.sample(range(n), n)
    tree = [(label[rng.randrange(v)], label[v]) for v in range(1, n)]
    present = {(min(e), max(e)) for e in tree}
    others = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in present]
    return n, tree, rng.sample(others, rng.randint(0, min(len(others), max_chords)))


def _relabeled_spine(rng):
    n, tree, chords = _relabeled_spine_steps(rng)
    return make_graph(n, [(v, u) for u, v in tree] + chords)


def _document_bytes(report):
    """The embedding document `qforge build` writes for a report."""
    doc = embedding_to_document(report.embedding, declared_genus=report.genus)
    return canonical_json(doc).encode("utf-8")


def _base(u, v):
    build = _Build()
    build.base(u, v)
    return build


def _grow(build, u, v):
    """Add spine edge (u, v) the way the driver does: the first witness
    face of u (or pair, for a chord) whose step commits."""
    if v in build.witnesses:
        choices = product(build.witnesses[u], build.witnesses[v])
        assert any(build.chord_surgery(u, v, *choice) for choice in choices)
    else:
        assert any(build.tree_surgery(u, v, face) for face in tuple(build.witnesses[u]))
    return build


def _spine_edges(build):
    """The spine edges of a build, read off its rotations."""
    return {
        (min(x >> 1, y >> 1), max(x >> 1, y >> 1))
        for x, rotation in build.rotations.items()
        for y in rotation
    }


def _embedding(build):
    """The embedding of a build whose spine ids run from 0."""
    n = len(build.witnesses)
    system = RotationSystem(tuple(build.rotations[v] for v in range(2 * n)))
    assert system.graph == interlace(Graph(n, frozenset(_spine_edges(build))))
    return system


def _witness_table(build):
    """The witness table of a build, in ascending order."""
    return {w: tuple(fs) for w, fs in build.witnesses.items()}


def _snapshot(build):
    """Everything a build holds: its rotations and its witness table."""
    return dict(build.rotations), {w: list(fs) for w, fs in build.witnesses.items()}


def _retraced(build):
    """Faces and witness table of a build, traced afresh from its rotations
    (embedding vertices compacted to 0..k-1 for tracing, then mapped back)."""
    ids = sorted(build.rotations)
    index = {v: k for k, v in enumerate(ids)}
    system = RotationSystem(tuple(tuple(index[u] for u in build.rotations[v]) for v in ids))
    report = validate_quadrangulation(system)
    assert report.is_quadrangulation, report.failures
    assert report.genus == len(_spine_edges(build)) - len(build.witnesses) + 1
    faces = []
    for walk in trace_faces(system):
        corners = [ids[k] for k in walk]
        pivot = corners.index(min(corners))
        faces.append(tuple(corners[pivot:] + corners[:pivot]))
    faces.sort()
    witnesses = {
        w: tuple(f for f in faces if {2 * w, 2 * w + 1} in ({f[0], f[2]}, {f[1], f[3]}))
        for w in build.witnesses
    }
    return tuple(faces), witnesses


# ============================================================
# Single surgery steps
# ============================================================


def test_init_base():
    build = _base(0, 1)
    assert set(build.witnesses) == {0, 1}
    assert _spine_edges(build) == {(0, 1)}
    tables = (
        ((0, 2, 1, 3), (0, 3, 1, 2)),
        {0: ((0, 2, 1, 3), (0, 3, 1, 2)), 1: ((0, 2, 1, 3), (0, 3, 1, 2))},
    )
    assert _retraced(build) == tables
    assert _witness_table(build) == tables[1]
    system = _embedding(build)
    assert system.graph == octahedral_graph(2)
    assert validate_quadrangulation(system).is_quadrangulation


def test_tree_add_grows_a_leaf():
    build = _grow(_base(0, 1), 1, 2)
    assert set(build.witnesses) == {0, 1, 2}
    assert _spine_edges(build) == {(0, 1), (1, 2)}
    assert len(trace_faces(_embedding(build))) == 4
    for w in (0, 1, 2):
        assert build.witnesses[w]
    report = validate_quadrangulation(_embedding(build))
    assert report.is_quadrangulation
    assert (report.vertex_count, report.edge_count, report.face_count) == (6, 8, 4)
    assert report.genus == 0


def test_chord_add_raises_genus():
    build = _grow(_grow(_base(0, 1), 1, 2), 0, 2)
    assert _spine_edges(build) == {(0, 1), (0, 2), (1, 2)}
    assert len(trace_faces(_embedding(build))) == 6
    report = validate_quadrangulation(_embedding(build))
    assert report.is_quadrangulation
    assert report.genus == 1
    assert _embedding(build).graph == octahedral_graph(3)


def test_triangle_walkthrough_rotations():
    build = _grow(_grow(_base(0, 1), 1, 2), 0, 2)
    assert _embedding(build).rotations == (
        (2, 5, 4, 3),
        (2, 3, 4, 5),
        (0, 5, 4, 1),
        (0, 1, 4, 5),
        (0, 3, 2, 1),
        (0, 1, 2, 3),
    )


def test_every_witness_pair_fails_loudly_or_verifies():
    # Forcing explicit witness pairs must never yield a half-broken state:
    # each choice is either refused unchanged or passes full validation.
    path = _grow(_base(0, 1), 1, 2)
    outcomes = []
    for face_u, face_v in product(path.witnesses[0], path.witnesses[2]):
        build = _grow(_base(0, 1), 1, 2)
        before = _snapshot(build)
        if not build.chord_surgery(0, 2, face_u, face_v):
            outcomes.append("conflict")
            assert _snapshot(build) == before
            continue
        outcomes.append("ok")
        assert validate_quadrangulation(_embedding(build)).is_quadrangulation
    assert "ok" in outcomes


def test_a_step_on_a_quad_that_is_no_face_is_refused_unchanged():
    # quads holding the copies of spine vertex 1 as opposite corners, on
    # common neighbours of both copies, that are not faces of the build:
    # every such step must raise BuildError and write nothing
    build = _grow(_grow(_base(0, 1), 1, 2), 2, 3)
    u0, u1 = 2, 3
    common = sorted(set(build.rotations[u0]) & set(build.rotations[u1]))
    quads = [(u0, x, u1, y) for x in common for y in common if x != y]
    faces = set(_retraced(build)[0])
    fakes = [q for q in quads if min(q[i:] + q[:i] for i in range(4)) not in faces]
    assert len(fakes) >= 8
    before = _snapshot(build)
    for fake in fakes:
        with pytest.raises(BuildError):
            build.tree_surgery(1, 4, fake)
        assert _snapshot(build) == before
        with pytest.raises(BuildError):
            build.chord_surgery(1, 3, fake, build.witnesses[3][0])
        assert _snapshot(build) == before
        with pytest.raises(BuildError):
            build.chord_surgery(3, 1, build.witnesses[3][0], fake)
        assert _snapshot(build) == before
    # the refused steps left a state that still grows and re-traces exactly
    _grow(build, 1, 4)
    _grow(build, 1, 3)
    assert _witness_table(build) == _retraced(build)[1]


def test_a_witness_face_in_another_rotation_is_refused_unchanged():
    # the same face of the build, rotated off its canonical first corner, is
    # not in the witness table: the step must raise BuildError before it
    # writes a rotation or touches the table
    build = _grow(_grow(_base(0, 1), 1, 2), 2, 3)
    before = _snapshot(build)
    for face in build.witnesses[1]:
        for turn in (1, 2, 3):
            rotated = face[turn:] + face[:turn]
            with pytest.raises(BuildError):
                build.tree_surgery(1, 4, rotated)
            assert _snapshot(build) == before
            with pytest.raises(BuildError):
                build.chord_surgery(3, 1, build.witnesses[3][0], rotated)
            assert _snapshot(build) == before
    _grow(build, 1, 4)
    assert _witness_table(build) == _retraced(build)[1]


def test_a_step_that_takes_the_last_witness_faces_of_a_vertex_is_refused_unchanged():
    # The faces a step creates witness only its two ends, so a step that
    # consumes every witness face of another vertex would orphan it.  No
    # step takes two faces of a vertex that has only two, so the orphan
    # check looks only at vertices whose one face is consumed.  Every such
    # step in small random builds must be refused and write nothing.
    rng = random.Random(1)
    refused = 0
    for _ in range(20):
        _, tree, chords = _relabeled_spine_steps(rng, max_vertices=7, max_chords=8)
        build = _base(*tree[0])
        for u, v in tree[1:] + chords:
            if v in build.witnesses:
                surgery, choices = build.chord_surgery, product(build.witnesses[u], build.witnesses[v])
            else:
                surgery, choices = build.tree_surgery, product(build.witnesses[u])
            for choice in list(choices):
                if any(
                    w not in (u, v) and set(faces) <= set(choice)
                    for w, faces in build.witnesses.items()
                ):
                    before = _snapshot(build)
                    assert surgery(u, v, *choice) is False
                    assert _snapshot(build) == before
                    refused += 1
            _grow(build, u, v)
    assert refused > 0


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
        (2, 3, 5, 4),
        (2, 4, 5, 3),
        (0, 1, 5, 4),
        (0, 4, 5, 1),
        (0, 3, 2, 1),
        (0, 1, 2, 3),
    )
    assert system.graph == octahedral_graph(3)


def test_build_k4_driver_rotations():
    system = build_spinal_report(complete_graph(4)).embedding
    assert system.rotations == (
        (2, 3, 5, 4, 7, 6),
        (2, 6, 7, 4, 5, 3),
        (0, 1, 5, 4, 7, 6),
        (0, 6, 7, 4, 5, 1),
        (0, 7, 6, 3, 2, 1),
        (0, 1, 2, 3, 6, 7),
        (0, 5, 4, 3, 2, 1),
        (0, 1, 2, 3, 4, 5),
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


def test_driver_raises_build_error_when_every_choice_is_refused(monkeypatch):
    # a refused step is a return value inside the module; only the driver
    # turns a spine edge that no witness choice completes into BuildError
    assert issubclass(BuildError, RuntimeError)
    monkeypatch.setattr(_Build, "chord_surgery", lambda self, u, v, face_u, face_v: False)
    with pytest.raises(BuildError, match=r"no witness choice completes spine edge \(1, 2\)$"):
        build_spinal_report(complete_graph(3))
    assert build_spinal_report(make_graph(3, [(0, 1), (1, 2)])).backtracks == 0


def test_public_steps_match_a_full_retrace():
    # Each step names the faces it creates without tracing them; re-trace
    # every intermediate state in full and compare the witness table built
    # from the named faces with the traced one.
    # Random forced witnesses take the build off the default path, and a
    # refused step must leave the state exactly as it found it.
    rng = random.Random(2718)
    conflicts = 0
    for _ in range(25):
        _, tree, chords = _relabeled_spine_steps(rng, max_vertices=9, max_chords=12)
        build = _base(*tree[0])
        faces, witnesses = _retraced(build)
        assert _witness_table(build) == witnesses
        for u, v in tree[1:] + chords:
            before = _snapshot(build)
            if v in build.witnesses:
                forced = (rng.choice(build.witnesses[u]), rng.choice(build.witnesses[v]))
                committed = build.chord_surgery(u, v, *forced)
            else:
                committed = build.tree_surgery(u, v, rng.choice(build.witnesses[u]))
            if not committed:
                conflicts += 1
                assert _snapshot(build) == before
                _grow(build, u, v)
            count = len(faces)
            faces, witnesses = _retraced(build)
            assert _witness_table(build) == witnesses
            assert len(faces) == count + 2
    assert conflicts > 0


# ============================================================
# Golden outputs
# ============================================================

# SHA-256 of the canonical embedding document that `qforge build` writes
# (declared genus included) and the backtrack count, pinned from the
# builder that re-traced and re-validated the whole embedding after every
# step and searched depth-first.  The builder must reproduce them exactly.
GOLDEN_COMPLETE = {
    (2, 0): ("f062c9c9b641bce803027eadb0b9e74f1402bad1e2928f0ea443c15c5e608628", 0),
    (3, 0): ("7302b2668d2821825e1866b179f008acbd5c21e69488a7f001e967d147d33d54", 0),
    (4, 0): ("816678d39379fd77df602c7628055f5c00f193196bf62c7d643afae82bfcf184", 0),
    (5, 0): ("90cb200c8739d525a562184ea4157471f3e3586f489adf39adfbb3ec201193da", 0),
    (6, 0): ("ab720ab23153fc11f045f2b95541a5407c82b6589c366d88683aec40577a2307", 0),
    (7, 0): ("ad3f8997b69a4be7b39a1c8e2e00db7ca7fc9035c1125bf43b867e6cb29604e5", 0),
    (8, 0): ("39a0a07245a3b95c1a21dbb395f5c727426ab3a15874b9be2c400825d78a58b6", 0),
    (9, 0): ("41e0d5818983c7df3d51833fe4368aacece6ae21b8167f14ef2fe0e2eda3e808", 0),
    (10, 0): ("a4651c79ba060b0d71f0c1a20daf40536d6ea3f074a34133caf1a7b87acc7b50", 0),
    (11, 0): ("542da3795284b7d7aa49bad7dc7118a85fa312f1cf38c0c0e47580bf5fa6981f", 0),
    (12, 0): ("c244eb7eca7d75abf94e536a707b09438002b2b8db548c7f78d2e2d6952e24e1", 0),
    (12, 1): ("192825214f37571990a570d59b3f3342dbd7b603f6e6756642a06dcf247d6f79", 0),
    (12, 2): ("405038bf709269e7f900711d575b64e0e546e471bb9779f66bf02d44b6ef2151", 0),
}

# One digest over the documents of 40 relabeled random spines (seed 10)
# in build order, and their backtrack counts; three of them need retries.
GOLDEN_RANDOM_DIGEST = "a03243a3f44cebb2eedd594d4866d80d0f5fccb10506bc07c85136e63a87b3e5"
GOLDEN_RANDOM_BACKTRACKS = [0] * 15 + [11] + [0] * 10 + [1] + [0] * 4 + [1] + [0] * 8


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

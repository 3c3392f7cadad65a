from __future__ import annotations

import json
import random
import tracemalloc

import pytest

from qforge.embedding import (
    EMBEDDING_FORMAT,
    Dart,
    EmbeddingReport,
    FaceWalk,
    GenusMismatchError,
    RotationSystem,
    _trace,
    embedding_from_document,
    embedding_to_document,
    euler_genus,
    load_embedding,
    save_embedding,
    trace_faces,
    validate_quadrangulation,
)
from qforge.graph import FormatError, Graph, complete_graph, make_graph
from qforge.spinal import build_spinal

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # the property test is skipped without hypothesis
    st = None


def _system(n, edges, rotations):
    return RotationSystem(make_graph(n, edges), tuple(tuple(r) for r in rotations))


def _shuffled_system(graph: Graph, rng: random.Random) -> RotationSystem:
    rotations = []
    for neighbors in graph.adjacency():
        row = list(neighbors)
        rng.shuffle(row)
        rotations.append(tuple(row))
    return RotationSystem(graph, tuple(rotations))


def _random_system(rng: random.Random, n: int) -> RotationSystem:
    """A random connected graph on n vertices with random rotations."""
    tree = [(rng.randrange(v), v) for v in range(1, n)]
    pool = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in tree]
    extra = rng.sample(pool, rng.randint(0, len(pool)))
    return _shuffled_system(make_graph(n, tree + extra), rng)


def test_rotation_canonical_start():
    system = _system(3, [(0, 1), (0, 2), (1, 2)], [(2, 1), (0, 2), (1, 0)])
    assert system.rotations == ((1, 2), (0, 2), (0, 1))


def test_rotation_system_rejections():
    triangle = make_graph(3, [(0, 1), (0, 2), (1, 2)])
    with pytest.raises(ValueError):
        RotationSystem(triangle, ((1, 2), (0, 2)))  # one rotation short
    with pytest.raises(ValueError):
        RotationSystem(triangle, ((1, 1), (0, 2), (0, 1)))  # repeated neighbor
    with pytest.raises(ValueError):
        RotationSystem(triangle, ((1, 2), (0, 2), (0, 3)))  # 3 is not adjacent
    with pytest.raises(ValueError):
        RotationSystem(Graph(2, frozenset()), ((), ()))  # no edge at all
    two_edges = make_graph(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError):
        RotationSystem(two_edges, ((1,), (0,), (3,), (2,)))  # disconnected


def test_trace_triangle_sphere():
    system = _system(3, [(0, 1), (0, 2), (1, 2)], [(1, 2), (0, 2), (0, 1)])
    faces = trace_faces(system)
    assert [f.vertices() for f in faces] == [(0, 1, 2), (0, 2, 1)]
    assert faces[0].darts == (Dart(0, 1), Dart(1, 2), Dart(2, 0))
    assert euler_genus(system) == (2, 0)


def test_trace_k4_ascending_is_torus():
    graph = complete_graph(4)
    system = RotationSystem(graph, tuple(tuple(row) for row in graph.adjacency()))
    faces = trace_faces(system)
    assert [f.vertices() for f in faces] == [(0, 1, 2, 3), (0, 2, 1, 3, 2, 0, 3, 1)]
    assert euler_genus(system) == (0, 1)


def test_face_orbits_cover_all_darts():
    rng = random.Random(23)
    for _ in range(25):
        n = rng.randint(2, 9)
        tree = [(rng.randrange(v), v) for v in range(1, n)]
        pool = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in tree]
        extra = rng.sample(pool, min(len(pool), rng.randint(0, 6)))
        graph = make_graph(n, tree + extra)
        system = _shuffled_system(graph, rng)
        faces = trace_faces(system)
        darts = [d for f in faces for d in f.darts]
        assert len(darts) == 2 * graph.edge_count
        assert len(set(darts)) == len(darts)
        chi, genus = euler_genus(system)
        assert chi == graph.vertex_count - graph.edge_count + len(faces)
        assert genus >= 0


def test_quadrangulation_square():
    system = _system(4, [(0, 1), (1, 2), (2, 3), (0, 3)], [(1, 3), (0, 2), (1, 3), (0, 2)])
    report = validate_quadrangulation(system)
    assert report.is_quadrangulation
    assert report.failures == ()
    assert (report.vertex_count, report.edge_count, report.face_count) == (4, 4, 2)
    assert (report.euler_characteristic, report.genus) == (2, 0)


def test_quadrangulation_rejects_triangle_faces():
    system = _system(3, [(0, 1), (0, 2), (1, 2)], [(1, 2), (0, 2), (0, 1)])
    report = validate_quadrangulation(system)
    assert not report.is_quadrangulation
    assert report.failures == (
        "face 0 (0-1-2) has length 3, not 4",
        "face 1 (0-2-1) has length 3, not 4",
    )


def test_quadrangulation_rejects_degenerate_walk():
    # A path on three vertices has a single closed walk of length four, but
    # it pinches at the middle vertex and reuses both edges.
    system = _system(3, [(0, 1), (1, 2)], [(1,), (0, 2), (1,)])
    report = validate_quadrangulation(system)
    faces = trace_faces(system)
    assert [f.vertices() for f in faces] == [(0, 1, 2, 1)]
    assert report.failures == ("face 0 (0-1-2-1) revisits a vertex",)


def test_quadrangulation_repeated_edge_detected():
    # Two vertices joined by one edge: the walk 0-1-0-1 has length four and
    # hits only two vertices, so the vertex check fires first; a genuinely
    # 4-distinct-vertex walk with a repeated edge cannot occur in a simple
    # graph, which is why the edge check is a backstop, not dead code.
    system = _system(2, [(0, 1)], [(1,), (0,)])
    faces = trace_faces(system)
    assert faces[0].vertices() == (0, 1)
    report = validate_quadrangulation(system)
    assert report.failures == ("face 0 (0-1) has length 2, not 4",)


def test_opposite_faces_may_share_all_edges():
    # The order-4 sphere quadrangulation: both faces use the same four edges.
    system = _system(4, [(0, 1), (1, 2), (2, 3), (0, 3)], [(1, 3), (0, 2), (1, 3), (0, 2)])
    faces = trace_faces(system)
    first = {frozenset(d) for d in faces[0].darts}
    second = {frozenset(d) for d in faces[1].darts}
    assert first == second
    assert validate_quadrangulation(system).is_quadrangulation


# ============================================================
# File format
# ============================================================


def _square_system():
    return _system(4, [(0, 1), (1, 2), (2, 3), (0, 3)], [(1, 3), (0, 2), (1, 3), (0, 2)])


def test_document_round_trip(tmp_path):
    system = _square_system()
    doc = embedding_to_document(system, declared_genus=0)
    assert doc["format"] == EMBEDDING_FORMAT
    assert doc["declared_genus"] == 0
    assert embedding_from_document(doc) == system

    path = tmp_path / "square.json"
    save_embedding(system, path, declared_genus=0)
    loaded = load_embedding(path)
    assert loaded == system
    twice = tmp_path / "square2.json"
    save_embedding(loaded, twice, declared_genus=0)
    assert path.read_bytes() == twice.read_bytes()


def test_document_omits_genus_when_not_declared(tmp_path):
    path = tmp_path / "plain.json"
    save_embedding(_square_system(), path)
    doc = json.loads(path.read_text())
    assert "declared_genus" not in doc
    assert load_embedding(path) == _square_system()


def test_save_is_canonical_bytes(tmp_path):
    path = tmp_path / "square.json"
    save_embedding(_square_system(), path, declared_genus=0)
    assert path.read_text(encoding="utf-8") == (
        '{"declared_genus":0,"format":"qforge-embedding/1",'
        '"rotations":[[1,3],[0,2],[1,3],[0,2]],"vertex_count":4}\n'
    )


def test_declared_genus_mismatch(tmp_path):
    path = tmp_path / "wrong.json"
    save_embedding(_square_system(), path, declared_genus=3)
    with pytest.raises(GenusMismatchError, match="declared genus 3 but traced genus is 0"):
        load_embedding(path)


def test_document_rejections():
    good = embedding_to_document(_square_system())

    def broken(**changes):
        doc = dict(good)
        doc.update(changes)
        return doc

    with pytest.raises(FormatError):
        embedding_from_document(broken(format="qforge-graph/1"))
    with pytest.raises(FormatError):
        embedding_from_document([])
    with pytest.raises(FormatError):
        embedding_from_document(broken(vertex_count=-1))
    with pytest.raises(FormatError):
        embedding_from_document(broken(vertex_count=True))
    with pytest.raises(FormatError):
        embedding_from_document(broken(vertex_count=5))  # row count mismatch
    with pytest.raises(FormatError):
        embedding_from_document(broken(rotations="nope"))
    with pytest.raises(FormatError):
        embedding_from_document(broken(rotations=[[1, 3], [0, 2], [1, 3], [0, "2"]]))
    with pytest.raises(FormatError):
        embedding_from_document(broken(rotations=[[1, 3], [0, 2], [1, 3], [0, 9]]))
    with pytest.raises(FormatError):
        embedding_from_document(broken(rotations=[[1, 1], [0, 2], [1, 3], [0, 2]]))
    with pytest.raises(FormatError):
        embedding_from_document(broken(rotations=[[0, 3], [0, 2], [1, 3], [0, 2]]))
    with pytest.raises(FormatError, match="asymmetry"):
        embedding_from_document(broken(rotations=[[1, 3, 2], [0, 2], [1, 3], [0, 2]]))
    with pytest.raises(FormatError):
        embedding_from_document(broken(declared_genus="zero"))
    with pytest.raises(FormatError):
        # Symmetric rotations but a disconnected graph.
        embedding_from_document(
            {
                "format": EMBEDDING_FORMAT,
                "vertex_count": 4,
                "rotations": [[1], [0], [3], [2]],
            }
        )


def test_load_rejects_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(FormatError, match="not valid JSON"):
        load_embedding(path)


# ============================================================
# The integer tracer against the Dart-based reference
# ============================================================


def _reference_trace_faces(system):
    """The Dart-based tracer the integer one replaced, kept as reference."""
    successor = []
    for rotation in system.rotations:
        degree = len(rotation)
        successor.append({u: rotation[(i + 1) % degree] for i, u in enumerate(rotation)})
    all_darts = sorted(Dart(u, v) for i, j in system.graph.edges for u, v in ((i, j), (j, i)))
    seen = set()
    faces = []
    for start in all_darts:
        if start in seen:
            continue
        walk = []
        dart = start
        while True:
            walk.append(dart)
            seen.add(dart)
            dart = Dart(dart.head, successor[dart.head][dart.tail])
            if dart == start:
                break
        faces.append(FaceWalk(tuple(walk)))
    return faces


def _reference_validate_quadrangulation(system):
    faces = _reference_trace_faces(system)
    failures = []
    for index, face in enumerate(faces):
        if face.length != 4:
            defect = f"has length {face.length}, not 4"
        elif len({dart.tail for dart in face.darts}) != 4:
            defect = "revisits a vertex"
        else:
            continue
        label = "-".join(str(v) for v in face.vertices())
        failures.append(f"face {index} ({label}) {defect}")
    chi = system.graph.vertex_count - system.graph.edge_count + len(faces)
    return EmbeddingReport(
        vertex_count=system.graph.vertex_count,
        edge_count=system.graph.edge_count,
        face_count=len(faces),
        euler_characteristic=chi,
        genus=(2 - chi) // 2,
        is_quadrangulation=not failures,
        failures=tuple(failures),
    )


def _assert_matches_reference(system):
    faces = trace_faces(system)
    assert faces == _reference_trace_faces(system)
    assert all(type(dart) is Dart for face in faces for dart in face.darts)
    report = validate_quadrangulation(system)
    assert report == _reference_validate_quadrangulation(system)
    assert euler_genus(system) == (report.euler_characteristic, report.genus)
    return report


def test_tracer_matches_reference_on_random_systems():
    rng = random.Random(9)
    quads = failing = 0
    for _ in range(300):
        report = _assert_matches_reference(_random_system(rng, rng.randint(2, 12)))
        quads += report.is_quadrangulation
        failing += bool(report.failures)
    assert failing > 250 and quads > 0  # non-quad faces and their labels are covered


def test_tracer_matches_reference_on_spinal_builds(tmp_path):
    for p in range(2, 13):
        assert _assert_matches_reference(build_spinal(complete_graph(p))).is_quadrangulation
    path = tmp_path / "k28.json"
    save_embedding(build_spinal(complete_graph(28)), path, declared_genus=351)
    report = _assert_matches_reference(load_embedding(path))
    assert (report.face_count, report.genus, report.failures) == (756, 351, ())


def test_tracer_memory_is_linear_in_darts():
    # a star with 3000 leaves has 5998 darts; a table indexed by
    # tail * n + head would take 9 million slots (72 MB)
    n = 3000
    system = _system(n, [(0, v) for v in range(1, n)], [range(1, n)] + [(0,)] * (n - 1))
    tracemalloc.start()
    try:
        faces = _trace(system.rotations)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [len(face) for face in faces] == [2 * n - 2]
    assert peak < 500 * 2 * (n - 1)  # bytes per dart


if st is not None:

    @st.composite
    def _rotation_systems(draw):
        n = draw(st.integers(2, 10))
        edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=len(pairs))))
        graph = make_graph(n, sorted(edges))
        rotations = [draw(st.permutations(row)) for row in graph.adjacency()]
        return RotationSystem(graph, tuple(map(tuple, rotations)))

    @settings(max_examples=100, deadline=None)
    @given(_rotation_systems())
    def test_faces_partition_darts_and_mirror_keeps_genus(system):
        faces = trace_faces(system)
        darts = [dart for face in faces for dart in face.darts]
        edges = system.graph.edges
        assert sorted(darts) == sorted(d for i, j in edges for d in ((i, j), (j, i)))
        chi = system.graph.vertex_count - len(edges) + len(faces)
        assert chi % 2 == 0 and chi <= 2
        assert euler_genus(system) == (chi, (2 - chi) // 2)
        mirror = RotationSystem(system.graph, tuple(r[::-1] for r in system.rotations))
        assert len(trace_faces(mirror)) == len(faces)
        assert euler_genus(mirror) == euler_genus(system)

else:

    @pytest.mark.skip(reason="hypothesis is not installed")
    def test_faces_partition_darts_and_mirror_keeps_genus():
        pass

from __future__ import annotations

import json
import random
import sys
import tracemalloc

import pytest

from qforge import embedding
from qforge.embedding import (
    EMBEDDING_FORMAT,
    EmbeddingReport,
    GenusMismatchError,
    RotationSystem,
    _rotate_to_min,
    _trace,
    embedding_from_document,
    embedding_to_document,
    load_embedding,
    save_embedding,
    validate_quadrangulation,
)
from qforge.graph import (
    FormatError,
    Graph,
    canonical_json,
    complete_graph,
    graph_from_document,
    graph_to_document,
    make_graph,
)
from qforge.oracle import search_quadrangulation
from qforge.spinal import build_instance, build_spinal_report

from _reference import rotate_to_min, rotation_fault, trace_faces

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # the property test is skipped without hypothesis
    st = None

# CPython's limit on decimal digits in int(str); 0 when there is none
_INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _system(n, edges, rotations):
    system = RotationSystem(tuple(tuple(r) for r in rotations))
    assert system.graph == make_graph(n, edges)
    return system


def _darts(face):
    """The darts of a face given by its corners in walk order."""
    return tuple(zip(face, face[1:] + face[:1]))


def _shuffled_system(graph: Graph, rng: random.Random) -> RotationSystem:
    rotations = []
    for neighbors in graph.adjacency():
        row = list(neighbors)
        rng.shuffle(row)
        rotations.append(tuple(row))
    system = RotationSystem(tuple(rotations))
    assert system.graph == graph
    return system


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
    for rotations, message in (
        (((1, 2), (0, 2)), "rotation at vertex 0 mentions an out-of-range vertex"),
        (((1, 1), (0, 2), (0, 1)), "rotation at vertex 0 repeats a neighbor"),
        (((1, 2), (0, 2), (0, 3)), "rotation at vertex 2 mentions an out-of-range vertex"),
        (((1, 2), (1, 2), (0, 1)), "rotation at vertex 1 lists the vertex itself"),
        (((1, 2), (0, 2), (1,)), "rotation asymmetry: 2 listed at 0 but not 0 at 2"),
        (((), ()), "rotation system needs a graph with at least one edge"),
        (((1,), (0,), (3,), (2,)), "rotation system needs a connected graph"),
    ):
        with pytest.raises(ValueError) as caught:
            RotationSystem(rotations)
        assert str(caught.value) == message, rotations


def test_rotation_system_derives_its_graph():
    system = RotationSystem(((2, 1), (0, 2), (1, 0)))
    assert system.graph == complete_graph(3)
    same = RotationSystem(((1, 2), (2, 0), (0, 1)))
    assert system == same
    # equal rotations are the whole value: equal hashes, equal reports, and
    # a repr of the rotations alone
    assert hash(system) == hash(same)
    assert repr(system) == "RotationSystem(rotations=((1, 2), (0, 2), (0, 1)))"
    report = validate_quadrangulation(system)
    assert report == validate_quadrangulation(same)
    assert hash(report) == hash(validate_quadrangulation(same))
    for value, name in ((system, "rotations"), (system, "graph"), (report, "genus")):
        with pytest.raises(AttributeError):
            setattr(value, name, None)


def test_trace_triangle_sphere():
    system = _system(3, [(0, 1), (0, 2), (1, 2)], [(1, 2), (0, 2), (0, 1)])
    faces = _trace(system.rotations)
    assert faces == [[0, 1, 2], [0, 2, 1]]
    assert _darts(faces[0]) == ((0, 1), (1, 2), (2, 0))
    assert euler_genus(system) == (2, 0)


def test_trace_k4_ascending_is_torus():
    graph = complete_graph(4)
    system = RotationSystem(tuple(tuple(row) for row in graph.adjacency()))
    faces = _trace(system.rotations)
    assert faces == [[0, 1, 2, 3], [0, 2, 1, 3, 2, 0, 3, 1]]
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
        faces = _trace(system.rotations)
        darts = [d for f in faces for d in _darts(f)]
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
    faces = _trace(system.rotations)
    assert faces == [[0, 1, 2, 1]]
    assert report.failures == ("face 0 (0-1-2-1) revisits a vertex",)


def test_quadrangulation_repeated_edge_detected():
    # Two vertices joined by one edge: the walk 0-1-0-1 has length four and
    # hits only two vertices, so the vertex check fires first; a genuinely
    # 4-distinct-vertex walk with a repeated edge cannot occur in a simple
    # graph, which is why the edge check is a backstop, not dead code.
    system = _system(2, [(0, 1)], [(1,), (0,)])
    faces = _trace(system.rotations)
    assert faces[0] == [0, 1]
    report = validate_quadrangulation(system)
    assert report.failures == ("face 0 (0-1) has length 2, not 4",)


def test_opposite_faces_may_share_all_edges():
    # The order-4 sphere quadrangulation: both faces use the same four edges.
    system = _system(4, [(0, 1), (1, 2), (2, 3), (0, 3)], [(1, 3), (0, 2), (1, 3), (0, 2)])
    faces = _trace(system.rotations)
    first = {frozenset(d) for d in _darts(faces[0])}
    second = {frozenset(d) for d in _darts(faces[1])}
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


def test_declared_genus_is_checked_on_any_embedding(tmp_path):
    # K_3 on the sphere: two triangle faces, so no quadrangulation
    triangle = _system(3, [(0, 1), (0, 2), (1, 2)], [(1, 2), (0, 2), (0, 1)])
    path = tmp_path / "triangle.json"
    save_embedding(triangle, path, declared_genus=0)
    assert load_embedding(path) == triangle
    save_embedding(triangle, path, declared_genus=1)
    with pytest.raises(GenusMismatchError, match="declared genus 1 but traced genus is 0"):
        load_embedding(path)


def test_each_rotation_system_is_traced_once(tmp_path, monkeypatch):
    path = tmp_path / "k5.json"
    save_embedding(build_spinal_report(complete_graph(5)).embedding, path, declared_genus=6)
    calls = []
    trace = embedding._trace

    def counting(rotations):
        calls.append(len(rotations))
        return trace(rotations)

    monkeypatch.setattr(embedding, "_trace", counting)
    # the reader's genus check and the validation read the same trace
    assert validate_quadrangulation(load_embedding(path)).genus == 6
    assert calls == [10]
    calls.clear()
    assert validate_quadrangulation(build_instance(5, 0).embedding).genus == 6
    assert calls == [10]
    calls.clear()
    assert validate_quadrangulation(search_quadrangulation(5, 1)).genus == 1
    assert calls == [5]


# rotation lists that are well-formed JSON but no rotation system, with the
# message both the constructor and the document reader give
_STRUCTURAL_REJECTIONS = (
    ([[1, 3], [0, 2], [1, 3], [0, 9]], "rotation at vertex 3 mentions an out-of-range vertex"),
    ([[1, 1], [0, 2], [1, 3], [0, 2]], "rotation at vertex 0 repeats a neighbor"),
    ([[0, 3], [0, 2], [1, 3], [0, 2]], "rotation at vertex 0 lists the vertex itself"),
    ([[1, 3, 2], [0, 2], [1, 3], [0, 2]], "rotation asymmetry: 2 listed at 0 but not 0 at 2"),
    # the first offending pair in vertex order, then rotation order
    ([[1, 3], [0, 2], [1, 3, 0], [1, 0, 2]], "rotation asymmetry: 0 listed at 2 but not 2 at 0"),
    # symmetry is tested by counting darts against edges, then by looking
    # each edge v < u up at u; the message still names the first
    # asymmetric dart.  Three darts but two edges: the counts disagree
    ([[1], [2], [0]], "rotation asymmetry: 1 listed at 0 but not 0 at 1"),
    # six darts and three edges, but the edge (0, 2) is not listed at 2
    ([[1, 2], [0], [3], [1, 0]], "rotation asymmetry: 2 listed at 0 but not 0 at 2"),
    # an asymmetry at vertex 0 and a fault at a later vertex: every
    # per-vertex check runs before the symmetry check
    ([[1], [2, 2], [1]], "rotation at vertex 1 repeats a neighbor"),
    ([[1], [2], [3]], "rotation at vertex 2 mentions an out-of-range vertex"),
    ([[1], [2], [2]], "rotation at vertex 2 lists the vertex itself"),
    # a negative id is not an edge v < u, so Graph passes it and the dart
    # count (three entries, one edge) catches it
    ([[1, -1], [0]], "rotation at vertex 0 mentions an out-of-range vertex"),
    # an id far above its vertex: Graph's range check catches it
    ([[1], [0, 10**30]], "rotation at vertex 1 mentions an out-of-range vertex"),
    ([[], []], "rotation system needs a graph with at least one edge"),
    # symmetric rotations but a disconnected graph
    ([[1], [0], [3], [2]], "rotation system needs a connected graph"),
)


def test_document_rejections():
    good = embedding_to_document(_square_system())

    def broken(**changes):
        doc = dict(good)
        doc.update(changes)
        return doc

    header = f"expected a {EMBEDDING_FORMAT} document"
    count = "vertex_count must be a non-negative integer"
    for doc, message in (
        (broken(format="qforge-graph/1"), header),
        ([], header),
        (broken(vertex_count=-1), count),
        (broken(vertex_count=True), count),
        (broken(vertex_count=5), "rotations must list one neighbor cycle per vertex"),
        (broken(rotations="nope"), "rotations must list one neighbor cycle per vertex"),
        (
            broken(rotations=[[1, 3], [0, 2], [1, 3], [0, "2"]]),
            "rotation at vertex 3 must be a list of vertex ids",
        ),
        *(
            (broken(vertex_count=len(rotations), rotations=rotations), message)
            for rotations, message in _STRUCTURAL_REJECTIONS
        ),
        (broken(declared_genus="zero"), "declared_genus must be a non-negative integer"),
        (broken(declared_genus=False), "declared_genus must be a non-negative integer"),
    ):
        with pytest.raises(FormatError) as caught:
            embedding_from_document(doc)
        assert str(caught.value) == message, doc


def test_constructor_and_document_reader_reject_alike():
    for rotations, message in _STRUCTURAL_REJECTIONS:
        with pytest.raises(ValueError) as direct:
            RotationSystem(tuple(map(tuple, rotations)))
        doc = {"format": EMBEDDING_FORMAT, "vertex_count": len(rotations), "rotations": rotations}
        with pytest.raises(FormatError) as read:
            embedding_from_document(doc)
        assert str(direct.value) == str(read.value) == message, rotations


def test_load_rejects_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(FormatError, match="not valid JSON"):
        load_embedding(path)


def test_load_rejects_non_utf8(tmp_path):
    path = tmp_path / "binary.json"
    path.write_bytes(b"\xff" + canonical_json(embedding_to_document(_square_system())).encode())
    with pytest.raises(FormatError, match="not valid JSON: 'utf-8' codec"):
        load_embedding(path)


@pytest.mark.skipif(not 0 < _INT_DIGITS < 5000, reason="no integer digit limit below 5000")
def test_load_rejects_integer_over_digit_limit(tmp_path):
    path = tmp_path / "huge.json"
    text = canonical_json(embedding_to_document(_square_system()))
    path.write_text(text.replace('"vertex_count":4', '"vertex_count":' + "9" * 5000))
    with pytest.raises(FormatError, match="not valid JSON: Exceeds the limit"):
        load_embedding(path)


# ============================================================
# The integer tracer against the dart-walking reference
# ============================================================


def euler_genus(system):
    """Euler characteristic |V| - |E| + |F| and genus (2 - chi) / 2, with the
    faces counted by the reference tracer, not by the library."""
    chi = system.graph.vertex_count - system.graph.edge_count + len(trace_faces(system))
    return chi, (2 - chi) // 2


def _reference_validate_quadrangulation(system):
    faces = trace_faces(system)
    failures = []
    for index, face in enumerate(faces):
        if len(face) != 4:
            defect = f"has length {len(face)}, not 4"
        elif len(set(face)) != 4:
            defect = "revisits a vertex"
        else:
            continue
        label = "-".join(str(v) for v in face)
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
    faces = _trace(system.rotations)
    assert list(map(tuple, faces)) == trace_faces(system)
    assert all(type(v) is int for face in faces for v in face)
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
        system = build_spinal_report(complete_graph(p)).embedding
        assert _assert_matches_reference(system).is_quadrangulation
    path = tmp_path / "k28.json"
    save_embedding(build_spinal_report(complete_graph(28)).embedding, path, declared_genus=351)
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
        return RotationSystem(tuple(map(tuple, rotations)))

    @settings(max_examples=100, deadline=None)
    @given(_rotation_systems())
    def test_faces_partition_darts_and_mirror_keeps_genus(system):
        faces = _trace(system.rotations)
        darts = [dart for face in faces for dart in _darts(face)]
        edges = system.graph.edges
        assert sorted(darts) == sorted(d for i, j in edges for d in ((i, j), (j, i)))
        chi = system.graph.vertex_count - len(edges) + len(faces)
        assert chi % 2 == 0 and chi <= 2
        assert euler_genus(system) == (chi, (2 - chi) // 2)
        mirror = RotationSystem(tuple(r[::-1] for r in system.rotations))
        assert len(_trace(mirror.rotations)) == len(faces)
        assert euler_genus(mirror) == euler_genus(system)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(), min_size=1, max_size=8, unique=True))
    def test_rotate_to_min_matches_the_reference(cycle):
        # every rotation of the cycle, in both orientations, starts at its
        # smallest element and keeps its orientation
        for oriented in (cycle, cycle[::-1]):
            pivot = oriented.index(min(oriented))
            expected = tuple(oriented[pivot:] + oriented[:pivot])
            for turn in range(len(oriented)):
                rotated = tuple(oriented[turn:] + oriented[:turn])
                assert _rotate_to_min(rotated) == rotate_to_min(rotated) == expected

    _json = st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner),
        max_leaves=12,
    )
    _small = st.integers(-1, 6)
    _entry = _small | _json  # mostly vertex ids, sometimes anything

    def _tagged(fmt, body, rows):
        """Documents with a valid format tag and anything else under the
        keys the parsers read."""
        return st.fixed_dictionaries(
            {"format": st.just(fmt), "vertex_count": _small | _json, body: rows | _json},
            optional={"declared_genus": _small | _json},
        )

    def _parses_or_rejects(parse, doc):
        """The loaders' contract: a result, FormatError or GenusMismatchError."""
        try:
            parse(doc)
        except (FormatError, GenusMismatchError):
            pass

    @settings(max_examples=200, deadline=None)
    @given(
        _json
        | _tagged("qforge-graph/1", "edges", st.lists(st.lists(_entry, max_size=3), max_size=8))
        | _tagged(EMBEDDING_FORMAT, "rotations", st.lists(st.lists(_entry, max_size=4), max_size=6))
    )
    def test_parsers_reject_any_json_only_with_format_error(doc):
        _parses_or_rejects(graph_from_document, doc)
        _parses_or_rejects(embedding_from_document, doc)

    @st.composite
    def _perturbed_documents(draw):
        """A valid graph and embedding document of one random system, with
        one edge or one neighbour dropped, duplicated, swapped or replaced."""
        system = draw(_rotation_systems())
        n = system.graph.vertex_count
        graph_doc = graph_to_document(system.graph)
        embedding_doc = embedding_to_document(system, draw(st.none() | st.integers(0, 3)))
        replacement = draw(st.integers(-1, n) | _json)
        for rows in (graph_doc["edges"], embedding_doc["rotations"]):
            row = rows[draw(st.integers(0, len(rows) - 1))]
            i = draw(st.integers(0, len(row) - 1))
            how = draw(st.sampled_from(["drop", "duplicate", "swap", "replace"]))
            if how == "drop":
                del row[i]
            elif how == "duplicate":
                row.insert(i, row[i])
            elif how == "swap":
                row[i - 1], row[i] = row[i], row[i - 1]
            else:
                row[i] = replacement
        return graph_doc, embedding_doc

    @settings(max_examples=200, deadline=None)
    @given(_perturbed_documents())
    def test_parsers_reject_perturbed_documents_only_with_format_error(docs):
        graph_doc, embedding_doc = docs
        _parses_or_rejects(graph_from_document, graph_doc)
        _parses_or_rejects(embedding_from_document, embedding_doc)

    @st.composite
    def _perturbed_rotations(draw):
        """The rotation lists of a random system with up to four entries
        dropped, repeated, swapped with an entry of any row, or replaced by
        an id in -2..n+1 (an empty row gains that id instead)."""
        rotations = [list(rotation) for rotation in draw(_rotation_systems()).rotations]
        n = len(rotations)
        for _ in range(draw(st.integers(0, 4))):
            row = rotations[draw(st.integers(0, n - 1))]
            i = draw(st.integers(0, max(len(row) - 1, 0)))
            how = draw(st.sampled_from(["drop", "repeat", "swap", "replace"]))
            if how == "replace" or not row:
                row[i : i + 1] = [draw(st.integers(-2, n + 1))]
            elif how == "drop":
                del row[i]
            elif how == "repeat":
                row.insert(i, row[i])
            else:
                other = rotations[draw(st.integers(0, n - 1))]
                if other:
                    j = draw(st.integers(0, len(other) - 1))
                    row[i], other[j] = other[j], row[i]
        return rotations

    @settings(max_examples=300, deadline=None)
    @given(_perturbed_rotations())
    def test_rotation_system_refuses_exactly_the_reference_faults(rotations):
        fault = rotation_fault(rotations)
        try:
            RotationSystem(tuple(map(tuple, rotations)))
        except ValueError as exc:
            assert str(exc) == fault
        else:
            assert fault is None

else:

    @pytest.mark.skip(reason="hypothesis is not installed")
    def test_faces_partition_darts_and_mirror_keeps_genus():
        pass

    @pytest.mark.skip(reason="hypothesis is not installed")
    def test_rotate_to_min_matches_the_reference():
        pass

    @pytest.mark.skip(reason="hypothesis is not installed")
    def test_parsers_reject_any_json_only_with_format_error():
        pass

    @pytest.mark.skip(reason="hypothesis is not installed")
    def test_parsers_reject_perturbed_documents_only_with_format_error():
        pass

    @pytest.mark.skip(reason="hypothesis is not installed")
    def test_rotation_system_refuses_exactly_the_reference_faults():
        pass

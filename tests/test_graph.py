from __future__ import annotations

import pickle
import random
import sys

import pytest

from qforge.graph import (
    FormatError,
    Graph,
    betti,
    canonical_json,
    complete_graph,
    delete_edges_connected,
    graph_from_document,
    graph_to_document,
    interlace,
    is_connected,
    load_graph,
    make_graph,
    save_graph,
)
from qforge.oracle import SearchBudget

from _reference import octahedral_graph

# CPython's limit on decimal digits in int(str); 0 when there is none
_INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _random_connected(rng: random.Random, max_vertices: int = 10, max_edges: int = 20) -> Graph:
    n = rng.randint(2, max_vertices)
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    edges = {(min(a, b), max(a, b)) for a, b in edges}
    pool = [
        (i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in edges
    ]
    rng.shuffle(pool)
    budget = min(max_edges, len(edges) + len(pool))
    while pool and len(edges) < budget and rng.random() < 0.6:
        edges.add(pool.pop())
    return Graph(n, frozenset(edges))


def test_complete_graph_counts():
    assert complete_graph(1).vertex_count == 1
    assert complete_graph(1).edge_count == 0
    assert complete_graph(4).edge_count == 6
    assert complete_graph(12).edge_count == 66
    with pytest.raises(ValueError):
        complete_graph(0)


def test_octahedral_graph_small():
    g = octahedral_graph(2)
    assert g.vertex_count == 4
    assert g.edges == frozenset({(0, 2), (0, 3), (1, 2), (1, 3)})
    assert octahedral_graph(3).vertex_count == 6
    assert octahedral_graph(3).edge_count == 12
    assert octahedral_graph(12).vertex_count == 24
    assert octahedral_graph(12).edge_count == 264
    with pytest.raises(ValueError):
        octahedral_graph(1)


def test_octahedral_matches_formula():
    for p in range(2, 9):
        assert octahedral_graph(p).edge_count == 2 * p * (p - 1)


def test_is_connected():
    assert is_connected(complete_graph(4))
    assert is_connected(Graph(0, frozenset()))
    assert not is_connected(Graph(2, frozenset()))
    lonely_zero = make_graph(4, [(1, 2), (1, 3), (2, 3)])
    assert not is_connected(lonely_zero)


def test_betti_values():
    path = make_graph(4, [(0, 1), (1, 2), (2, 3)])
    assert betti(path) == 0
    cycle7 = make_graph(7, [(i, (i + 1) % 7) for i in range(7)])
    assert betti(cycle7) == 1
    assert betti(complete_graph(5)) == 6
    assert betti(complete_graph(12)) == 55


def test_betti_rejects_bad_input():
    with pytest.raises(ValueError):
        betti(Graph(0, frozenset()))
    with pytest.raises(ValueError):
        betti(Graph(3, frozenset()))


def test_delete_edges_identity_and_star():
    k4 = complete_graph(4)
    assert delete_edges_connected(k4, 0) == k4
    # Lexicographic trace: removes (0,1) and (0,2), skips the bridge (0,3),
    # removes (1,2); the remainder is the star at vertex 3.
    star = delete_edges_connected(k4, 3)
    assert star.edges == frozenset({(0, 3), (1, 3), (2, 3)})
    with pytest.raises(ValueError):
        delete_edges_connected(k4, 4)
    with pytest.raises(ValueError):
        delete_edges_connected(k4, -1)


def test_delete_edges_random_properties():
    rng = random.Random(7)
    for _ in range(40):
        graph = _random_connected(rng)
        rank = betti(graph)
        m = rng.randint(0, rank)
        out = delete_edges_connected(graph, m)
        assert is_connected(out)
        assert out.edge_count == graph.edge_count - m
        again = delete_edges_connected(graph, m)
        assert out.edges == again.edges


def _delete_edges_with_restarts(graph: Graph, m: int) -> Graph:
    """The earlier rule, which rescanned from the start until m edges were
    gone; the single scan must remove exactly the same edges."""
    remaining = set(graph.edges)
    removed = 0
    while removed < m:
        for edge in sorted(remaining):
            if removed == m:
                break
            if is_connected(Graph(graph.vertex_count, frozenset(remaining - {edge}))):
                remaining.discard(edge)
                removed += 1
    return Graph(graph.vertex_count, frozenset(remaining))


def test_delete_edges_single_scan_matches_restarts():
    rng = random.Random(5)
    graphs = [complete_graph(p) for p in range(2, 11)] + [_random_connected(rng) for _ in range(30)]
    # edges on no triangle, where each trial takes the graph search:
    # K_{3,4}, the interlaced 5-cycle and the interlaced K_4's late trials
    k34 = make_graph(7, [(a, b) for a in range(3) for b in range(3, 7)])
    c5 = make_graph(5, [(v, (v + 1) % 5) for v in range(5)])
    graphs += [k34, interlace(c5), interlace(complete_graph(4))]
    for graph in graphs:
        for m in range(betti(graph) + 1):
            assert delete_edges_connected(graph, m) == _delete_edges_with_restarts(graph, m)


def test_interlace_small_cases():
    k2 = complete_graph(2)
    assert interlace(k2).edges == frozenset({(0, 2), (0, 3), (1, 2), (1, 3)})
    path = make_graph(3, [(0, 1), (1, 2)])
    doubled = interlace(path)
    assert doubled.vertex_count == 6
    assert doubled.edge_count == 8


def test_interlace_equals_octahedral():
    for p in range(2, 9):
        assert interlace(complete_graph(p)).edges == octahedral_graph(p).edges


def test_interlace_counts_and_rank():
    rng = random.Random(11)
    for _ in range(30):
        graph = _random_connected(rng)
        doubled = interlace(graph)
        assert doubled.vertex_count == 2 * graph.vertex_count
        assert doubled.edge_count == 4 * graph.edge_count
        assert betti(doubled) == 4 * graph.edge_count - 2 * graph.vertex_count + 1
        n = doubled.vertex_count
        assert doubled.edges == {
            (a, b) for a in range(n) for b in range(a + 1, n) if (a >> 1, b >> 1) in graph.edges
        }


def test_graph_invariants_enforced():
    with pytest.raises(ValueError, match="vertex_count must be non-negative"):
        Graph(-1, frozenset())
    with pytest.raises(ValueError):
        Graph(3, frozenset({(1, 1)}))
    with pytest.raises(ValueError):
        Graph(3, frozenset({(2, 1)}))
    with pytest.raises(ValueError):
        Graph(3, frozenset({(0, 3)}))
    with pytest.raises(ValueError):
        make_graph(4, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        make_graph(4, [(2, 2)])
    # an immutable value: equal fields compare and hash alike
    graph = complete_graph(3)
    same = Graph(3, frozenset({(1, 2), (0, 2), (0, 1)}))
    assert graph == same and hash(graph) == hash(same)
    assert graph != Graph(3, frozenset({(0, 1), (1, 2)}))
    # another type is never equal, even one holding the same fields
    assert graph != (3, graph.edges)
    assert (graph == SearchBudget()) is False
    assert pickle.loads(pickle.dumps(graph)) == graph
    for name in ("vertex_count", "edges"):
        with pytest.raises(AttributeError):
            setattr(graph, name, None)
    with pytest.raises(AttributeError, match="cannot delete field"):
        del graph.edges


_BROKEN_EDGES = (
    [[1, 0]],  # unordered
    [[0, 1], [1, 3]],  # out of range
    [[-1, 1]],  # negative
    [[1, 1]],  # loop
)


def test_graph_and_reader_reject_broken_edges_alike():
    # Graph is the one check of an edge's range, order and loop; the
    # reader's message is Graph's
    for edges in _BROKEN_EDGES:
        with pytest.raises(ValueError) as direct:
            Graph(3, frozenset(map(tuple, edges)))
        doc = {"format": "qforge-graph/1", "vertex_count": 3, "edges": edges}
        with pytest.raises(FormatError) as read:
            graph_from_document(doc)
        assert str(direct.value) == str(read.value), edges


def test_document_round_trip(tmp_path):
    graph = make_graph(5, [(3, 0), (0, 1), (2, 4)])
    doc = graph_to_document(graph)
    assert doc["edges"] == sorted(doc["edges"])
    assert graph_from_document(doc) == graph
    path = tmp_path / "g.json"
    save_graph(graph, path)
    assert load_graph(path) == graph
    assert path.read_text() == path.read_text()  # stable on disk
    save_graph(graph, tmp_path / "g2.json")
    assert (tmp_path / "g2.json").read_bytes() == path.read_bytes()


def test_document_rejections(tmp_path):
    good = graph_to_document(complete_graph(3))
    for breakage in (
        {**good, "format": "something-else"},
        {**good, "vertex_count": -1},
        {**good, "vertex_count": True},
        {**good, "edges": [[0, 1], [0, 1], [1, 2], [0, 2]]},
        {**good, "edges": [[1, 0]]},
        {**good, "edges": [[0, 3]]},
        {**good, "edges": [[0]]},
        {**good, "edges": "nope"},
        [],
    ):
        with pytest.raises(FormatError):
            graph_from_document(breakage)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(FormatError):
        load_graph(bad)


def test_load_rejects_non_utf8(tmp_path):
    bad = tmp_path / "binary.json"
    bad.write_bytes(b"\xff" + canonical_json(graph_to_document(complete_graph(3))).encode())
    with pytest.raises(FormatError, match="not valid JSON: 'utf-8' codec"):
        load_graph(bad)


@pytest.mark.skipif(not 0 < _INT_DIGITS < 5000, reason="no integer digit limit below 5000")
def test_load_rejects_integer_over_digit_limit(tmp_path):
    bad = tmp_path / "huge.json"
    bad.write_text('{"edges":[[0,1]],"format":"qforge-graph/1","vertex_count":' + "9" * 5000 + "}")
    with pytest.raises(FormatError, match="not valid JSON: Exceeds the limit"):
        load_graph(bad)

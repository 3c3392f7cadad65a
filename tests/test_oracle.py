from __future__ import annotations

from itertools import combinations, permutations, product

import pytest

from qforge.embedding import validate_quadrangulation
from qforge.graph import complete_graph
from qforge.oracle import (
    BudgetExhausted,
    SearchBudget,
    exists_quadrangulation,
    min_order_bruteforce,
    quad_edge_count,
    search_quadrangulation,
)
from qforge.spinal import build_spinal


# ============================================================
# Mini oracle: a from-scratch cross-check for tiny orders
# ============================================================
#
# Enumerates every connected labeled graph on n vertices with the forced
# edge count, then every rotation system (one representative per cyclic
# order: the first entry is pinned to the smallest neighbor), traces faces
# with its own walker, and accepts only all-quad embeddings of the right
# genus.  Shares no search code with the package, so agreement is evidence.


def _mini_connected(n, edges):
    if n == 0:
        return True
    adj = {v: [] for v in range(n)}
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def _mini_rotations(adjacency):
    per_vertex = []
    for neighbors in adjacency:
        if not neighbors:
            per_vertex.append([()])
            continue
        first, rest = neighbors[0], neighbors[1:]
        per_vertex.append([(first,) + tail for tail in permutations(rest)])
    return product(*per_vertex)


def _mini_faces(rotations):
    succ = {}
    for v, rot in enumerate(rotations):
        for i, u in enumerate(rot):
            succ[v, u] = rot[(i + 1) % len(rot)]
    darts = sorted(succ)
    seen = set()
    faces = []
    for start in darts:
        if start in seen:
            continue
        walk = []
        dart = start
        while True:
            walk.append(dart)
            seen.add(dart)
            dart = (dart[1], succ[dart[1], dart[0]])
            if dart == start:
                break
        faces.append(walk)
    return faces


def _mini_exists(n, genus):
    target = 2 * (n - 2 + 2 * genus)
    pairs = list(combinations(range(n), 2))
    if target < n - 1 or target > len(pairs):
        return False
    for edges in combinations(pairs, target):
        if not _mini_connected(n, edges):
            continue
        adjacency = [[] for _ in range(n)]
        for i, j in edges:
            adjacency[i].append(j)
            adjacency[j].append(i)
        for rotations in _mini_rotations(adjacency):
            faces = _mini_faces(rotations)
            good = all(
                len(walk) == 4
                and len({d[0] for d in walk}) == 4
                and len({frozenset(d) for d in walk}) == 4
                for walk in faces
            )
            if not good:
                continue
            chi = n - target + len(faces)
            if chi % 2 == 0 and (2 - chi) // 2 == genus:
                return True
    return False


def test_mini_oracle_agrees_with_search():
    for n in range(3, 6):
        for genus in range(0, 5):
            assert exists_quadrangulation(n, genus) == _mini_exists(n, genus), (n, genus)


def test_mini_oracle_small_genus_spectrum():
    assert {g for g in range(5) if _mini_exists(3, g)} == set()
    assert {g for g in range(5) if _mini_exists(4, g)} == {0}
    assert {g for g in range(5) if _mini_exists(5, g)} == {0, 1}


# ============================================================
# Arithmetic filter
# ============================================================


def test_quad_edge_count():
    assert quad_edge_count(4, 0) == 4
    assert quad_edge_count(5, 0) == 6
    assert quad_edge_count(7, 2) == 18
    assert quad_edge_count(4, 1) is None  # 8 edges will not fit on 4 vertices
    assert quad_edge_count(6, 2) is None  # 16 edges will not fit on 6
    assert quad_edge_count(3, 1) is None
    with pytest.raises(ValueError):
        quad_edge_count(4, -1)
    with pytest.raises(ValueError):
        quad_edge_count(3, 0)
    with pytest.raises(ValueError):
        quad_edge_count(2, 5)


def test_arithmetic_never_contradicts_search():
    for n in range(4, 8):
        for genus in range(0, 4):
            if quad_edge_count(n, genus) is None:
                assert not exists_quadrangulation(n, genus)


# ============================================================
# Search
# ============================================================


def test_search_sphere_order_4():
    system = search_quadrangulation(4, 0)
    assert system is not None
    assert sorted(system.graph.edges) == [(0, 2), (0, 3), (1, 2), (1, 3)]
    report = validate_quadrangulation(system)
    assert report.is_quadrangulation
    assert (report.genus, report.face_count) == (0, 2)


def test_search_small_orders():
    assert search_quadrangulation(3, 0) is None  # below any quad face
    assert search_quadrangulation(4, 1) is None
    assert search_quadrangulation(6, 2) is None
    for n, genus in ((5, 0), (5, 1), (6, 0), (6, 1)):
        system = search_quadrangulation(n, genus)
        assert system is not None, (n, genus)
        report = validate_quadrangulation(system)
        assert report.is_quadrangulation
        assert report.genus == genus
        assert system.graph.vertex_count == n


def test_search_is_deterministic():
    first = search_quadrangulation(7, 2)
    second = search_quadrangulation(7, 2)
    assert first == second
    assert first.rotations == (
        (3, 5, 6, 4),
        (3, 4, 6, 5),
        (3, 5, 4, 6),
        (0, 1, 2, 4, 5, 6),
        (0, 2, 3, 6, 5, 1),
        (0, 6, 4, 3, 2, 1),
        (0, 1, 5, 3, 4, 2),
    )
    assert validate_quadrangulation(first).genus == 2


def test_exists_with_injected_witness():
    witness = build_spinal(complete_graph(3))
    assert exists_quadrangulation(6, 1, witness=witness)
    with pytest.raises(ValueError):
        exists_quadrangulation(8, 1, witness=witness)  # wrong order
    with pytest.raises(ValueError):
        exists_quadrangulation(6, 2, witness=witness)  # wrong genus
    # builder outputs are witnesses even where a fresh search would be slow
    assert exists_quadrangulation(8, 3, witness=build_spinal(complete_graph(4)))


def test_exists_rejects_negative_genus():
    with pytest.raises(ValueError):
        exists_quadrangulation(6, -1)


# ============================================================
# Budgets
# ============================================================


def test_budget_validation():
    with pytest.raises(ValueError):
        SearchBudget(max_nodes=0)
    with pytest.raises(ValueError):
        SearchBudget(time_cap=0)
    assert SearchBudget().max_nodes == 100_000_000


def test_budget_rejects_nan_time_cap():
    # NaN compares false with everything, so it would silently disable the cap
    with pytest.raises(ValueError):
        SearchBudget(time_cap=float("nan"))


def test_budget_rejects_non_integer_max_nodes():
    for bad in (2.5, 3.0, True):
        with pytest.raises(ValueError):
            SearchBudget(max_nodes=bad)


def test_budget_exhaustion_is_an_exception_not_a_verdict():
    with pytest.raises(BudgetExhausted):
        exists_quadrangulation(7, 2, budget=SearchBudget(max_nodes=5))
    # the same question with room to breathe has a definite answer
    assert exists_quadrangulation(7, 2) is True


def test_time_cap_type():
    with pytest.raises(BudgetExhausted):
        min_order_bruteforce(2, budget=SearchBudget(max_nodes=50))


# ============================================================
# Minimum-order scan
# ============================================================


def test_min_order_scan_ground_truth():
    for genus, expected in ((0, 4), (1, 5), (2, 7)):
        found = min_order_bruteforce(genus)
        assert found.order == expected
        assert found.genus == genus
        assert found.nodes > 0
        report = validate_quadrangulation(found.witness)
        assert report.is_quadrangulation
        assert report.genus == genus
        assert found.witness.graph.vertex_count == expected


def test_min_order_scan_is_deterministic():
    first = min_order_bruteforce(2)
    second = min_order_bruteforce(2)
    assert first == second


def test_min_order_scan_requires_budget_above_genus_2():
    with pytest.raises(ValueError):
        min_order_bruteforce(3)
    found = min_order_bruteforce(3, budget=SearchBudget())
    assert found.order == 8


def test_min_order_scan_with_max_order_cap():
    with pytest.raises(BudgetExhausted, match="capped at order 6"):
        min_order_bruteforce(2, max_order=6)
    found = min_order_bruteforce(2, max_order=7)
    assert found.order == 7


def test_min_order_scan_rejects_negative_genus():
    with pytest.raises(ValueError):
        min_order_bruteforce(-1)

from __future__ import annotations

import hashlib
from itertools import combinations, permutations, product

import pytest

from qforge.embedding import embedding_to_document, validate_quadrangulation
from qforge.formulas import order_lower_bound
from qforge.graph import canonical_json, complete_graph
from qforge.oracle import (
    BudgetExhausted,
    SearchBudget,
    _candidate_graphs,
    _Ticker,
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
# Reference enumerator: every combination of missing edges, then filters
# ============================================================
#
# The generate-and-filter enumerator that _candidate_graphs replaced.  It
# lists all combinations and only then applies the degree and connectivity
# tests, so it is slow but obviously complete.


def _reference_candidates(n, edge_target, min_degree):
    pairs = list(combinations(range(n), 2))
    for removed in combinations(range(len(pairs)), len(pairs) - edge_target):
        deficit = [0] * n
        for k in removed:
            i, j = pairs[k]
            deficit[i] += 1
            deficit[j] += 1
        if any(n - 1 - d < min_degree for d in deficit):
            continue
        edges = [pairs[k] for k in range(len(pairs)) if k not in removed]
        if _mini_connected(n, edges):
            yield frozenset(edges)


def test_candidate_graphs_match_reference_enumerator():
    for n in range(7):
        for edge_target in range(n * (n - 1) // 2 + 1):
            for min_degree in (2, 3):
                ticker = _Ticker(SearchBudget())
                pruned = [g.edges for g in _candidate_graphs(n, edge_target, min_degree, ticker)]
                assert pruned == list(_reference_candidates(n, edge_target, min_degree)), (
                    n,
                    edge_target,
                    min_degree,
                )
                assert ticker.nodes == 0  # enumeration steps are not search nodes


def test_candidate_enumeration_obeys_time_cap():
    # 14 edges cannot give 12 vertices degree 3, so nothing is ever yielded and
    # only the clock checked between enumeration steps can stop the search
    ticker = _Ticker(SearchBudget(time_cap=1e-9))
    with pytest.raises(BudgetExhausted, match="time cap"):
        for _ in _candidate_graphs(12, 14, 3, ticker):
            pass
    assert ticker.nodes == 0
    assert ticker.steps == 4096


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


# ============================================================
# Golden outputs
# ============================================================
#
# Generated with the generate-and-filter enumerator: orders, node counts and
# SHA-256 digests of the canonical witness documents.  Any change to the
# enumeration order or to the assembler's branching shows up here.

# (genus, order, nodes, digest); genus >= 3 runs under 100k nodes and is
# capped at the arithmetic lower bound
SCAN_GOLDENS = (
    (0, 4, 3, "f1cf8ec5c4be558a825dd99c3f9a8d6846b2c3a37eff1edae73afc782c042e3d"),
    (1, 5, 11, "9ce258fb02da46a592010490083548b2a960cc8d61056cde53a2128cd6e2fe95"),
    (2, 7, 575, "52fb8cbf11a06406f2be3cbc400cb2686fe7e509f8ca55061a464435ae31ff51"),
    (3, 8, 779, "88b66519b970e32bc0cb63a2387dfc5cef4fdb4d4896bdc399a38f92d8c39343"),
    (4, 8, 1235, "8bf9089c996d6a32c5dd3239ca69567f32545dd66839203867b1d16cb823a624"),
    (5, 9, 430, "85f9426096ca59607e8910feb3c735360bf67f6fdfb9cc2342852c706c201aa7"),
    (6, 10, 3947, "0c6513ed260744f093a2e2aa7893e1723e082ceb6c4233b2d85a88e3d8e6a6fe"),
    (7, 10, 2281, "dd24a814190ad9a00ddd9093712248527594b0d4281d67316fdb715f8312c4e3"),
    (8, 11, 7981, "d14c4cb0f1c4dafbe5e17bdbf50214bf41bf56451569ce4244c09f8c57bc4ff7"),
    (9, 11, 527, "3449ba38982b20c0a605e8b7b4c217d4ce25a912b01ad5691a7af5d12558d7c8"),
    (10, 12, 14757, "6699fd40a5142b368b7fd806bea02f7079288e13328eced512557b41780ce6fc"),
    (11, 12, 946, "305f25d838ea6836ced47c8d9180ee41b5275c069d0003845f75fa370b947f32"),
    (12, 13, 3537, "46d873a55dab0403d2fe41319193e39dfa76cd1963322a897310ba857cc30b5a"),
    (13, 13, 3613, "b0ed92d6783e335e9cd3f7c485a02ecadc0e7276bfd2b794cf6be4a4e57ca0d0"),
    (14, 13, 320, "36ebd9a1c76ea19d233219c2824461b1c024656074d9bfc391feb23be134962d"),
    (15, 14, 2644, "2673425ebc257fca216c4c0a72a180e61610dcce4ab38eac5a2b3598b85c56da"),
    (16, 14, 2208, "50647376aa7bea782328a175a29410e5f7f08ea8dd268005c3d275c2236d99a4"),
)

# (order, genus, digest) for existence searches above the minimum order
SEARCH_GOLDENS = (
    (5, 0, "5a15cbf55476df4bce42bc038c65286b5cfeb668bc6c3c0885c2199dc7007cd4"),
    (6, 0, "417045bb9bc30424f1e35bf10c683a0f421c3b86e3ba12d4512fa67a053825fe"),
    (7, 0, "920ea8683080f91cfe3b5dbcabd9dc66a6ae72f1249aad54ffaa9dcc6f136a51"),
    (8, 0, "ea9c3326bda49b0696496a6ef136b8e7d3af9d2dc1b322ee61b27e345e8e5988"),
    (6, 1, "00f4318fd579168a2fc00d5fc107d4bc1cb2db7136e83d00aa950e81d590f2ca"),
    (7, 1, "219c5304b2ed82971ca8177e237ae5fe532870564065d3fd89c68a3b148c605a"),
    (8, 1, "07b949513c0a08a12735c5bbe10aea1dfbfdf288c6c70c6934ecc833ac13e5cb"),
    (8, 2, "103f9001194ac456f0d5f0641e1f0c8184dfea018307f61caf871b3e02bae8e4"),
    (9, 3, "65a27736a6d524e533f275d36334fc495cb9c033c8109eac4f41e81bc99f1c63"),
    (9, 4, "d714b3c40bd1354665e6a048d376dba5592c1276790ff825eef26c070ad1d457"),
    (10, 5, "14fa6de5e0aa05a16c61b8fb5a834925e20e5667c6a4a56793774f3620f202eb"),
    (11, 7, "06ac84699c796966e8192b8e1f8cc81afee410b903d76a3007e01fc54bbc6486"),
)


def _digest(system):
    document = canonical_json(embedding_to_document(system))
    return hashlib.sha256(document.encode()).hexdigest()


def test_min_order_scan_goldens():
    for genus, order, nodes, digest in SCAN_GOLDENS:
        if genus <= 2:
            found = min_order_bruteforce(genus)
        else:
            found = min_order_bruteforce(
                genus, SearchBudget(max_nodes=100_000), max_order=order_lower_bound(genus)
            )
        assert (found.order, found.nodes, _digest(found.witness)) == (order, nodes, digest), genus


def test_search_goldens():
    for n, genus, digest in SEARCH_GOLDENS:
        assert _digest(search_quadrangulation(n, genus)) == digest, (n, genus)

"""End-to-end acceptance suite.

Each test here is one acceptance check with its tolerance and time budget
pinned; `pytest -v` prints one pass/fail line per check.  Runtime budgets
are asserted, not aspirational, so a regression that slows a search or scan
past its envelope fails loudly.
"""

from __future__ import annotations

import random
import time
from math import isqrt

from qforge.cli import main
from qforge.embedding import (
    load_embedding,
    save_embedding,
    validate_quadrangulation,
)
from qforge.formulas import min_order, min_spine_size, order_lower_bound
from qforge.graph import betti, complete_graph, interlace, make_graph
from qforge.oracle import (
    BudgetExhausted,
    min_order_bruteforce,
    quad_edge_count,
    search_quadrangulation,
)
from qforge.spinal import build_instance, build_spinal_report

from _reference import bounds_agree, complete_spine_order, octahedral_graph, trace_faces


def test_acceptance_1_minimum_order_table():
    start = time.perf_counter()
    for genus, expected in ((0, 4), (1, 5), (2, 7), (3, 8), (53, 24), (55, 24)):
        result = min_order(genus)
        assert result.kind == "exact", genus
        assert result.value == expected, genus
    g4 = min_order(4)
    assert g4.kind == "bounds"
    assert (g4.lower, g4.upper) == (8, 10)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"acceptance 1 PASS: minimum-order table exact in {elapsed:.3f}s")


def test_acceptance_2_square_genus_scan_consistency():
    # Every genus up to 10^6 whose doubled-rank discriminant 8g+1 is an odd
    # perfect square with spine size p >= 4 must pass the agreement gate and
    # give one consistent order along both routes.
    start = time.perf_counter()
    limit = 10**6
    hits = 0
    for genus in range(0, limit + 1):
        s = isqrt(8 * genus + 1)
        if s * s != 8 * genus + 1:
            continue
        p = (3 + s) // 2
        if p < 4:
            continue
        hits += 1
        assert genus >= 3
        assert bounds_agree(genus)
        order, spine = complete_spine_order(genus)
        assert spine == p
        assert order == 2 * p
        assert order == 2 * min_spine_size(genus) == order_lower_bound(genus)
        result = min_order(genus)
        assert (result.kind, result.value, result.source) == ("exact", order, "complete-spine")
    # independent count: spine sizes whose complete graph stays within range
    expected_hits = 0
    p = 4
    while (p - 1) * (p - 2) // 2 <= limit:
        expected_hits += 1
        p += 1
    assert hits == expected_hits
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"acceptance 2 PASS: {hits} square-rank genera consistent in {elapsed:.2f}s")


def test_acceptance_3_complete_spine_builds():
    start = time.perf_counter()
    backtracks = 0
    for p in range(2, 13):
        report = build_instance(p, 0)
        assert report.order == 2 * p
        assert report.genus == (p - 1) * (p - 2) // 2
        assert report.face_count == p * (p - 1)
        check = validate_quadrangulation(report.embedding)
        assert check.is_quadrangulation
        assert check.genus == report.genus
        backtracks += report.backtracks
    for m, faces in ((0, 132), (1, 130), (2, 128)):
        report = build_instance(12, m)
        assert report.face_count == faces
        assert validate_quadrangulation(report.embedding).is_quadrangulation
        backtracks += report.backtracks
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(
        f"acceptance 3 PASS: complete spines p=2..12 verified in {elapsed:.2f}s"
        f" ({backtracks} backtracks)"
    )


def test_acceptance_4_interlace_matches_octahedral():
    start = time.perf_counter()
    for p in range(2, 9):
        doubled = interlace(complete_graph(p))
        reference = octahedral_graph(p)
        assert doubled.vertex_count == reference.vertex_count
        assert doubled.edges == reference.edges
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"acceptance 4 PASS: interlacement identity p=2..8 in {elapsed:.3f}s")


def test_acceptance_5_bruteforce_ground_truth():
    start = time.perf_counter()
    truth = ((0, 4), (1, 5), (2, 7))
    degraded = False
    try:
        for genus, expected in truth:
            found = min_order_bruteforce(genus)
            assert found.order == expected
            report = validate_quadrangulation(found.witness)
            assert report.is_quadrangulation
            assert report.genus == genus
            assert found.witness.graph.vertex_count == expected
    except BudgetExhausted:
        # fallback: direct witnesses at the known orders plus arithmetic
        # impossibility below them, which needs no search at all
        degraded = True
        for genus, expected in truth:
            assert search_quadrangulation(expected, genus) is not None
    # impossibility below each minimum: the edge-count equation already
    # overshoots the complete graph there, so no search is involved
    assert quad_edge_count(4, 1) is None
    assert quad_edge_count(6, 2) is None
    for genus, expected in truth:
        for n in range(4, expected):
            assert quad_edge_count(n, genus) is None
            assert search_quadrangulation(n, genus) is None
    elapsed = time.perf_counter() - start
    assert elapsed < 900.0
    mode = "degraded-to-witness" if degraded else "full-scan"
    print(f"acceptance 5 PASS: oracle ground truth 4/5/7 ({mode}) in {elapsed:.2f}s")


def test_acceptance_6_random_spine_property_suite():
    start = time.perf_counter()
    rng = random.Random(20260814)
    built = 0
    for _ in range(200):
        n = rng.randint(2, 10)
        edges = set()
        for v in range(1, n):
            edges.add((rng.randrange(v), v))
        pool = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in edges]
        rng.shuffle(pool)
        budget = max(0, rng.randint(n - 1, 20) - len(edges))
        edges.update(pool[:budget])
        spine = make_graph(n, edges)

        report = build_spinal_report(spine)
        check = validate_quadrangulation(report.embedding)
        assert check.is_quadrangulation
        assert check.genus == betti(spine)
        assert check.face_count == 2 * spine.edge_count

        faces = trace_faces(report.embedding)
        darts = [d for walk in faces for d in zip(walk, walk[1:] + walk[:1])]
        assert len(darts) == 2 * report.embedding.graph.edge_count
        assert len(set(darts)) == len(darts)
        assert check.euler_characteristic % 2 == 0
        assert check.euler_characteristic <= 2
        built += 1
    assert built == 200
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    print(f"acceptance 6 PASS: 200 random spines built and verified in {elapsed:.2f}s")


def test_acceptance_7_bound_ordering():
    start = time.perf_counter()
    for genus in range(1, 10**4 + 1):
        lower = order_lower_bound(genus)
        upper = 2 * min_spine_size(genus)
        assert lower <= upper
        result = min_order(genus)
        if result.kind == "exact":
            assert lower <= result.value <= upper
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"acceptance 7 PASS: bound ordering g=1..10000 in {elapsed:.2f}s")


def test_acceptance_8_round_trip_and_exit_codes(tmp_path, capsys):
    built = [
        build_instance(4, 0).embedding,
        build_instance(7, 3).embedding,
        build_instance(12, 2).embedding,
        min_order_bruteforce(2).witness,
    ]
    for k, system in enumerate(built):
        first = tmp_path / f"emb{k}a.json"
        second = tmp_path / f"emb{k}b.json"
        genus = validate_quadrangulation(system).genus
        save_embedding(system, first, declared_genus=genus)
        save_embedding(load_embedding(first), second, declared_genus=genus)
        assert first.read_bytes() == second.read_bytes()

    good = tmp_path / "emb0a.json"
    assert main(["verify", str(good)]) == 0

    bad = tmp_path / "triangle.json"
    bad.write_text(
        '{"format":"qforge-embedding/1","rotations":[[1,2],[0,2],[0,1]],"vertex_count":3}\n',
        encoding="utf-8",
    )
    assert main(["verify", str(bad)]) == 1

    mismatch = tmp_path / "mismatch.json"
    mismatch.write_text(
        '{"declared_genus":7,"format":"qforge-embedding/1",'
        '"rotations":[[1,3],[0,2],[1,3],[0,2]],"vertex_count":4}\n',
        encoding="utf-8",
    )
    assert main(["verify", str(mismatch)]) == 1

    garbled = tmp_path / "garbled.json"
    garbled.write_text("]", encoding="utf-8")
    assert main(["verify", str(garbled)]) == 2
    assert main(["verify", str(tmp_path / "absent.json")]) == 2
    assert main(["oracle", "-g", "2", "--max-nodes", "5"]) == 3

    capsys.readouterr()
    print("acceptance 8 PASS: byte-identical round trips and exit codes 0/1/2/3")

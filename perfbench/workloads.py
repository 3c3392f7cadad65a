"""The benchmark's four workloads: inputs, operations and output checks.

Each factory takes the workload seed, the reduced-input switch used by the
smoke test, a scratch directory inside the checkout, and a tracer, and
returns a ``Workload``: the fixed list of operations one pass runs, plus,
for ``cli_io``, the direct library calls that repeat the CLI's work for the
traced run.  The factory itself is the set-up that ``setup_s`` times.

Operation counts and shapes do not depend on the seed; the seed picks the
random spines (and so the embedding documents), the ``spectrum`` genus and
the ``minorder`` rows that are spot-checked.
"""

from __future__ import annotations

import io
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from qforge import cli
from qforge.embedding import load_embedding, save_embedding, validate_quadrangulation
from qforge.formulas import certified_minimal, min_order, order_lower_bound, spectrum
from qforge.graph import (
    Graph,
    betti,
    complete_graph,
    delete_edges_connected,
    interlace,
    load_graph,
    make_graph,
    save_graph,
)
from qforge.oracle import BudgetExhausted, SearchBudget, min_order_bruteforce, search_quadrangulation
from qforge.spinal import build_instance, build_spinal_report


@dataclass
class Op:
    """One operation: ``run(tracer)`` does the timed work and returns its
    output; ``check(output)`` returns a problem description or None."""

    name: str
    run: Callable
    check: Callable


@dataclass
class Workload:
    """One pass's operations, and for ``cli_io`` a replay of the library
    calls behind them, for the traced run."""

    ops: list[Op]
    replay: Callable | None = None


# ============================================================
# Shared helpers
# ============================================================


def spine_shapes(count: int) -> list[tuple[int, int]]:
    """(vertices, chords) of the random spines: n runs over 6..14 and the
    chord count over 0..30, capped at what K_n leaves beyond a tree."""
    shapes = []
    for i in range(count):
        n = 6 + i % 9
        room = n * (n - 1) // 2 - (n - 1)
        shapes.append((n, min(room, (7 * i) % 31)))
    return shapes


def random_spine_edges(rng: random.Random, n: int, chords: int) -> list[tuple[int, int]]:
    """A random spanning tree on n relabeled vertices plus random chords."""
    label = rng.sample(range(n), n)
    edges = [(label[v], label[rng.randrange(v)]) for v in range(1, n)]
    tree = {(min(e), max(e)) for e in edges}
    others = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in tree]
    return edges + rng.sample(others, chords)


def _check_build(report, spine: Graph, minimal: bool | None = None) -> str | None:
    if report.spine != spine:
        return "report spine differs from the requested spine"
    check = validate_quadrangulation(report.embedding)
    if not check.is_quadrangulation:
        return f"not a quadrangulation: {check.failures[0]}"
    genus = betti(spine)
    if check.genus != genus or report.genus != genus:
        return f"genus {check.genus}/{report.genus}, spine cycle rank {genus}"
    faces = 2 * spine.edge_count
    if check.face_count != faces or report.face_count != faces:
        return f"face count {check.face_count}/{report.face_count}, expected {faces}"
    if report.order != 2 * spine.vertex_count or report.embedding.graph != interlace(spine):
        return "embedding is not on the interlaced spine"
    if minimal is not None and report.minimal != minimal:
        return f"minimality flag {report.minimal}, expected {minimal}"
    return None


def _check_witness(system, n: int, genus: int) -> str | None:
    if system is None:
        return f"no quadrangulation reported at order {n}, genus {genus}"
    if system.graph.vertex_count != n:
        return f"witness has order {system.graph.vertex_count}, expected {n}"
    check = validate_quadrangulation(system)
    if not check.is_quadrangulation:
        return f"witness is not a quadrangulation: {check.failures[0]}"
    if check.genus != genus:
        return f"witness genus {check.genus}, expected {genus}"
    return None


def _spinal_counts(tr, report) -> None:
    tr.count("spinal.steps", report.spine.edge_count)
    tr.count("spinal.backtracks", report.backtracks)


# ============================================================
# build: the spinal builder
# ============================================================


def build(seed: int, smoke: bool, workdir: Path, tr) -> Workload:
    complete = [(6, 0), (8, 0), (12, 0), (8, 2)] if smoke else [(12, 0), (20, 0), (28, 0), (12, 2)]
    rng = random.Random(seed)
    ops = []
    for p, m in complete:
        with tr.span("graph", "delete_edges_connected"):
            spine = delete_edges_connected(complete_graph(p), m)
        label = f"K{p}" if m == 0 else f"K{p}-{m}"

        def run(tr, p=p, m=m, label=label):
            with tr.span("spinal", label):
                report = build_instance(p, m)
            _spinal_counts(tr, report)
            return report

        minimal = certified_minimal(p, m)
        ops.append(Op(label, run, lambda r, s=spine, mn=minimal: _check_build(r, s, mn)))
    for i, (n, chords) in enumerate(spine_shapes(5 if smoke else 100)):
        edges = random_spine_edges(rng, n, chords)
        with tr.span("graph", "make_graph"):
            spine = make_graph(n, edges)

        def run(tr, spine=spine, i=i):
            with tr.span("spinal", f"spine{i}"):
                report = build_spinal_report(spine)
            _spinal_counts(tr, report)
            return report

        ops.append(Op(f"spine{i}", run, lambda r, s=spine: _check_build(r, s)))
    return Workload(ops)


# ============================================================
# oracle_witness: minimum-order scans, the face assembler dominates
# ============================================================


def oracle_witness(seed: int, smoke: bool, workdir: Path, tr) -> Workload:
    top, max_nodes = (6, 2_000) if smoke else (34, 100_000)
    ops = []
    for g in range(top + 1):
        if g <= 2:
            expected, known = {0: 4, 1: 5, 2: 7}[g], None
            kwargs = {}
        else:
            with tr.span("formulas", "order_lower_bound"):
                expected = order_lower_bound(g)
                known = min_order(g)
            tr.count("formulas.calls", 2)
            kwargs = {"budget": SearchBudget(max_nodes=max_nodes), "max_order": expected}

        def run(tr, g=g, kwargs=kwargs):
            with tr.span("oracle", f"g{g}") as span:
                try:
                    found = min_order_bruteforce(g, **kwargs)
                except BudgetExhausted:
                    span["verdict"] = False
                    raise
                span["verdict"] = True
                span["nodes"] = found.nodes
            return found

        def check(found, g=g, n=expected, known=known):
            if found.genus != g or found.order != n:
                return f"scan answered genus {found.genus} order {found.order}, expected order {n}"
            if known is not None and known.kind == "exact" and known.value != n:
                return f"witness at order {n} contradicts the exact order {known.value}"
            return _check_witness(found.witness, n, g)

        ops.append(Op(f"g{g}", run, check))
    return Workload(ops)


# ============================================================
# oracle_enum: existence above the minimum order, enumeration dominates
# ============================================================

ENUM_CASES = (
    (5, 0), (6, 0), (7, 0), (8, 0), (6, 1), (7, 1),
    (8, 1), (8, 2), (9, 3), (9, 4), (10, 5), (11, 7),
)
ENUM_SMOKE_CASES = ((5, 0), (6, 0), (7, 0), (6, 1), (7, 1), (8, 2), (9, 4), (10, 5))


def oracle_enum(seed: int, smoke: bool, workdir: Path, tr) -> Workload:
    ops = []
    for n, g in ENUM_SMOKE_CASES if smoke else ENUM_CASES:

        def run(tr, n=n, g=g):
            with tr.span("oracle", f"n{n}g{g}") as span:
                system = search_quadrangulation(n, g)
                span["verdict"] = True
            return system

        ops.append(Op(f"n{n}g{g}", run, lambda s, n=n, g=g: _check_witness(s, n, g)))
    return Workload(ops)


# ============================================================
# cli_io: in-process CLI calls over documents written during set-up
# ============================================================


def _cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_check(expect: Callable[[str], str | None]) -> Callable:
    def check(result) -> str | None:
        code, out, err = result
        if code != 0:
            return f"exit code {code}: {err.strip()[:200]}"
        return expect(out)

    return check


def _min_order_line(g: int) -> str:
    r = min_order(g)
    if r.kind == "exact":
        return f"g={g}: order {r.value} exactly ({r.source})"
    return f"g={g}: order in [{r.lower}, {r.upper}] ({r.source})"


def cli_io(seed: int, smoke: bool, workdir: Path, tr) -> Workload:
    rng = random.Random(seed)
    complete = (8, 6) if smoke else (28, 20, 12)
    scan_top = 2_000 if smoke else 200_000
    spectrum_genus, spectrum_p = rng.randrange(1_000, 2_000), 400
    workdir.mkdir(parents=True, exist_ok=True)

    builds = []  # (name, spine, report)
    for p in complete:
        with tr.span("graph", "complete_graph"):
            spine = complete_graph(p)
        with tr.span("spinal", f"K{p}"):
            builds.append((f"K{p}", spine, build_instance(p, 0)))
    for i, (n, chords) in enumerate(spine_shapes(3 if smoke else 40)):
        edges = random_spine_edges(rng, n, chords)
        with tr.span("graph", "make_graph"):
            spine = make_graph(n, edges)
        with tr.span("spinal", f"spine{i}"):
            builds.append((f"spine{i}", spine, build_spinal_report(spine)))
    documents = []  # (name, path, spine)
    for name, spine, report in builds:
        _spinal_counts(tr, report)
        path = workdir / f"{name}.json"
        with tr.span("embedding", "save"):
            save_embedding(report.embedding, path, declared_genus=report.genus)
        documents.append((name, path, spine))

    graph_spine = builds[-1][1]
    graph_path, interlaced_path = workdir / "spine.json", workdir / "interlaced.json"
    with tr.span("graph", "save_graph"):
        save_graph(graph_spine, graph_path)
    doubled = Graph(
        2 * graph_spine.vertex_count,
        frozenset(
            (min(a, b), max(a, b))
            for u, v in graph_spine.edges
            for a in (2 * u, 2 * u + 1)
            for b in (2 * v, 2 * v + 1)
        ),
    )
    resave_path = workdir / "resave.json"
    sample = sorted(rng.sample(range(scan_top + 1), 64))

    def verify_expect(path: Path, spine: Graph):
        n, e = spine.vertex_count, spine.edge_count
        line = f"ok: order={2 * n} edges={4 * e} faces={2 * e} genus={e - n + 1}\n"

        def expect(out: str) -> str | None:
            if out != line:
                return f"verify printed {out.strip()!r}, expected {line.strip()!r}"
            save_embedding(load_embedding(path), resave_path, declared_genus=e - n + 1)
            if resave_path.read_bytes() != path.read_bytes():
                return "re-saving the verified document changed its bytes"
            return None

        return expect

    def minorder_expect(out: str) -> str | None:
        lines = out.splitlines()
        if len(lines) != scan_top + 1:
            return f"scan printed {len(lines)} lines, expected {scan_top + 1}"
        for g, order in ((0, 4), (1, 5), (2, 7)):
            if lines[g] != f"g={g}: order {order} exactly (small-genus-table)":
                return f"wrong small-genus line {lines[g]!r}"
        p = 4
        while (p - 1) * (p - 2) // 2 <= scan_top:
            g = (p - 1) * (p - 2) // 2
            if lines[g] != f"g={g}: order {2 * p} exactly (complete-spine)":
                return f"wrong complete-spine line {lines[g]!r}"
            p += 1
        for g in sample:
            if lines[g] != _min_order_line(g):
                return f"line {g} reads {lines[g]!r}"
        return None

    spectrum_line = " ".join(
        str(2 * p) for p in range(2, spectrum_p + 1) if (p - 1) * (p - 2) // 2 >= spectrum_genus
    )

    def interlace_expect(out: str) -> str | None:
        if load_graph(interlaced_path) != doubled:
            return "interlaced document differs from the doubled spine"
        return None

    def oracle_expect(out: str) -> str | None:
        head, _, tail = out.partition(" (nodes=")
        if head != "minimum order for genus 2: 7" or not tail.rstrip(")\n").isdigit():
            return f"oracle printed {out.strip()!r}"
        return None

    def op(name: str, label: str, argv: list[str], expect) -> Op:
        def run(tr):
            with tr.span("cli", label):
                return _cli(argv)

        return Op(name, run, _cli_check(expect))

    ops = [
        op(f"verify-{name}", "verify", ["verify", str(path)], verify_expect(path, spine))
        for name, path, spine in documents
    ]
    ops += [
        op("minorder", "minorder", ["minorder", "-g", "0", "--scan", str(scan_top)],
           minorder_expect),
        op("spectrum", "spectrum",
           ["spectrum", "-g", str(spectrum_genus), "--max-p", str(spectrum_p)],
           lambda out: None if out == spectrum_line + "\n" else f"spectrum printed {out!r}"),
        op("interlace", "interlace", ["interlace", str(graph_path), "-o", str(interlaced_path)],
           interlace_expect),
        op("oracle", "oracle", ["oracle", "-g", "2"], oracle_expect),
    ]

    def replay(tr) -> None:
        """The library calls behind each CLI operation, for the same inputs."""
        for name, path, _ in documents:
            with tr.span("embedding", "load") as span:
                span["replay"] = True
                system = load_embedding(path)
            with tr.span("embedding", "validate") as span:
                span.update(replay=True, document=name, darts=2 * system.graph.edge_count)
                validate_quadrangulation(system)
        with tr.span("formulas", "min_order") as span:
            span["replay"] = True
            for g in range(scan_top + 1):
                min_order(g)
        with tr.span("formulas", "spectrum") as span:
            span["replay"] = True
            spectrum(spectrum_genus, spectrum_p)
        tr.count("formulas.calls", scan_top + 2)
        with tr.span("graph", "interlace") as span:
            span["replay"] = True
            save_graph(interlace(load_graph(graph_path)), workdir / "replay.json")
        with tr.span("oracle", "g2") as span:
            span["replay"] = True
            found = min_order_bruteforce(2)
            span.update(verdict=True, nodes=found.nodes)

    return Workload(ops, replay)


WORKLOADS = {
    "build": build,
    "oracle_witness": oracle_witness,
    "oracle_enum": oracle_enum,
    "cli_io": cli_io,
}

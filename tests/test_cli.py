from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

import pytest

from qforge import cli
from qforge.cli import main
from qforge.embedding import load_embedding, save_embedding, validate_quadrangulation
from qforge.formulas import min_order
from qforge.graph import (
    complete_graph,
    delete_edges_connected,
    load_graph,
    make_graph,
    save_graph,
)
from qforge.spinal import BuildError, build_spinal_report

from _reference import octahedral_graph


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ============================================================
# minorder
# ============================================================


def test_minorder_single(capsys):
    code, out, err = run(capsys, "minorder", "-g", "3")
    assert code == 0
    assert out == "g=3: order 8 exactly (complete-spine)\n"
    assert err == ""


def test_minorder_scan_table(capsys):
    code, out, _ = run(capsys, "minorder", "-g", "3", "--scan", "5")
    assert code == 0
    assert out.splitlines() == [
        "g=3: order 8 exactly (complete-spine)",
        "g=4: order in [8, 10] (bounds)",
        "g=5: order in [9, 10] (bounds)",
    ]


def test_minorder_small_genus_table(capsys):
    code, out, _ = run(capsys, "minorder", "-g", "0", "--scan", "2")
    assert code == 0
    assert out.splitlines() == [
        "g=0: order 4 exactly (small-genus-table)",
        "g=1: order 5 exactly (small-genus-table)",
        "g=2: order 7 exactly (small-genus-table)",
    ]


def test_minorder_scan_below_start(capsys):
    code, out, err = run(capsys, "minorder", "-g", "5", "--scan", "3")
    assert code == 2
    assert err.startswith("error:")


def test_minorder_negative_genus(capsys):
    code, _, err = run(capsys, "minorder", "-g", "-1")
    assert code == 2
    assert err.startswith("error:")


def test_minorder_negative_genus_prints_nothing(capsys):
    for argv in (["-g", "-1"], ["-g", "-1", "--scan", "5"]):
        code, out, err = run(capsys, "minorder", *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error:")


def _minorder_line(g):
    # one classification per genus, independent of the run-by-run scan
    r = min_order(g)
    if r.kind == "exact":
        return f"g={g}: order {r.value} exactly ({r.source})"
    return f"g={g}: order in [{r.lower}, {r.upper}] ({r.source})"


@pytest.mark.parametrize(
    "first, last",
    [
        (0, 3000),
        (13, 18),  # starts inside the run 12..14 and ends inside the run 17..19
        (9, 9),  # the last genus of the run 8..9 alone
        (55, 55),  # a complete-spine genus
        (54, 56),
        (10**6 + 17, 10**6 + 2_000),  # crosses seven run boundaries
        (10**15 + 3, 10**15 + 3),
        (10**15 + 3, 10**15 + 2_000),  # inside one run
        (10**12 + 3, 10**12 + 9_000),  # inside one run, more lines than one write
    ],
)
def test_minorder_scan_matches_per_genus_lines(capsys, first, last):
    code, out, _ = run(capsys, "minorder", "-g", str(first), "--scan", str(last))
    assert code == 0
    assert out == "".join(_minorder_line(g) + "\n" for g in range(first, last + 1))


def test_minorder_scan_writes_long_runs_in_chunks(monkeypatch):
    # the genera 10**30 .. 10**30 + 10000 share one answer
    writes = []

    class Sink:
        def write(self, text):
            writes.append(text)

    monkeypatch.setattr(sys, "stdout", Sink())
    assert main(["minorder", "-g", str(10**30), "--scan", str(10**30 + 10_000)]) == 0
    lines = [w.count("\n") for w in writes]
    assert (sum(lines), max(lines)) == (10_001, 4096)


def test_minorder_scan_digest(capsys):
    # stdout of the per-genus scan that the run-by-run scan replaced
    code, out, _ = run(capsys, "minorder", "-g", "0", "--scan", "200000")
    assert code == 0
    data = out.encode()
    assert len(data) == 8_120_358
    assert hashlib.sha256(data).hexdigest() == (
        "bc94146588c165b62ba6eec41391b6d2cab359abcd278c8a9d182e1e1519187d"
    )


# ============================================================
# build
# ============================================================


def test_build_complete_spine(capsys, tmp_path):
    out_file = tmp_path / "k4.json"
    code, out, _ = run(capsys, "build", "--spine", "complete:4", "-o", str(out_file))
    assert code == 0
    assert out.splitlines() == [
        "order=8 genus=3 faces=12 minimal=yes backtracks=0",
        f"wrote {out_file}",
    ]
    system = load_embedding(out_file)
    report = validate_quadrangulation(system)
    assert report.is_quadrangulation
    assert (report.vertex_count, report.genus) == (8, 3)


def test_build_with_deletions(capsys, tmp_path):
    out_file = tmp_path / "near.json"
    code, out, _ = run(
        capsys, "build", "--spine", "complete:12", "--minus", "2", "-o", str(out_file)
    )
    assert code == 0
    assert out.splitlines()[0] == "order=24 genus=53 faces=128 minimal=yes backtracks=0"


def test_build_uncertified(capsys, tmp_path):
    out_file = tmp_path / "k7m1.json"
    code, out, _ = run(capsys, "build", "--spine", "complete:7", "--minus", "1", "-o", str(out_file))
    assert code == 0
    # min_order(14) is [13, 14]: order 14 is neither proven minimal nor not
    assert out.splitlines()[0] == "order=14 genus=14 faces=40 minimal=unknown backtracks=0"


def test_build_single_edge_spine_is_minimal(capsys, tmp_path):
    # the 4-cycle on the sphere has the sphere's minimum order 4
    out_file = tmp_path / "k2.json"
    code, out, _ = run(capsys, "build", "--spine", "complete:2", "-o", str(out_file))
    assert code == 0
    assert out.splitlines()[0] == "order=4 genus=0 faces=2 minimal=yes backtracks=0"


def test_build_from_spine_file(capsys, tmp_path):
    spine_file = tmp_path / "spine.json"
    save_graph(complete_graph(3), spine_file)
    out_file = tmp_path / "emb.json"
    code, out, _ = run(capsys, "build", "--spine-file", str(spine_file), "-o", str(out_file))
    assert code == 0
    # the torus has minimum order 5, below the build's 6
    assert out.splitlines()[0] == "order=6 genus=1 faces=6 minimal=no backtracks=0"
    assert load_embedding(out_file) == build_spinal_report(complete_graph(3)).embedding


def test_build_from_spine_file_reads_minimal_from_min_order(capsys, tmp_path):
    # the spine file gets the same flag as the complete spine it holds; 8
    # vertices with cycle rank 14 give order 16, above min_order(14)'s [13, 14]
    spine_file, out_file = tmp_path / "spine.json", tmp_path / "emb.json"
    for p, m, line in (
        (4, 0, "order=8 genus=3 faces=12 minimal=yes backtracks=0"),
        (7, 1, "order=14 genus=14 faces=40 minimal=unknown backtracks=0"),
        (8, 7, "order=16 genus=14 faces=42 minimal=no backtracks=0"),
    ):
        save_graph(delete_edges_connected(complete_graph(p), m), spine_file)
        code, out, _ = run(capsys, "build", "--spine-file", str(spine_file), "-o", str(out_file))
        assert code == 0
        assert out.splitlines()[0] == line


def test_build_is_byte_stable(capsys, tmp_path):
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["build", "--spine", "complete:5", "-o", str(first)]) == 0
    assert main(["build", "--spine", "complete:5", "-o", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()


def test_build_bad_requests(capsys, tmp_path):
    out_file = str(tmp_path / "x.json")
    spine_file, disconnected = tmp_path / "spine.json", tmp_path / "disconnected.json"
    save_graph(complete_graph(3), spine_file)
    # K_4 plus an isolated vertex: enough edges to connect 5 vertices, yet not connected
    save_graph(make_graph(5, [(i, j) for i in range(4) for j in range(i + 1, 4)]), disconnected)
    for argv in (
        ["build", "--spine", "cycle:4", "-o", out_file],
        ["build", "--spine", "complete:", "-o", out_file],
        ["build", "--spine", "complete:two", "-o", out_file],
        ["build", "--spine", "complete:1", "-o", out_file],
        ["build", "--spine", "complete:4", "--minus", "9", "-o", out_file],
        ["build", "--spine-file", str(spine_file), "--minus", "1", "-o", out_file],
        ["build", "--spine-file", str(tmp_path / "absent.json"), "-o", out_file],
        ["build", "--spine-file", str(disconnected), "-o", out_file],
    ):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2, argv
        assert captured.err.startswith("error:"), argv


def test_build_failure_exits_1_and_writes_nothing(capsys, monkeypatch, tmp_path):
    def failing(*args, **kwargs):
        raise BuildError("no witness left")

    monkeypatch.setattr(cli, "build_instance", failing)
    out_file = tmp_path / "k5.json"
    code, out, err = run(capsys, "build", "--spine", "complete:5", "-o", str(out_file))
    assert (code, out) == (1, "")
    assert err == "build failed: no witness left\n"
    assert not out_file.exists()


def test_build_requires_exactly_one_source(capsys, tmp_path):
    assert main(["build", "-o", str(tmp_path / "x.json")]) == 2
    capsys.readouterr()


# ============================================================
# verify
# ============================================================


def test_verify_ok(capsys, tmp_path):
    out_file = tmp_path / "k4.json"
    main(["build", "--spine", "complete:4", "-o", str(out_file)])
    capsys.readouterr()
    code, out, _ = run(capsys, "verify", str(out_file))
    assert code == 0
    assert out == "ok: order=8 edges=24 faces=12 genus=3\n"


def test_verify_rejects_non_quadrangulation(capsys, tmp_path):
    doc = {
        "format": "qforge-embedding/1",
        "vertex_count": 3,
        "rotations": [[1, 2], [0, 2], [0, 1]],
    }
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 1
    assert out.splitlines() == [
        "FAIL: face 0 (0-1-2) has length 3, not 4",
        "FAIL: face 1 (0-2-1) has length 3, not 4",
    ]


def test_verify_genus_mismatch(capsys, tmp_path):
    square = {
        "format": "qforge-embedding/1",
        "vertex_count": 4,
        "rotations": [[1, 3], [0, 2], [1, 3], [0, 2]],
        "declared_genus": 2,
    }
    # not a quadrangulation either: the genus check comes before any FAIL line
    triangle = {
        "format": "qforge-embedding/1",
        "vertex_count": 3,
        "rotations": [[1, 2], [0, 2], [0, 1]],
        "declared_genus": 1,
    }
    for doc in (square, triangle):
        path = tmp_path / "wrong.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, "verify", str(path))
        assert (code, out) == (1, "")
        declared = doc["declared_genus"]
        assert err == f"verification failed: declared genus {declared} but traced genus is 0\n"


def test_verify_traces_the_faces_once(capsys, tmp_path, trace_calls):
    path = tmp_path / "k5.json"
    save_embedding(build_spinal_report(complete_graph(5)).embedding, path, declared_genus=6)
    assert trace_calls == [10]  # the build's own trace
    trace_calls.clear()
    code, out, _ = run(capsys, "verify", str(path))
    assert (code, out) == (0, "ok: order=10 edges=40 faces=20 genus=6\n")
    assert trace_calls == [10]


def test_verify_bad_documents(capsys, tmp_path):
    missing = tmp_path / "absent.json"
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{oops", encoding="utf-8")
    wrong_format = tmp_path / "graph.json"
    save_graph(complete_graph(3), wrong_format)
    for path in (missing, garbled, wrong_format):
        code, _, err = run(capsys, "verify", str(path))
        assert code == 2
        assert err.startswith("error:")


def test_verify_deeply_nested_document(capsys, tmp_path):
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 200_000, encoding="utf-8")
    code, _, err = run(capsys, "verify", str(nested))
    assert code == 2
    assert err.startswith("error:")


# ============================================================
# interlace
# ============================================================


def test_interlace_command(capsys, tmp_path):
    graph_file = tmp_path / "k3.json"
    save_graph(complete_graph(3), graph_file)
    out_file = tmp_path / "doubled.json"
    code, out, _ = run(capsys, "interlace", str(graph_file), "-o", str(out_file))
    assert code == 0
    assert out == f"wrote {out_file}: vertices=6 edges=12\n"
    assert load_graph(out_file) == octahedral_graph(3)


def test_interlace_byte_stable(capsys, tmp_path):
    graph_file = tmp_path / "k3.json"
    save_graph(complete_graph(3), graph_file)
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    main(["interlace", str(graph_file), "-o", str(first)])
    main(["interlace", str(graph_file), "-o", str(second)])
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()


def test_interlace_deeply_nested_document(capsys, tmp_path):
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 200_000, encoding="utf-8")
    out_file = tmp_path / "doubled.json"
    code, _, err = run(capsys, "interlace", str(nested), "-o", str(out_file))
    assert code == 2
    assert err.startswith("error:")
    assert not out_file.exists()


@pytest.mark.parametrize("command", ["verify", "interlace"])
@pytest.mark.parametrize(
    "content",
    [b"\xff{}", b'{"format":"qforge-graph/1","vertex_count":' + b"9" * 5000 + b"}"],
    ids=["non-utf8", "5000-digit-integer"],
)
def test_unreadable_documents_exit_2(capsys, tmp_path, command, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    out_file = ["-o", str(tmp_path / "out.json")] if command == "interlace" else []
    code, out, err = run(capsys, command, str(path), *out_file)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err


# ============================================================
# oracle
# ============================================================


def test_oracle_exists_yes(capsys, tmp_path):
    witness_file = tmp_path / "w.json"
    code, out, _ = run(capsys, "oracle", "-g", "1", "--order", "5", "-o", str(witness_file))
    assert code == 0
    assert out.splitlines() == [
        "exists: yes (order 5, genus 1)",
        f"wrote {witness_file}",
    ]
    system = load_embedding(witness_file)
    report = validate_quadrangulation(system)
    assert report.is_quadrangulation
    assert (report.vertex_count, report.genus) == (5, 1)


def test_oracle_missing_output_directory_fails_before_the_search(capsys, monkeypatch, tmp_path):
    def unreachable(*args, **kwargs):
        raise AssertionError("the search started")

    monkeypatch.setattr(cli, "min_order_bruteforce", unreachable)
    monkeypatch.setattr(cli, "search_quadrangulation", unreachable)
    missing = tmp_path / "missing" / "w.json"
    for scope in ((), ("--order", "7")):
        code, out, err = run(capsys, "oracle", "-g", "2", *scope, "-o", str(missing))
        assert (code, out) == (2, "")
        assert err == f"error: [Errno 2] No such file or directory: {str(missing)!r}\n"
        code, out, err = run(capsys, "oracle", "-g", "2", *scope, "-o", str(tmp_path))
        assert (code, out) == (2, "")
        assert err == f"error: [Errno 21] Is a directory: {str(tmp_path)!r}\n"
        code, out, err = run(capsys, "oracle", "-g", "2", *scope, "-o", "")
        assert (code, out) == (2, "")
        assert err == "error: [Errno 2] No such file or directory: ''\n"
    assert not missing.parent.exists()


def test_build_and_interlace_missing_output_directory_fail_before_any_work(
    capsys, monkeypatch, tmp_path
):
    def unreachable(*args, **kwargs):
        raise AssertionError("the work started")

    for name in ("build_instance", "build_spinal_report", "load_graph", "interlace"):
        monkeypatch.setattr(cli, name, unreachable)
    spine_file = tmp_path / "spine.json"
    save_graph(complete_graph(3), spine_file)
    missing = tmp_path / "missing" / "k.json"
    for argv in (
        ["build", "--spine", "complete:150"],
        ["build", "--spine-file", str(spine_file)],
        ["interlace", str(spine_file)],
    ):
        code, out, err = run(capsys, *argv, "-o", str(missing))
        assert (code, out) == (2, ""), argv
        assert err == f"error: [Errno 2] No such file or directory: {str(missing)!r}\n", argv
        code, out, err = run(capsys, *argv, "-o", str(tmp_path))
        assert (code, out) == (2, ""), argv
        assert err == f"error: [Errno 21] Is a directory: {str(tmp_path)!r}\n", argv
        code, out, err = run(capsys, *argv, "-o", "")
        assert (code, out) == (2, ""), argv
        assert err == "error: [Errno 2] No such file or directory: ''\n", argv
    assert not missing.parent.exists()


def test_oracle_exists_no(capsys):
    code, out, _ = run(capsys, "oracle", "-g", "1", "--order", "4")
    assert code == 1
    assert out == "exists: no (order 4, genus 1)\n"


def test_oracle_scan(capsys):
    code, out, _ = run(capsys, "oracle", "-g", "2")
    assert code == 0
    assert out.startswith("minimum order for genus 2: 7 (nodes=")


def test_oracle_budget_exhausted(capsys):
    code, _, err = run(capsys, "oracle", "-g", "2", "--max-nodes", "5")
    assert code == 3
    assert err == "inconclusive: node budget 5 exhausted\n"


def test_oracle_scan_cap_below_the_minimum_answers_more_than(capsys):
    # every order up to the cap was searched to the end: a proof, not a budget
    code, out, err = run(capsys, "oracle", "-g", "2", "--max-order", "6")
    assert (code, out, err) == (1, "minimum order for genus 2: more than 6\n", "")


def test_oracle_rejects_bad_budget(capsys):
    code, _, err = run(capsys, "oracle", "-g", "2", "--max-nodes", "0")
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("argv", [["--order", "-5"], ["--order", "-1"], ["--max-order", "-1"]])
def test_oracle_negative_order_is_usage_error(capsys, argv):
    code, out, err = run(capsys, "oracle", "-g", "0", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_oracle_order_and_max_order_conflict(capsys):
    assert main(["oracle", "-g", "2", "--order", "7", "--max-order", "8"]) == 2
    capsys.readouterr()


def test_oracle_order_12_finishes():
    # listing every combination of missing edges for order 12 once ran for
    # minutes, with neither the node budget nor the time cap checked
    argv = ["oracle", "-g", "0", "--order", "12", "--time-cap", "2"]
    proc = subprocess.run(
        [sys.executable, "-m", "qforge.cli", *argv], capture_output=True, text=True, timeout=30
    )
    assert proc.returncode == 0
    assert proc.stdout == "exists: yes (order 12, genus 0)\n"


def test_oracle_order_50_has_no_traceback():
    # order 50 misses 1129 edges of K_50, which once overflowed the recursion
    # limit of a candidate enumerator that recursed once per missing edge
    argv = ["oracle", "-g", "0", "--order", "50", "--time-cap", "2"]
    proc = subprocess.run(
        [sys.executable, "-m", "qforge.cli", *argv], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode in (0, 3)
    assert "Traceback" not in proc.stderr


def _buffered_env():
    # stdout to a pipe is block-buffered unless PYTHONUNBUFFERED is set
    return {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}


def test_closed_stdout_pipe_is_silent():
    # a reader that stops after two lines, like `qforge minorder ... | head -2`
    argv = ["minorder", "-g", "0", "--scan", "200000"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "qforge.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_buffered_env(),
    )
    lines = [proc.stdout.readline() for _ in range(2)]
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert lines == [
        b"g=0: order 4 exactly (small-genus-table)\n",
        b"g=1: order 5 exactly (small-genus-table)\n",
    ]
    assert err == b""


def test_stdout_closed_before_a_short_answer_is_silent():
    # the one line fits in the buffer, so it is written only by a flush; the
    # reader is gone before the interpreter has even imported qforge
    proc = subprocess.Popen(
        [sys.executable, "-m", "qforge.cli", "minorder", "-g", "3"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_buffered_env(),
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""


# ============================================================
# spectrum and general plumbing
# ============================================================


def test_spectrum_command(capsys):
    code, out, _ = run(capsys, "spectrum", "-g", "5", "--max-p", "10")
    assert code == 0
    assert out == "10 12 14 16 18 20\n"


def test_spectrum_empty(capsys):
    code, out, _ = run(capsys, "spectrum", "-g", "56", "--max-p", "12")
    assert code == 0
    assert out == "\n"


def test_spectrum_writes_long_ranges_in_chunks(monkeypatch):
    writes = []

    class Sink:
        def write(self, text):
            writes.append(text)

    monkeypatch.setattr(sys, "stdout", Sink())
    assert main(["spectrum", "-g", "0", "--max-p", "10000"]) == 0
    assert "".join(writes) == " ".join(str(2 * p) for p in range(2, 10_001)) + "\n"
    assert max(len(w.split()) for w in writes) == 4096


def test_spectrum_streams_to_a_reader_that_stops():
    # `qforge spectrum -g 0 --max-p 100000000000 | head -c 64` under a 1 GiB
    # address-space limit: the reader's close ends the run, not a MemoryError
    resource = pytest.importorskip("resource")

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    proc = subprocess.Popen(
        [sys.executable, "-m", "qforge.cli", "spectrum", "-g", "0", "--max-p", str(10**11)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_buffered_env(),
        preexec_fn=limit_address_space,
    )
    head = proc.stdout.read(64)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert head == " ".join(str(2 * p) for p in range(2, 40)).encode()[:64]
    assert err == b""


def test_usage_errors_exit_2(capsys):
    assert main([]) == 2
    assert main(["no-such-command"]) == 2
    assert main(["minorder"]) == 2  # -g is required
    capsys.readouterr()


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "minorder" in out and "oracle" in out


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "qforge.cli", "minorder", "-g", "0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "g=0: order 4 exactly (small-genus-table)\n"

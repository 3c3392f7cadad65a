"""Property-based fuzzing of the command-line front end.

Argument vectors over all six subcommands mix valid values, values out of
range and junk tokens with graph and embedding documents that are valid,
truncated, byte-flipped, missing a key or holding a value of the wrong
kind.  Whatever the input, `main` must return an exit code in {0, 1, 2, 3}
without raising, print no traceback, print exactly one `error:` line when
it returns 2, and print the same stdout when run a second time on the same
files.  Every input is bounded so
that one call stays well under a second: genus at most 60, `--order` at most
12, `--max-nodes` at most 5,000, complete spines on at most 10 vertices, a
scan span of at most 5,000 genera and `--max-p` at most 1,000.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil

import pytest

pytest.importorskip("hypothesis")  # the whole module is one property test

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qforge.cli import main
from qforge.embedding import embedding_to_document
from qforge.graph import canonical_json, complete_graph, graph_to_document, make_graph
from qforge.spinal import build_spinal_report

_GRAPHS = (
    complete_graph(4),
    make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)]),
    make_graph(4, [(0, 1), (2, 3)]),  # disconnected
)
_BASE_DOCUMENTS = tuple(
    [canonical_json(graph_to_document(graph)) for graph in _GRAPHS]
    + [
        canonical_json(embedding_to_document(report.embedding, declared_genus=genus))
        for report in (build_spinal_report(graph) for graph in _GRAPHS[:2])
        for genus in (report.genus, report.genus + 1)
    ]
)


# replacement values for one key of a document: wrong types, huge counts,
# non-finite numbers and malformed edge or rotation lists
_VALUES = (
    -1, 0, 7, 10**6, 10**30, True, None, 1.5, float("inf"), "x", [], [[0, 0]], [[1, 0], [0, 99]]
)


@st.composite
def _documents(draw) -> bytes:
    """A graph or embedding document, valid or damaged in one way:
    truncated, one byte flipped, one key dropped or one value replaced."""
    text = draw(st.sampled_from(_BASE_DOCUMENTS))
    data = text.encode("utf-8")
    damage = draw(st.sampled_from(["none", "none", "truncate", "flip", "drop", "retype"]))
    if damage == "truncate":
        return data[: draw(st.integers(0, len(data) - 1))]
    if damage == "flip":
        i = draw(st.integers(0, len(data) - 1))
        return data[:i] + bytes([data[i] ^ draw(st.integers(1, 255))]) + data[i + 1 :]
    doc = json.loads(text)
    key = draw(st.sampled_from(sorted(doc)))
    if damage == "drop":
        del doc[key]
        return canonical_json(doc).encode("utf-8")
    if damage == "retype":
        doc[key] = draw(st.sampled_from(_VALUES))
        return json.dumps(doc).encode("utf-8")
    return data


_GENUS = st.integers(-3, 60).map(str)
_JUNK = st.sampled_from(["", "x", "-1", "0", "1e3", "nan", "--", "-g", "--order", "--bogus"])
# repeated entries weight the draw toward paths that work
_OUT = st.sampled_from(["out.json", "out.json", "missing/out.json", "."])
_FILE = st.sampled_from(["doc.json", "doc.json", "doc.json", "absent.json", "."])

_MINORDER = st.builds(
    lambda g, span: ["minorder", "-g", g]
    + ([] if span is None else ["--scan", str(int(g) + span)]),
    _GENUS,
    st.one_of(st.none(), st.integers(-3, 5_000)),
)
_BUILD = st.builds(
    lambda source, minus, out: ["build", *source, *minus, "-o", out],
    st.one_of(
        st.integers(-2, 10).map(lambda p: ["--spine", f"complete:{p}"]),
        st.sampled_from(["complete:", "complete:x", "path:3", "complete"]).map(
            lambda spec: ["--spine", spec]
        ),
        _FILE.map(lambda path: ["--spine-file", path]),
    ),
    st.one_of(st.just([]), st.integers(-2, 12).map(lambda m: ["--minus", str(m)])),
    _OUT,
)
_VERIFY = _FILE.map(lambda path: ["verify", path])
_INTERLACE = st.builds(lambda path, out: ["interlace", path, "-o", out], _FILE, _OUT)
_ORACLE = st.builds(
    lambda g, scope, nodes, cap, out: [
        "oracle", "-g", g, *scope, "--max-nodes", str(nodes), *cap, *out
    ],
    _GENUS,
    st.one_of(
        st.just([]),
        st.integers(-2, 12).map(lambda n: ["--order", str(n)]),
        st.integers(-2, 30).map(lambda n: ["--max-order", str(n)]),
    ),
    st.integers(-1, 5_000),
    # a cap that a bounded call never reaches keeps the outcome deterministic
    st.sampled_from([[]] + [["--time-cap", cap] for cap in ("60", "0", "nan")]),
    st.one_of(st.just([]), _OUT.map(lambda path: ["-o", path])),
)
_SPECTRUM = st.builds(
    lambda g, p: ["spectrum", "-g", g, "--max-p", str(p)], _GENUS, st.integers(-3, 1_000)
)
_COMMANDS = ["minorder", "build", "verify", "interlace", "oracle", "spectrum", "nope"]
_JUNK_ARGV = st.builds(
    lambda c, rest: [c, *rest], st.sampled_from(_COMMANDS), st.lists(_JUNK, max_size=4)
)
_ARGV = st.one_of(_MINORDER, _BUILD, _VERIFY, _INTERLACE, _ORACLE, _SPECTRUM, _JUNK_ARGV)


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(argv=_ARGV, document=_documents())
def test_cli_contract_holds_on_fuzzed_input(tmp_path, monkeypatch, argv, document):
    # every example starts from the same directory contents: the document
    # under test and nothing a previous example wrote
    work = tmp_path / "work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    (work / "doc.json").write_bytes(document)
    monkeypatch.chdir(work)
    code, out, err = _run(argv)
    assert code in (0, 1, 2, 3), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    if code == 2:
        assert sum("error:" in line for line in err.splitlines()) == 1, (argv, err)
    again = _run(argv)
    assert again[1] == out, argv

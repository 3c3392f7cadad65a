"""Time one job per fresh interpreter: spinal builds, top-genus searches or
the reading and validation of a big embedding.

Each run prints one JSON line: the round, the source tree, the job's own
fields, wall seconds of the timed call, the process's peak RSS and the
SHA-256 of the witness's canonical document.

``spinal P`` builds the order-2p quadrangulation over the spine K_p with
``build_instance(p, 0)``: the closed-form rotations, four entries per
spine edge (a step), p(p - 1)/2 steps in all, followed by the one full
validation of the finished embedding.  Its fields are p, the steps, the
seconds, microseconds per step (the whole build, final validation
included, over its steps) and the backtracks (always 0); the document is
the one ``qforge build`` writes, declared genus included.

``top N`` searches order n alone at g_top(n) = ((2n - 5)^2 + 7) // 32, the
largest genus whose arithmetic lower bound is n, with
``min_order_bruteforce(g_top(n), max_order=n)``: the oracle's densest
searches, on a near-complete graph, which no ``perfbench`` workload runs.
Its fields are the order, the genus, the search nodes and the seconds; the
document declares no genus.

``verify P`` builds the document of ``spinal P`` untimed, then times the
best of 20 calls of ``embedding_from_document(json.loads(document))``
followed by ``validate_quadrangulation``: JSON parsing, the rotation
system's one dart index, its checks and its one trace of every face, which
both read that index; the reader's genus check and the validation read the
one trace.  Its fields are p, the darts (twice
the edges), the best seconds and darts per second; the document is the
one it reads.

    python3 scripts/fresh_runs.py [--src DIR ...] [--rounds R] {spinal,top,verify} N [N ...]

``--src`` names a tree holding the ``qforge`` package (default: this
checkout's ``src``).  Given twice or more, every round runs each tree once
per size, and the tree that runs first alternates from round to round, so
two commits can be timed in pairs on a noisy host.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

_PRELUDE = """
import hashlib, json, resource, sys, time
from qforge.embedding import embedding_to_document
from qforge.graph import canonical_json
"""

# each job leaves its fields, its witness and the genus its document declares
_JOBS = {
    "spinal": """
from qforge.spinal import build_instance

p = int(sys.argv[1])
start = time.perf_counter()
report = build_instance(p, 0)
seconds = time.perf_counter() - start
steps = report.spine.edge_count
fields = {
    "p": p,
    "steps": steps,
    "seconds": round(seconds, 4),
    "us_per_step": round(seconds / steps * 1e6, 1),
    "backtracks": report.backtracks,
}
witness, declared = report.embedding, report.genus
""",
    "top": """
from qforge.oracle import SearchBudget, min_order_bruteforce

n = int(sys.argv[1])
genus = ((2 * n - 5) ** 2 + 7) // 32
start = time.perf_counter()
found = min_order_bruteforce(genus, SearchBudget(max_nodes=200_000), max_order=n)
seconds = time.perf_counter() - start
fields = {"order": found.order, "genus": genus, "nodes": found.nodes, "seconds": round(seconds, 4)}
witness, declared = found.witness, None
""",
    "verify": """
from qforge.embedding import embedding_from_document, validate_quadrangulation
from qforge.spinal import build_instance

p = int(sys.argv[1])
report = build_instance(p, 0)
text = canonical_json(embedding_to_document(report.embedding, report.genus))
seconds = float("inf")
for _ in range(20):
    start = time.perf_counter()
    witness = embedding_from_document(json.loads(text))
    darts = 2 * validate_quadrangulation(witness).edge_count
    seconds = min(seconds, time.perf_counter() - start)
fields = {"p": p, "darts": darts, "seconds": round(seconds, 6), "darts_per_s": round(darts / seconds)}
declared = report.genus
""",
}

_EPILOGUE = """
document = canonical_json(embedding_to_document(witness, declared)).encode()
print(json.dumps({
    **fields,
    "peak_rss_mib": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    "sha256": hashlib.sha256(document).hexdigest(),
}))
"""


def _run(src: Path, job: str, size: int) -> dict:
    env = {**os.environ, "PYTHONPATH": str(src)}
    child = _PRELUDE + _JOBS[job] + _EPILOGUE
    out = subprocess.run(
        [sys.executable, "-c", child, str(size)],
        env=env, capture_output=True, text=True, check=True,
    )
    return {"src": str(src), **json.loads(out.stdout)}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("job", choices=sorted(_JOBS))
    parser.add_argument("sizes", type=int, nargs="+", metavar="N")
    parser.add_argument("--src", type=Path, action="append")
    parser.add_argument("--rounds", type=int, default=1)
    args = parser.parse_args()
    sources = args.src or [Path(__file__).resolve().parent.parent / "src"]
    for size in args.sizes:
        for round_ in range(args.rounds):
            shift = round_ % len(sources)
            for src in sources[shift:] + sources[:shift]:
                print(json.dumps({"round": round_, **_run(src, args.job, size)}), flush=True)


if __name__ == "__main__":
    main()

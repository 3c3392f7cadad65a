"""Time the oracle's top-genus search at given orders.

g_top(n) = ((2n - 5)^2 + 7) // 32 is the largest genus whose arithmetic
lower bound is n, so ``min_order_bruteforce(g_top(n), max_order=n)``
searches order n alone on a near-complete graph: the oracle's densest
searches, which no ``perfbench`` workload runs.  Each search runs in a
fresh interpreter and prints one JSON line: the source tree, order, genus,
search nodes, wall seconds, the process's peak RSS and the SHA-256 of the
witness's canonical document.

    python3 scripts/top_genus.py [--src DIR ...] [--rounds R] N [N ...]

``--src`` names a tree holding the ``qforge`` package (default: this
checkout's ``src``).  Given twice or more, every round runs each tree once
per order, and the tree that runs first alternates from round to round, so
two commits can be timed in pairs on a noisy host.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

_CHILD = """
import hashlib, json, resource, sys, time
from qforge.embedding import embedding_to_document
from qforge.graph import canonical_json
from qforge.oracle import SearchBudget, min_order_bruteforce

n = int(sys.argv[1])
genus = ((2 * n - 5) ** 2 + 7) // 32
start = time.perf_counter()
found = min_order_bruteforce(genus, SearchBudget(max_nodes=200_000), max_order=n)
seconds = time.perf_counter() - start
document = canonical_json(embedding_to_document(found.witness)).encode()
print(json.dumps({
    "order": found.order,
    "genus": genus,
    "nodes": found.nodes,
    "seconds": round(seconds, 4),
    "peak_rss_mib": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    "sha256": hashlib.sha256(document).hexdigest(),
}))
"""


def _run(src: Path, n: int) -> dict:
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-c", _CHILD, str(n)], env=env, capture_output=True, text=True, check=True
    )
    return {"src": str(src), **json.loads(out.stdout)}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("orders", type=int, nargs="+", metavar="N")
    parser.add_argument("--src", type=Path, action="append")
    parser.add_argument("--rounds", type=int, default=1)
    args = parser.parse_args()
    sources = args.src or [Path(__file__).resolve().parent.parent / "src"]
    for n in args.orders:
        for round_ in range(args.rounds):
            shift = round_ % len(sources)
            for src in sources[shift:] + sources[:shift]:
                print(json.dumps({"round": round_, **_run(src, n)}), flush=True)


if __name__ == "__main__":
    main()

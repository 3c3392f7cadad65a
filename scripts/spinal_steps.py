"""Time the spinal builder per surgery step on complete spines.

``build_instance(p, 0)`` builds the order-2p quadrangulation over the spine
K_p: one surgery step per spine edge, p(p - 1)/2 in all, followed by the
one full validation of the finished embedding.  Each build runs in a fresh
interpreter and prints one JSON line: the source tree, p, the steps, wall
seconds, microseconds per step (the whole build, final validation
included, over its steps), backtracks, the process's peak RSS and the
SHA-256 of the canonical document ``qforge build`` writes, declared genus
included.

    python3 scripts/spinal_steps.py [--src DIR ...] [--rounds R] P [P ...]

``--src`` names a tree holding the ``qforge`` package (default: this
checkout's ``src``).  Given twice or more, every round runs each tree once
per p, and the tree that runs first alternates from round to round, so
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
from qforge.spinal import build_instance

p = int(sys.argv[1])
start = time.perf_counter()
report = build_instance(p, 0)
seconds = time.perf_counter() - start
steps = report.spine.edge_count
document = canonical_json(embedding_to_document(report.embedding, report.genus)).encode()
print(json.dumps({
    "p": p,
    "steps": steps,
    "seconds": round(seconds, 4),
    "us_per_step": round(seconds / steps * 1e6, 1),
    "backtracks": report.backtracks,
    "peak_rss_mib": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    "sha256": hashlib.sha256(document).hexdigest(),
}))
"""


def _run(src: Path, p: int) -> dict:
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-c", _CHILD, str(p)], env=env, capture_output=True, text=True, check=True
    )
    return {"src": str(src), **json.loads(out.stdout)}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("spines", type=int, nargs="+", metavar="P")
    parser.add_argument("--src", type=Path, action="append")
    parser.add_argument("--rounds", type=int, default=1)
    args = parser.parse_args()
    sources = args.src or [Path(__file__).resolve().parent.parent / "src"]
    for p in args.spines:
        for round_ in range(args.rounds):
            shift = round_ % len(sources)
            for src in sources[shift:] + sources[:shift]:
                print(json.dumps({"round": round_, **_run(src, p)}), flush=True)


if __name__ == "__main__":
    main()

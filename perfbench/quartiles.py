"""Run the benchmark once per seed and summarise each metric's spread.

From the repository root:

    python3 perfbench/quartiles.py --workload build --seeds 1-10

Each run is ``perfbench/run.py`` with ``run_seconds`` from BENCHMARK.json.
For every metric the summary gives the median, the quartiles from
``statistics.quantiles(values, n=4)``, and the spread: the distance between
the quartiles as a share of the median.  End-to-end metrics also show their
bound from BENCHMARK.json.  ``--out FILE`` writes the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = []
    for seed in _seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        print(f"seed {seed}: exit {proc.returncode}, correct {result.get('correct')}", flush=True)
        if proc.returncode != 0 or not result.get("correct"):
            print(proc.stdout[-2000:] + proc.stderr[-2000:], file=sys.stderr)
            return 1
        runs.append(result["metrics"])

    summary = {}
    for name, first in runs[0].items():
        summary[name] = summarise([run[name]["value"] for run in runs])
        summary[name]["unit"] = first["unit"]
        s = summary[name]
        bound = f" bound {bounds[name]:.2f}" if name in bounds else ""
        print(f"  {name:<28} median {s['median']:<12.6g} q1 {s['q1']:<12.6g}"
              f" q3 {s['q3']:<12.6g} spread {s['spread']:.4f}{bound} {s['unit']}")
    if args.out:
        args.out.write_text(json.dumps({"workload": args.workload, "seeds": args.seeds,
                                        "trace": args.trace, "metrics": summary}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

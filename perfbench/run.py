"""qforge benchmark: run one workload, check every output, print metrics.

Usage, from the root of a qforge checkout:

    python3 perfbench/run.py --workload build --seed 1 --seconds 18 --trace 0

The workloads are ``build``, ``oracle_witness``, ``oracle_enum`` and
``cli_io`` (see ``workloads.py``).  The package is imported from ``src/`` of
the same checkout, never from an installed copy; without it the command
exits with code 2 and prints no result.

With ``--trace 0`` the run sets the workload up several times, then runs
passes over its fixed operation list for about ``--seconds`` seconds and
reports the end-to-end metrics, with times scaled to a reference host speed
(see CAL_REF_S).  With ``--trace 1`` it sets up once with
spans on, then runs an untraced and a traced pass in turn and reports the
per-layer metrics.  Every output is checked outside the timed region.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
exit code is 0 when every check passed, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

# The benchmark's own hard wall-clock limit for one run, in seconds.  The
# oracle's candidate enumerator does not poll its time cap, so without this
# a run could hang.  Hitting it fails the running and all unfinished ops.
RUN_LIMIT_S = 150.0

# Set-up is repeated at least SETUP_MIN_REPS times, and while it has taken
# under SETUP_BUDGET_S in total, at most SETUP_MAX_REPS times.  One set-up is
# a fresh interpreter's import of the package plus the workload's own
# set-up; setup_s is the median.
SETUP_MIN_REPS, SETUP_MAX_REPS, SETUP_BUDGET_S = 3, 9, 1.5

# Host-speed sampling.  The 2-CPU host this benchmark was tuned on is
# shared: a fixed pure-Python loop runs at anywhere from 1.0x to 1.7x its
# fastest time, in CPU time as well as wall time, and the level drifts over
# seconds to minutes, so raw timings of identical runs spread by 20-40%.  A
# profiling-timer signal therefore times a fixed calibration loop every
# CAL_PERIOD_S of CPU time all through the run, and CAL_SAMPLES more samples
# are taken just before and just after every operation and set-up.  Every
# end-to-end time is scaled to a reference host speed: raw seconds times
# CAL_REF_S over the median of the samples taken during and around it.
# Operation timings exclude the samples' own time.  The raw times are in
# the detail line.
CAL_LOOP, CAL_PERIOD_S, CAL_SAMPLES, CAL_REF_S = 20_000, 0.05, 2, 1.25e-3

# An operation shorter than SHORT_OP_S is run again, back to back, until its
# runs add up to SHORT_OP_S or it has run SHORT_OP_RUNS times; its time in
# the pass is the median run.  Millisecond operations are otherwise at the
# mercy of the host's moment-to-moment noise.  Traced passes run each
# operation once.
SHORT_OP_S, SHORT_OP_RUNS = 0.02, 5

# Prints how long ``import qforge.cli`` takes in a fresh interpreter.
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter();"
    " import qforge.cli; print(time.perf_counter() - t)"
)


class WallClockLimit(BaseException):
    """The run hit RUN_LIMIT_S.  A BaseException, so no handler in the
    package can swallow it."""


def _on_alarm(signum, frame):
    raise WallClockLimit(f"benchmark wall-clock limit of {RUN_LIMIT_S:g} s reached")


def _on_term(signum, frame):
    raise SystemExit(128 + signum)  # so that the scratch directory is removed


def _commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpus": os.cpu_count(),
        "platform": platform.platform(),
        "commit": _commit(),
    }


class HostSampler:
    """Samples how fast the host runs Python code, all through a run.

    Installed as the SIGPROF handler, ``take`` times the calibration loop
    every CAL_PERIOD_S of the process's CPU time, in the middle of long
    operations too.  ``now`` is a clock that leaves out the time spent in
    those samples.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        self._taking = False

    def take(self, *_signal) -> None:
        if self._taking:  # the signal arrived during an explicit sample
            return
        self._taking = True
        try:
            t = perf_counter()
            total = 0
            for i in range(CAL_LOOP):
                total += i * i
            elapsed = perf_counter() - t
            self.samples.append(elapsed)
            self.spent += elapsed
        finally:
            self._taking = False

    def now(self) -> float:
        return perf_counter() - self.spent

    def scale_since(self, first: int) -> float:
        """Factor from raw seconds to seconds at the reference host speed,
        from the samples since index ``first`` plus CAL_SAMPLES more."""
        for _ in range(CAL_SAMPLES):
            self.take()
        return CAL_REF_S / statistics.median(self.samples[first:])

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self.take)
        signal.setitimer(signal.ITIMER_PROF, CAL_PERIOD_S, CAL_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)


def import_seconds(src: Path) -> float:
    """Time to import the package in a fresh, isolated interpreter."""
    probe = subprocess.run([sys.executable, "-I", "-c", IMPORT_PROBE, str(src)],
                           capture_output=True, text=True, check=True, timeout=60)
    return float(probe.stdout)


def tail_percentile(ops_per_pass: int) -> int:
    """Highest whole percentile with at least 10 of one pass's operations
    beyond it; 0 when a pass has 10 or fewer."""
    return max(0, 100 * (ops_per_pass - 10) // ops_per_pass)


def percentile(samples: list[float], q: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


class Runner:
    """Runs passes of one workload and keeps a record per operation."""

    def __init__(self, workload, budget_exhausted, sampler: HostSampler) -> None:
        self.workload = workload
        self.budget_exhausted = budget_exhausted
        self.sampler = sampler
        self.records: list[dict] = []  # every op of every pass started

    def run_pass(self, tr, repeat: bool) -> tuple[float, float]:
        """Run every operation, short ones ``repeat``-ed, then check the
        outputs; return the pass's raw and scaled times.

        Each operation is scaled by the host speed sampled during it and in
        CAL_SAMPLES samples just before and just after it."""
        ops, sampler = self.workload.ops, self.sampler
        records = [{"op": op.name, "index": i, "status": None} for i, op in enumerate(ops)]
        self.records.extend(records)
        for op, rec in zip(ops, records):
            first_sample = len(sampler.samples)
            for _ in range(CAL_SAMPLES):
                sampler.take()
            t = sampler.now()
            try:
                rec["output"] = op.run(tr)
            except self.budget_exhausted:
                rec["status"] = "undecided"
            except Exception as exc:  # any other exception fails the op
                rec["status"] = "failed"
                rec["problem"] = f"unexpected {type(exc).__name__}: {exc}"
            runs = [sampler.now() - t]
            while (repeat and rec["status"] is None
                   and sum(runs) < SHORT_OP_S and len(runs) < SHORT_OP_RUNS):
                t = sampler.now()
                try:
                    op.run(tr)
                except Exception as exc:  # a repeat must behave like the first run
                    rec["status"] = "failed"
                    rec["problem"] = f"repeat raised {type(exc).__name__}: {exc}"
                runs.append(sampler.now() - t)
            rec["seconds"] = statistics.median(runs)
            rec["scale"] = sampler.scale_since(first_sample)
        self.settle(records)
        return (sum(rec["seconds"] for rec in records),
                sum(rec["seconds"] * rec["scale"] for rec in records))

    def settle(self, records: list[dict], reason: str = "") -> None:
        """Check every finished operation; fail, with the reason given, each
        one that never finished."""
        for rec in records:
            if rec["status"] is not None:
                continue
            if "output" in rec:
                problem = self.workload.ops[rec["index"]].check(rec.pop("output"))
            else:
                problem = reason
            rec["status"] = "failed" if problem else "ok"
            if problem:
                rec["problem"] = problem

    def count(self, status: str) -> int:
        return sum(1 for rec in self.records if rec["status"] == status)


def _print_metrics(metrics: dict, notes: dict) -> None:
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<28} {value:>16.6g} {unit}{note}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced inputs, for the benchmark's own smoke test")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "qforge" / "__init__.py").is_file():
        print(f"error: no qforge sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import qforge
    import qforge.cli  # noqa: F401  (the CLI module is not imported by the package)

    if Path(qforge.__file__).resolve().parent != (src / "qforge").resolve():
        print(f"error: imported qforge from {qforge.__file__}, not {src}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.signal(signal.SIGTERM, _on_term)
    signal.setitimer(signal.ITIMER_REAL, RUN_LIMIT_S)
    sampler = HostSampler()
    sampler.start()
    workdir = OUT / f"work-{os.getpid()}"
    try:
        return _measure(args, src, workdir, qforge, tracing, workloads, sampler)
    finally:
        sampler.stop()
        signal.setitimer(signal.ITIMER_REAL, 0)
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(args, src, workdir, qforge, tracing, workloads, sampler) -> int:
    factory = workloads.WORKLOADS[args.workload]
    tracer = tracing.Tracer(sampler.now) if args.trace else None
    setup_raw, setup_times = [], []
    begin = perf_counter()
    try:
        while True:
            first_sample = len(sampler.samples)
            for _ in range(CAL_SAMPLES):
                sampler.take()
            import_s = import_seconds(src)
            t = sampler.now()
            workload = factory(args.seed, args.smoke, workdir, tracer or tracing.NO_TRACE)
            setup_raw.append(import_s + sampler.now() - t)
            setup_times.append(setup_raw[-1] * sampler.scale_since(first_sample))
            if tracer or len(setup_times) >= SETUP_MAX_REPS:
                break
            if len(setup_times) >= SETUP_MIN_REPS and perf_counter() - begin >= SETUP_BUDGET_S:
                break
    except WallClockLimit as exc:
        print(f"error: set-up did not finish: {exc}", file=sys.stderr)
        return 1

    runner = Runner(workload, qforge.BudgetExhausted, sampler)
    passes, traced_passes = [], []  # (raw, scaled) time per pass
    begin = perf_counter()
    try:
        while True:
            pass_start = perf_counter()
            passes.append(runner.run_pass(tracing.NO_TRACE, repeat=True))
            if tracer:
                # Spans of the first traced pass give the layer metrics;
                # later pairs only refine the overhead ratio.
                traced_passes.append(runner.run_pass(
                    tracer if not traced_passes else tracing.Tracer(sampler.now), repeat=False))
            # Start another pass only if at least half of one still fits.
            last = perf_counter() - pass_start
            if perf_counter() - begin + last / 2 > args.seconds:
                break
        if tracer and workload.replay:
            workload.replay(tracer)
    except WallClockLimit as exc:
        runner.settle(runner.records, reason=str(exc))
        if not passes:
            passes.append((perf_counter() - begin,) * 2)
    walls = [scaled for _, scaled in passes]

    attempted, failed = len(runner.records), runner.count("failed")
    undecided = runner.count("undecided")
    n_ops = len(workload.ops)
    q = tail_percentile(n_ops)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "environment": environment(),
        "passes": len(walls),
        "pass_walls_s": walls,
        "pass_walls_raw_s": [raw for raw, _ in passes],
        "traced_pass_walls_raw_s": [raw for raw, _ in traced_passes],
        "ops_per_pass": n_ops,
        "op_tail_percentile": q,
        "setup_reps_s": setup_times,
        "setup_reps_raw_s": setup_raw,
        "undecided_ops": sorted({rec["op"] for rec in runner.records
                                 if rec["status"] == "undecided"}),
        "failures": [f"{rec['op']}: {rec['problem']}" for rec in runner.records
                     if rec["status"] == "failed"][:20],
    }
    print(f"qforge benchmark: workload={args.workload} seed={args.seed} trace={args.trace}"
          f" passes={len(walls)} ops/pass={n_ops} attempted={attempted} failed={failed}")
    print(f"environment: {json.dumps(detail['environment'], sort_keys=True)}")
    for line in detail["failures"]:
        print(f"FAILED {line}")

    if tracer:
        ratios = [scaled / w for (_, scaled), w in zip(traced_passes, walls)]
        reported = tracing.layer_metrics(tracer, statistics.median(ratios) if ratios else 0.0)
        print("per-layer metrics (traced run):")
        _print_metrics(reported, {})
        OUT.mkdir(parents=True, exist_ok=True)
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({"detail": detail, "spans": tracer.spans,
                                          "counts": tracer.counts}))
        detail["trace_file"] = str(trace_file.relative_to(ROOT))
    else:
        wall_s = statistics.median(walls)
        # One time per operation: its median over the run's passes.
        per_op = [[] for _ in workload.ops]
        for rec in runner.records:
            if "scale" in rec:
                per_op[rec["index"]].append(rec["seconds"] * rec["scale"])
        op_times = [statistics.median(times) for times in per_op if times] or [wall_s]
        reported = {
            "setup_s": (statistics.median(setup_times), "s"),
            "wall_s": (wall_s, "s"),
            "ops_per_s": (n_ops / wall_s, "1/s"),
            "op_p50_ms": (1000 * statistics.median(op_times), "ms"),
            "op_tail_ms": (1000 * percentile(op_times, q), "ms"),
            "decided_ratio": ((attempted - undecided - failed) / attempted, "share"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
        print("end-to-end metrics (untraced):")
        _print_metrics(
            {**reported, "fail_ratio": (failed / attempted, "share")},
            {"setup_s": f"median of {len(setup_times)} set-ups, each with a fresh import",
             "op_tail_ms": f"p{q} of {len(op_times)} operations, each its median over passes",
             "fail_ratio": "failed / attempted in the result line"},
        )
    print(f"detail: {json.dumps(detail, sort_keys=True)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in reported.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Subcommands cover the whole library: minimum-order lookups, spinal builds,
embedding verification, interlacement, the brute-force existence oracle,
and the realizable order spectrum.  Human-readable text goes to stdout;
machine-readable documents are always files, written in canonical JSON so
identical inputs produce identical bytes.

Exit codes: 0 success, 1 verification or existence failure or a reader
that closed stdout early, 2 invalid input, 3 inconclusive (search budget
exhausted).
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from itertools import islice
from typing import Sequence

from .embedding import GenusMismatchError, load_embedding, save_embedding, validate_quadrangulation
from .formulas import MinOrderResult, min_order_runs, spectrum
from .graph import interlace, load_graph, save_graph
from .oracle import (
    BudgetExhausted,
    SearchBudget,
    min_order_bruteforce,
    search_quadrangulation,
)
from .spinal import BuildError, build_instance, build_spinal_report

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3

# most minorder lines, or spectrum orders, written at once
_SCAN_CHUNK = 4096


def _format_result(result: MinOrderResult) -> str:
    """The answer of a minorder line, without its "g=<genus>: " prefix."""
    if result.lower == result.upper:
        return f"order {result.upper} exactly ({result.source})"
    return f"order in [{result.lower}, {result.upper}] ({result.source})"


def _cmd_minorder(args: argparse.Namespace) -> int:
    last = args.scan if args.scan is not None else args.genus
    if last < args.genus:
        raise ValueError("--scan must not be below -g")
    # one classification per run of genera sharing an answer, and one write
    # per run or per _SCAN_CHUNK lines of it: a run near genus 10**30 spans
    # about 10**14 genera, so whole runs could not be held in memory
    for start, stop, result in min_order_runs(args.genus, last):
        tail = f": {_format_result(result)}\n"
        for first in range(start, stop + 1, _SCAN_CHUNK):
            chunk = range(first, min(first + _SCAN_CHUNK, stop + 1))
            sys.stdout.write("g=" + (tail + "g=").join(map(str, chunk)) + tail)
    return EXIT_OK


def _parse_spine_spec(spec: str) -> int:
    kind, _, raw = spec.partition(":")
    if kind != "complete" or not raw:
        raise ValueError("--spine must look like complete:<p>")
    try:
        p = int(raw)
    except ValueError as exc:
        raise ValueError(f"bad spine size {raw!r}") from exc
    return p


def _require_out_dir(path: str | None) -> None:
    """Refuse an output path whose directory is missing, or that is itself
    a directory, before any work starts: a build or a search may run long,
    and its result could not be written after it.  Only None means no
    output; an empty path names no file."""
    if path is None:
        return
    if not path or not os.path.isdir(os.path.dirname(path) or "."):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)


def _cmd_build(args: argparse.Namespace) -> int:
    _require_out_dir(args.out)
    if args.spine is not None:
        p = _parse_spine_spec(args.spine)
        report = build_instance(p, args.minus)
    else:
        if args.minus:
            raise ValueError("--minus only applies to --spine complete:<p>")
        report = build_spinal_report(load_graph(args.spine_file))
    minimal = {True: "yes", False: "no", None: "unknown"}[report.minimal]
    save_embedding(report.embedding, args.out, declared_genus=report.genus)
    print(
        f"order={report.order} genus={report.genus} faces={report.face_count}"
        f" minimal={minimal} backtracks={report.backtracks}"
    )
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    # the reader compares the declared genus before anything is printed
    report = validate_quadrangulation(load_embedding(args.embedding_file))
    if not report.is_quadrangulation:
        for failure in report.failures:
            print(f"FAIL: {failure}")
        return EXIT_FAIL
    print(
        f"ok: order={report.vertex_count} edges={report.edge_count}"
        f" faces={report.face_count} genus={report.genus}"
    )
    return EXIT_OK


def _cmd_interlace(args: argparse.Namespace) -> int:
    _require_out_dir(args.out)
    doubled = interlace(load_graph(args.graph_file))
    save_graph(doubled, args.out)
    print(f"wrote {args.out}: vertices={doubled.vertex_count} edges={doubled.edge_count}")
    return EXIT_OK


def _cmd_oracle(args: argparse.Namespace) -> int:
    budget = SearchBudget(max_nodes=args.max_nodes, time_cap=args.time_cap)
    _require_out_dir(args.out)
    if args.order is not None:
        system = search_quadrangulation(args.order, args.genus, budget)
        if system is None:
            print(f"exists: no (order {args.order}, genus {args.genus})")
            return EXIT_FAIL
        print(f"exists: yes (order {args.order}, genus {args.genus})")
    else:
        found = min_order_bruteforce(args.genus, budget, max_order=args.max_order)
        if found is None:
            print(f"minimum order for genus {args.genus}: more than {args.max_order}")
            return EXIT_FAIL
        system = found.witness
        print(f"minimum order for genus {args.genus}: {found.order} (nodes={found.nodes})")
    if args.out is not None:
        save_embedding(system, args.out, declared_genus=args.genus)
        print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_spectrum(args: argparse.Namespace) -> int:
    # one write per _SCAN_CHUNK orders: a large --max-p spans more orders
    # than one string could hold
    orders = map(str, spectrum(args.genus, args.max_p))
    separator = ""
    while chunk := list(islice(orders, _SCAN_CHUNK)):
        sys.stdout.write(separator + " ".join(chunk))
        separator = " "
    sys.stdout.write("\n")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qforge",
        description="Minimum-order quadrangulations of closed orientable surfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_min = sub.add_parser("minorder", help="minimum quadrangulation order per genus")
    p_min.add_argument("-g", "--genus", type=int, required=True)
    p_min.add_argument("--scan", type=int, default=None, help="print a table up to this genus")
    p_min.set_defaults(handler=_cmd_minorder)

    p_build = sub.add_parser("build", help="build a verified spinal quadrangulation")
    source = p_build.add_mutually_exclusive_group(required=True)
    source.add_argument("--spine", help="spine spec, e.g. complete:12")
    source.add_argument("--spine-file", help="path to a graph document to use as spine")
    p_build.add_argument("--minus", type=int, default=0, help="edges to delete from a complete spine")
    p_build.add_argument("-o", "--out", required=True, help="embedding document to write")
    p_build.set_defaults(handler=_cmd_build)

    p_verify = sub.add_parser("verify", help="validate an embedding document")
    p_verify.add_argument("embedding_file")
    p_verify.set_defaults(handler=_cmd_verify)

    p_inter = sub.add_parser("interlace", help="write the 2-fold interlacement of a graph")
    p_inter.add_argument("graph_file")
    p_inter.add_argument("-o", "--out", required=True, help="graph document to write")
    p_inter.set_defaults(handler=_cmd_interlace)

    p_oracle = sub.add_parser("oracle", help="brute-force existence search")
    p_oracle.add_argument("-g", "--genus", type=int, required=True)
    scope = p_oracle.add_mutually_exclusive_group()
    scope.add_argument("--order", type=int, default=None, help="test one specific order")
    scope.add_argument("--max-order", type=int, default=None, help="cap the minimum-order scan")
    defaults = SearchBudget()
    p_oracle.add_argument("--max-nodes", type=int, default=defaults.max_nodes)
    p_oracle.add_argument("--time-cap", type=float, default=defaults.time_cap)
    p_oracle.add_argument("-o", "--out", default=None, help="witness embedding to write on success")
    p_oracle.set_defaults(handler=_cmd_oracle)

    p_spec = sub.add_parser("spectrum", help="orders realizable by spinal quadrangulations")
    p_spec.add_argument("-g", "--genus", type=int, required=True)
    p_spec.add_argument("--max-p", type=int, required=True, help="largest spine size to include")
    p_spec.set_defaults(handler=_cmd_spectrum)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        code = args.handler(args)
        if sys.stdout is sys.__stdout__:
            # a reader that is gone then raises here, not at exit; an
            # in-process caller that swapped sys.stdout flushes its own
            sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone (say `qforge minorder ... | head`): send the
        # rest of stdout to devnull so the final flush at exit stays silent
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_FAIL
    except GenusMismatchError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except BudgetExhausted as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except BuildError as exc:
        print(f"build failed: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

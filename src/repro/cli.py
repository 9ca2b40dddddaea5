"""Command-line interface: ``python -m repro <command>``.

Four sub-commands cover the workflows a user reaches for before writing
code against the API:

``generate``
    Emit one of the benchmark distribution families as CSV.

``skyline``
    Compute the skyline of a CSV point file with a chosen static
    algorithm (KLP / BNL / SFS / BBS / naive).

``window``
    Replay a CSV file as a stream through the n-of-N engine and answer
    queries: either a one-shot ``--n`` query at the end, or
    ``--every K`` continuous reporting.

``info``
    Print the library version and the available algorithms/families.

All commands read/write plain CSV (one point per row) so they compose
with standard shell tooling.
"""

from __future__ import annotations

import argparse
import csv
import sys
from typing import Iterable, List, Optional, Sequence, TextIO, Tuple, Union

from repro import __version__
from repro.baselines import (
    bbs_skyline,
    bnl_skyline,
    klp_skyline,
    naive_skyline,
    sfs_skyline,
)
from repro.bench.reporting import format_percent, format_rate
from repro.core.continuous import ContinuousQueryManager
from repro.core.nofn import NofNSkyline
from repro.core.query_index import mixed_query_plan
from repro.core.skyband import KSkybandEngine
from repro.sanitize.sanitizer import MODES
from repro.streams.generators import distributions, make_stream

ALGORITHMS = {
    "klp": klp_skyline,
    "bnl": bnl_skyline,
    "sfs": sfs_skyline,
    "bbs": bbs_skyline,
    "naive": naive_skyline,
}

WindowEngine = Union[KSkybandEngine, NofNSkyline]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Sliding-window skyline computation (ICDE 2005 reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="emit a synthetic stream as CSV")
    gen.add_argument("--distribution", "-D", default="independent",
                     help=f"one of {distributions()} (aliases accepted)")
    gen.add_argument("--dim", "-d", type=int, default=2)
    gen.add_argument("--count", "-c", type=int, default=1000)
    gen.add_argument("--seed", "-s", type=int, default=0)

    sky = sub.add_parser("skyline", help="skyline of a CSV point file")
    sky.add_argument("input", nargs="?", default="-",
                     help="CSV file of points ('-' for stdin)")
    sky.add_argument("--algorithm", "-a", default="klp",
                     choices=sorted(ALGORITHMS))
    sky.add_argument("--indices", action="store_true",
                     help="print 0-based row indices instead of points")

    win = sub.add_parser("window", help="replay a CSV stream through n-of-N")
    win.add_argument("input", nargs="?", default="-",
                     help="CSV file of points ('-' for stdin)")
    win.add_argument("--capacity", "-N", type=int, required=True,
                     help="window size N")
    win.add_argument("--n", type=int, default=None,
                     help="n-of-N query to answer at end of stream "
                          "(default: n = N)")
    win.add_argument("--every", type=int, default=None, metavar="K",
                     help="also report the query after every K arrivals")
    win.add_argument("--band", type=int, default=1, metavar="k",
                     help="report the k-skyband instead of the skyline "
                          "(default 1 = skyline)")
    win.add_argument("--batch", type=int, default=None, metavar="B",
                     help="ingest through the batched fast path, B points "
                          "per append_many call (aligned to --every "
                          "boundaries); prints batch stats at the end")
    win.add_argument("--batch-chunk", type=int, default=None, metavar="C",
                     help="internal chunk size of the batched pipeline: "
                          "each append_many call is processed in slices "
                          "of at most C elements (prefilter matrix, bulk "
                          "index searches and flushes are per-slice); "
                          "default is the library chunk (1024)")
    win.add_argument("--sanitize", default="off", choices=list(MODES),
                     help="runtime invariant checking: verify the paper's "
                          "structural theorems after every arrival (full), "
                          "every 64th maintenance event (sampled), or not "
                          "at all (off, the default)")
    win.add_argument("--query-cache", default="on", choices=("on", "off"),
                     help="versioned stab cache for queries: memoize stab "
                          "results until the dominance index changes "
                          "(default on)")
    win.add_argument("--continuous-queries", type=int, default=0, metavar="Q",
                     help="register Q continuous n-of-N queries (a "
                          "deterministic mixed distinct/duplicate window "
                          "plan) and maintain them incrementally while "
                          "feeding; prints a summary line at the end; "
                          "requires --band 1 (default 0)")

    sub.add_parser("info", help="version and capability summary")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        if args.command == "generate":
            return _cmd_generate(args, sys.stdout)
        if args.command == "skyline":
            return _cmd_skyline(args, sys.stdout)
        if args.command == "window":
            return _cmd_window(args, sys.stdout)
        return _cmd_info(sys.stdout)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _cmd_generate(args: argparse.Namespace, out: TextIO) -> int:
    writer = csv.writer(out)
    for point in make_stream(args.distribution, args.dim, args.count, args.seed):
        writer.writerow([f"{v:.6f}" for v in point])
    return 0


def _cmd_skyline(args: argparse.Namespace, out: TextIO) -> int:
    points = _read_points(args.input)
    result = ALGORITHMS[args.algorithm](points)
    writer = csv.writer(out)
    for idx in result:
        if args.indices:
            writer.writerow([idx])
        else:
            writer.writerow([f"{v:g}" for v in points[idx]])
    return 0


def _cmd_window(args: argparse.Namespace, out: TextIO) -> int:
    if args.capacity < 1:
        raise ValueError("--capacity must be >= 1")
    n = args.n if args.n is not None else args.capacity
    if not 1 <= n <= args.capacity:
        raise ValueError(f"--n must be in [1, {args.capacity}]")
    if args.every is not None and args.every < 1:
        raise ValueError("--every must be >= 1")
    if args.band < 1:
        raise ValueError("--band must be >= 1")
    if args.batch is not None and args.batch < 1:
        raise ValueError("--batch must be >= 1")
    if args.batch_chunk is not None and args.batch_chunk < 1:
        raise ValueError("--batch-chunk must be >= 1")

    if args.continuous_queries < 0:
        raise ValueError("--continuous-queries must be >= 0")
    if args.continuous_queries and args.band > 1:
        raise ValueError("--continuous-queries requires --band 1")

    points = _read_points(args.input)
    if not points:
        return 0
    engine = _build_window_engine(args, dim=len(points[0]))
    manager: Optional[ContinuousQueryManager] = None
    if args.continuous_queries:
        if not isinstance(engine, NofNSkyline):
            raise ValueError(
                "--continuous-queries requires the plain nofn engine"
            )
        manager = ContinuousQueryManager(engine, sanitize=args.sanitize)
        for window in mixed_query_plan(args.continuous_queries, args.capacity):
            manager.register(window)
    feeder: Union[WindowEngine, ContinuousQueryManager] = (
        manager if manager is not None else engine
    )
    if args.batch:
        # Batches are clipped at --every boundaries so the reports land
        # after exactly the same arrivals as per-element replay.
        fed = 0
        while fed < len(points):
            upper = min(fed + args.batch, len(points))
            if args.every:
                next_report = (fed // args.every + 1) * args.every
                upper = min(upper, next_report)
            feeder.append_many(points[fed:upper])
            fed = upper
            if args.every and fed % args.every == 0:
                _print_result(out, engine, n, label=f"after {fed}")
    else:
        for i, point in enumerate(points):
            feeder.append(point)
            if args.every and (i + 1) % args.every == 0:
                _print_result(out, engine, n, label=f"after {i + 1}")
    _print_result(out, engine, n, label="final")
    if manager is not None:
        _print_continuous(out, manager)
    if args.batch:
        _print_batch_stats(out, engine)
    return 0


def _build_window_engine(args: argparse.Namespace, dim: int) -> WindowEngine:
    query_cache = args.query_cache == "on"
    if args.band > 1:
        return KSkybandEngine(
            dim=dim,
            capacity=args.capacity,
            k=args.band,
            sanitize=args.sanitize,
            query_cache=query_cache,
            batch_chunk=args.batch_chunk,
        )
    return NofNSkyline(
        dim=dim,
        capacity=args.capacity,
        sanitize=args.sanitize,
        query_cache=query_cache,
        batch_chunk=args.batch_chunk,
    )


def _print_result(
    out: TextIO, engine: WindowEngine, n: int, label: str
) -> None:
    result = engine.query(n)
    kappas = ",".join(str(e.kappa) for e in result)
    print(f"{label}\tn={n}\tsize={len(result)}\tkappas={kappas}", file=out)


def _print_continuous(out: TextIO, manager: ContinuousQueryManager) -> None:
    """One summary line for the maintained continuous-query set, with a
    live cross-check of the lowest-id handle against a fresh stab."""
    groups = len({h.n for h in manager})
    probe = min(manager, key=lambda h: h.query_id)
    live = [e.kappa for e in manager.engine.query(probe.n)]
    match = "yes" if probe.result_kappas() == live else "NO"
    print(
        f"continuous\tqueries={len(manager)}\tgroups={groups}"
        f"\tprobe_n={probe.n}"
        f"\tprobe_match={match}",
        file=out,
    )


def _print_batch_stats(out: TextIO, engine: WindowEngine) -> None:
    stats = engine.stats
    print(
        f"batch\tbatches={stats.batches}"
        f"\tmean_size={stats.batch_size_mean:.3g}"
        f"\tkill_rate={format_percent(stats.prefilter_kill_rate)}"
        f"\tthroughput={format_rate(stats.batch_throughput)}",
        file=out,
    )


def _cmd_info(out: TextIO) -> int:
    print(f"repro {__version__} — sliding-window skyline (ICDE 2005)", file=out)
    print(f"distributions: {', '.join(distributions())}", file=out)
    print(f"static algorithms: {', '.join(sorted(ALGORITHMS))}", file=out)
    print("engines: NofNSkyline, N1N2Skyline, TimeWindowSkyline", file=out)
    return 0


def _read_points(path: str) -> List[Tuple[float, ...]]:
    if path == "-":
        return _parse_rows(csv.reader(sys.stdin))
    with open(path, newline="") as handle:
        return _parse_rows(csv.reader(handle))


def _parse_rows(reader: Iterable[List[str]]) -> List[Tuple[float, ...]]:
    points: List[Tuple[float, ...]] = []
    dim = None
    for row_number, row in enumerate(reader, start=1):
        if not row:
            continue
        try:
            point = tuple(float(cell) for cell in row)
        except ValueError as exc:
            raise ValueError(f"row {row_number}: {exc}") from None
        if dim is None:
            dim = len(point)
        elif len(point) != dim:
            raise ValueError(
                f"row {row_number}: expected {dim} columns, got {len(point)}"
            )
        points.append(point)
    return points


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

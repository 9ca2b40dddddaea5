"""End-to-end stream benchmark: one closed-loop client per workload.

Run from the repository root::

    python3 perfbench/run.py --workload burst-ingest-d5 --seed 1 --seconds 20 --trace 0

``--trace 0`` builds the engine three times (``setup_s`` is the median),
probing the machine's speed around the builds (see ``speed.py``),
then feeds the stream until the library calls have taken ``--seconds``
seconds, and reports the end-to-end metrics.  ``--trace 1`` makes two
passes of the workload's fixed ``checkpoint_rounds``, the first
untraced and the second with span wrappers installed, and reports the
per-layer metrics; the spans go to ``perfbench/out/<workload>.jsonl``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it is a JSON ``report`` of the run.  ``perfbench/README.md`` explains
the metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import random
import resource
import sys
import traceback
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Set-ups per untraced run; ``setup_s`` reports their median.
SETUPS = 3

#: The library's own counters compared between passes: identical
#: values mean the tracing wrappers did not change what the library did.
STATS_COUNTERS = (
    "arrivals",
    "expiries",
    "dominated_removed",
    "rn_size_sum",
    "batch_elements",
    "prefilter_dropped",
    "queries",
)


def percentile(values: List[float], pct: float) -> float:
    """Nearest-rank percentile (a value that was measured); 0 when a run
    failed before measuring anything."""
    ordered = sorted(values)
    return ordered[_rank(len(ordered), pct) - 1] if ordered else 0.0


def _rank(count: int, pct: float) -> int:
    return max(1, math.ceil(pct / 100.0 * count))


def counters(session: Any) -> Dict[str, Optional[int]]:
    """The library's deterministic counters; ``None`` where the library
    no longer exposes one."""
    engine = session.engine
    stats = getattr(engine, "stats", None)
    out: Dict[str, Optional[int]] = {key: getattr(stats, key, None) for key in STATS_COUNTERS}
    cache_stats = getattr(engine, "cache_stats", None)
    cache = cache_stats() if callable(cache_stats) else None
    for key in ("hits", "misses", "rebuilds"):
        out[f"cache_{key}"] = None if cache is None else cache.get(key)
    manager = session.manager
    if manager is None:
        out.update(routed_events=0, touched_groups=0, result_changes=0)
        return out
    index_stats = getattr(manager, "query_index_stats", None)
    index = index_stats() if callable(index_stats) else None
    for key in ("routed_events", "touched_groups"):
        out[key] = None if index is None else index.get(key)
    out["result_changes"] = sum(handle.changes for handle in session.handles)
    return out


def delta(
    now: Dict[str, Optional[int]], base: Dict[str, Optional[int]]
) -> Dict[str, Optional[int]]:
    return {
        key: None if now[key] is None or base[key] is None else now[key] - base[key]
        for key in now
    }


class Pass:
    """One build-and-feed pass of a workload and what it measured."""

    def __init__(self) -> None:
        self.setup_s: List[float] = []
        #: Probes run before each set-up and after the last.
        self.setup_probes: List[float] = []
        self.update_s: List[float] = []
        self.query_s: List[float] = []
        #: Round of each query, and the probes run after each round
        #: (see ``speed.py``).
        self.query_round: List[int] = []
        self.round_probes: List[List[float]] = []
        self.busy_s = 0.0
        self.elements = 0
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.oracle_checks = 0
        self.oracle_s = 0.0
        self.checkpoint: Optional[Dict[str, Optional[int]]] = None
        self.session: Any = None

    def fail(self, what: str) -> None:
        self.failed += 1
        print(f"FAILED: {what}", file=sys.stderr)

    def speed(self) -> float:
        from speed import speed

        return speed([s for probes in self.round_probes for s in probes])

    def scaled_updates(self) -> List[float]:
        from speed import round_speeds

        return [t / v for t, v in zip(self.update_s, round_speeds(self.round_probes))]

    def scaled_queries(self) -> List[float]:
        from speed import round_speeds

        speeds = round_speeds(self.round_probes)
        return [t / speeds[r] for t, r in zip(self.query_s, self.query_round) if r < len(speeds)]


def oracle_due(query_number: int, base: int) -> bool:
    """Queries 0, 1, base, base**2, ... of a pass are checked."""
    if query_number <= 1:
        return True
    while query_number % base == 0:
        query_number //= base
    return query_number == 1


def run_pass(
    workload: Any,
    seed: int,
    setups: int,
    seconds: Optional[float] = None,
    rounds: Optional[int] = None,
    tracer: Any = None,
) -> Pass:
    """Build the workload ``setups`` times, then feed it for ``seconds``
    of library time or for ``rounds`` rounds."""
    from oracle import answer_matches
    from speed import DUTY, SETUP_PROBE_S, probe_for
    from workloads import Feed, Session, oracle_slice, query_specs

    result = Pass()
    feed = Feed(workload, seed)
    prefill = feed.take(workload.capacity)
    session = None
    for _ in range(setups):
        session = None
        gc.collect()
        result.setup_probes.extend(probe_for(SETUP_PROBE_S))
        started = perf_counter()
        fresh = Session(workload)
        fresh.build(prefill)
        result.setup_s.append(perf_counter() - started)
        session = fresh
    result.setup_probes.extend(probe_for(SETUP_PROBE_S))
    assert session is not None
    result.session = session
    del prefill
    gc.collect()

    base = counters(session)
    specs = query_specs(workload, random.Random(seed * 7919 + 17))
    queries = 0
    if tracer is not None:
        # Before the calls are bound, so that they bind the wrappers.
        tracer.install(session)
    try:
        update = session.update_call()
        query = session.query_call()
        while rounds is None or result.rounds < rounds:
            if seconds is not None and result.busy_s >= seconds:
                break
            if tracer is not None:
                tracer.round = result.rounds
            round_busy = 0.0
            raised = False
            points = feed.take(workload.batch)
            result.attempted += 1
            started = perf_counter()
            try:
                update(points)
            except Exception:
                # The engine's state is unknown after a raise: stop.
                result.fail(f"update at M={feed.m}\n{traceback.format_exc()}")
                break
            took = perf_counter() - started
            result.update_s.append(took)
            round_busy += took
            for _ in range(workload.queries_per_round):
                spec = next(specs)
                result.attempted += 1
                started = perf_counter()
                try:
                    answer = query(spec)
                except Exception:
                    result.fail(f"query {spec} at M={feed.m}\n{traceback.format_exc()}")
                    raised = True
                    break
                took = perf_counter() - started
                result.query_s.append(took)
                result.query_round.append(result.rounds)
                round_busy += took
                if oracle_due(queries, workload.oracle_base):
                    started = perf_counter()
                    first, last = oracle_slice(workload, feed.m, spec)
                    result.oracle_checks += 1
                    if not answer_matches(
                        feed.slice(first, last), first, [e.kappa for e in answer]
                    ):
                        result.fail(f"query {spec} at M={feed.m}: wrong answer")
                    result.oracle_s += perf_counter() - started
                queries += 1
            if raised:
                break
            result.elements += len(points)
            result.busy_s += round_busy
            result.round_probes.append(probe_for(DUTY * round_busy))
            result.rounds += 1
            if result.rounds == workload.checkpoint_rounds:
                result.checkpoint = delta(counters(session), base)
    finally:
        if tracer is not None:
            tracer.uninstall()

    started = perf_counter()
    for handle in session.handles:
        result.attempted += 1
        result.oracle_checks += 1
        first = max(1, feed.m - handle.n + 1)
        if not answer_matches(feed.slice(first, feed.m), first, handle.result_kappas()):
            result.fail(f"continuous query n={handle.n} at M={feed.m}: wrong result")
    result.oracle_s += perf_counter() - started
    return result


def end_to_end(
    workload: Any, seed: int, seconds: float
) -> Tuple[Pass, Dict[str, Any], Dict[str, Any]]:
    run = run_pass(workload, seed, setups=SETUPS, seconds=seconds)
    updates = run.scaled_updates()
    queries = run.scaled_queries()
    scaled_busy = sum(updates) + sum(queries)
    ms, us = 1e3, 1e6

    def where(values: List[float], pct: float) -> Dict[str, Any]:
        return {
            "percentile": pct,
            "samples": len(values),
            "beyond": len(values) - _rank(len(values), pct),
        }

    from speed import speed

    setup_speed = speed(run.setup_probes)
    metrics = {
        # A set-up is one long call with no probe inside it, so it is
        # scaled by the probes of the whole set-up phase, not per set-up.
        "setup_s": (median(run.setup_s) / setup_speed, "s"),
        "throughput_eps": (run.elements / scaled_busy if scaled_busy else 0.0, "1/s"),
        "update_p50_ms": (percentile(updates, 50) * ms, "ms"),
        "update_tail_ms": (percentile(updates, workload.update_tail_pct) * ms, "ms"),
        "query_p50_us": (percentile(queries, 50) * us, "us"),
        "query_tail_us": (percentile(queries, workload.query_tail_pct) * us, "us"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    details = {
        "update_tail": where(updates, workload.update_tail_pct),
        "query_tail": where(queries, workload.query_tail_pct),
        "machine_speed": run.speed(),
        "setup_runs_s": run.setup_s,
        "setup_speed": setup_speed,
        "unscaled": {
            "setup_s": median(run.setup_s),
            "throughput_eps": run.elements / run.busy_s,
            "update_p50_ms": percentile(run.update_s, 50) * ms,
            "update_tail_ms": percentile(run.update_s, workload.update_tail_pct) * ms,
            "query_p50_us": percentile(run.query_s, 50) * us,
            "query_tail_us": percentile(run.query_s, workload.query_tail_pct) * us,
        },
        "rounds": run.rounds,
        "elements": run.elements,
        "busy_s": run.busy_s,
        "oracle_checks": run.oracle_checks,
        "oracle_s": run.oracle_s,
        "counters_at_checkpoint": run.checkpoint,
    }
    return run, metrics, details


def _ratio(num: Optional[float], den: Optional[float]) -> float:
    return num / den if num is not None and den else 0.0


def per_layer(workload: Any, seed: int) -> Tuple[List[Pass], Dict[str, Any], Dict[str, Any]]:
    from spans import Tracer

    rounds = workload.checkpoint_rounds
    plain = run_pass(workload, seed, setups=1, rounds=rounds)
    tracer = Tracer()
    traced = run_pass(workload, seed, setups=1, rounds=rounds, tracer=tracer)
    c = traced.checkpoint or {}
    n1n2 = workload.kind == "n1n2"
    nofn_counts = {} if n1n2 else c
    busy, own, calls = tracer.busy, tracer.self_time, tracer.calls
    hits, misses = c.get("cache_hits") or 0, c.get("cache_misses") or 0
    hit_ratio = _ratio(hits, hits + misses)

    def p50_us(values: List[float]) -> float:
        return percentile(values, 50) * 1e6 if values else 0.0

    metrics = {
        "nofn.ingest.busy_s": (busy("nofn.ingest"), "s"),
        "nofn.ingest.self_s": (own("nofn.ingest"), "s"),
        "nofn.query.busy_s": (busy("nofn.query"), "s"),
        "nofn.arrivals": (nofn_counts.get("arrivals") or 0, "count"),
        "nofn.expiries": (nofn_counts.get("expiries") or 0, "count"),
        "nofn.dominated_removed": (nofn_counts.get("dominated_removed") or 0, "count"),
        "nofn.rn_size_mean": (
            _ratio(nofn_counts.get("rn_size_sum"), nofn_counts.get("arrivals")), "count"),
        "prefilter.busy_s": (busy("prefilter"), "s"),
        "prefilter.kill_rate": (
            _ratio(c.get("prefilter_dropped"), c.get("batch_elements")), "ratio"),
        "rtree.report_dominated.busy_s": (busy("rtree.report_dominated_batch"), "s"),
        "rtree.max_kappa_dominator.busy_s": (
            busy("rtree.max_kappa_dominator_batch", "rtree.parent_walk"), "s"),
        "rtree.parent_walk.calls": (calls("rtree.parent_walk"), "count"),
        "rtree.parent_walk_per_arrival": (
            _ratio(calls("rtree.parent_walk"), c.get("arrivals")), "ratio"),
        "rtree.delete_many.busy_s": (busy("rtree.delete_many"), "s"),
        "rtree.insert_many.busy_s": (busy("rtree.insert_many"), "s"),
        "rtree.per_element.busy_s": (
            busy("rtree.remove_dominated", "rtree.max_kappa_dominator",
                 "rtree.insert", "rtree.delete"), "s"),
        "intervals.insert.calls": (calls("intervals.insert"), "count"),
        "intervals.insert.busy_s": (busy("intervals.insert"), "s"),
        "intervals.remove.busy_s": (busy("intervals.remove"), "s"),
        "stab_cache.stab.busy_s": (busy("stab_cache.stab"), "s"),
        "stab_cache.hits": (hits, "count"),
        "stab_cache.misses": (misses, "count"),
        "stab_cache.hit_ratio": (hit_ratio, "ratio"),
        "stab_cache.rebuilds": (c.get("cache_rebuilds") or 0, "count"),
        "stab_cache.stale_query_p50_us": (p50_us(tracer.stale_query_s), "us"),
        "stab_cache.fresh_query_p50_us": (p50_us(tracer.fresh_query_s), "us"),
        "continuous.dispatch.busy_s": (busy("continuous.dispatch"), "s"),
        "continuous.dispatch.self_s": (own("continuous.dispatch"), "s"),
        "continuous.result_changes": (c.get("result_changes") or 0, "count"),
        "query_index.routed_events": (c.get("routed_events") or 0, "count"),
        "query_index.touched_groups": (c.get("touched_groups") or 0, "count"),
        "query_index.touched_per_event": (
            _ratio(c.get("touched_groups"), c.get("routed_events")), "ratio"),
        "n1n2.ingest.busy_s": (busy("n1n2.ingest"), "s"),
        "n1n2.ingest.self_s": (own("n1n2.ingest"), "s"),
        "n1n2.query.busy_s": (busy("n1n2.query"), "s"),
        "n1n2.stab_cache.hit_ratio": (hit_ratio if n1n2 else 0.0, "ratio"),
    }
    for layer, share in tracer.layer_split().items():
        metrics[f"split.{layer}"] = (share, "ratio")
    # Each pass's throughput is scaled by its own probes, so a speed
    # drift between the passes does not read as tracing cost.
    plain_eps = plain.elements / plain.busy_s * plain.speed()
    traced_eps = traced.elements / traced.busy_s * traced.speed()
    metrics["bench.tracing_overhead"] = (1.0 - traced_eps / plain_eps, "ratio")

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    trace_path = out_dir / f"{workload.name}.jsonl"
    tracer.write_jsonl(str(trace_path))
    details = {
        "rounds_per_pass": rounds,
        "untraced_eps": plain_eps,
        "traced_eps": traced_eps,
        "counters_untraced": plain.checkpoint,
        "counters_traced": traced.checkpoint,
        "counters_match": plain.checkpoint == traced.checkpoint,
        "missing_counters": sorted(k for k, v in c.items() if v is None),
        "absent_layers": tracer.absent_layers(),
        "missing_wrap_targets": sorted(tracer.missing),
        "spans": tracer.span_count(),
        "trace_file": str(trace_path.relative_to(HERE.parent)),
        "oracle_checks": plain.oracle_checks + traced.oracle_checks,
        "oracle_s": plain.oracle_s + traced.oracle_s,
    }
    return [plain, traced], metrics, details


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the library source {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from repro.bench.reporting import machine_fingerprint
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    if args.trace:
        passes, metrics, details = per_layer(workload, args.seed)
        correct = details["counters_match"]
        if not correct:
            print("COUNTERS DIFFER between the untraced and traced passes: the "
                  "wrappers changed what the library did", file=sys.stderr)
    else:
        run, metrics, details = end_to_end(workload, args.seed, args.seconds)
        passes = [run]
        correct = True
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    correct = correct and failed == 0
    if failed:
        print(f"ERROR RATE {failed}/{attempted}: wrong or failed operations", file=sys.stderr)
    details["error_rate"] = failed / attempted

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:14.6g} {unit}")
    print(f"  {'error_rate':36s} {details['error_rate']:14.6g} ratio")
    rtree = getattr(passes[-1].session.engine, "_rtree", None)
    print("report " + json.dumps({
        "workload": workload.name,
        "why": workload.why,
        "params": workload.params(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rtree_layout": getattr(rtree, "layout", None),
        "machine": machine_fingerprint(),
        **details,
    }, default=str))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

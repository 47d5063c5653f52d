"""The repository benchmark: cold exact-diameter solves and a served graph
query workload, measured end to end and, in a traced run, layer by layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload smallworld_zipf --seed 1 --seconds 50 --trace 0

Each workload runs two phases over the seed's inputs:

1. **solve** — cold ``repro.fdiam`` solves of a family of paper analogs,
   prep off and ``prep="auto"``, each sample on a freshly opened
   ``.scsr`` file, in a child process of their own (see ``solve.py``);
2. **serve** — a ``python -m repro serve`` process loaded open-loop at a
   fixed offered rate, then closed-loop for the peak rate (see
   ``serve.py``).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` installs the
layer spans of ``tracing.py`` (in the solve child and, through
``traced_serve.py``, in the server) and prints the per-layer metrics,
the tracing overhead and the iFUB reference comparison. The last line
of standard output is the JSON result; the lines before it are a
readable report, the environment fingerprint and every raw sample.

Exit status: 0 when every answer was right, 1 when any was wrong (the
result is still printed), 2 when the run could not measure (no program
sources, the generator fell behind, too few samples for a percentile).
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import lib  # noqa: E402

#: Shares of ``--seconds``: solves, the serving phase's closed-loop
#: warm-up, closed-loop window and open-loop window. After the warm-up,
#: the run cycles CYCLES times through a slice of each.
SOLVE_SHARE, WARM_SHARE, CLOSED_SHARE, OPEN_SHARE = 0.40, 0.04, 0.12, 0.44
CYCLES = 4
#: Per-graph time limit of the iFUB reference (traced runs only).
IFUB_TIMEOUT_S = 2.0

SMALL_WORLD = (
    "amazon0601", "as-skitter", "citationCiteSeer", "cit-Patents",
    "coPapersDBLP", "in-2004", "internet", "kron_g500-logn21",
    "rmat16.sym", "rmat22.sym", "soc-LiveJournal1", "uk-2002",
)
HIGH_DIAMETER = (
    "2d-2e20.sym", "delaunay_n24", "europe_osm", "USA-road-d.NY",
    "USA-road-d.USA",
)


@dataclass(frozen=True)
class Workload:
    solve: tuple
    serve: object  # serve.ServeMix


#: Offered read rate of both serving workloads: the least at which the
#: open-loop window holds 1000 read requests, so query_p99_ms has its ten
#: samples beyond p99 (at --seconds 50).
READ_RATE = 46.0
#: Mutation batches/s of mesh_churn: the least at which the window holds
#: 100 of them, so mutate_p90_ms and the diam after each have ten
#: samples beyond p90.
MUTATE_RATE = 5.0


def workloads():
    from serve import ServeMix

    return {
        # Prep, k-core, chain tips and lane batching carry the solves;
        # reads over six resident graphs, zipf-skewed by graph and
        # source, exercise service -> query -> lane sweeps.
        "smallworld_zipf": Workload(
            solve=SMALL_WORLD,
            serve=ServeMix(
                graphs=(
                    "internet", "USA-road-d.NY", "amazon0601",
                    "citationCiteSeer", "soc-LiveJournal1", "USA-road-d.USA",
                ),
                rate=READ_RATE,
            ),
        ),
        # Hundreds of BFS levels and Eliminate carry the solves (prep
        # gates itself off); mutations invalidate memo rows and force
        # DynamicDiameter repair or recompute on the next diam.
        "mesh_churn": Workload(
            solve=HIGH_DIAMETER,
            serve=ServeMix(
                graphs=("internet", "citationCiteSeer", "amazon0601"),
                rate=READ_RATE,
                mutable=True,
                mutate_rate=MUTATE_RATE,
            ),
        ),
    }


END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "solve_vps": "vertices/s",
    "solve_auto_vps": "vertices/s",
    "peak_qps": "queries/s",
}


def measure(work: Workload, seed: int, seconds: float, *, trace_dir=None):
    """Both phases, interleaved in CYCLES slices; returns their records."""
    from serve import serve_phase
    from solve import Solver

    solver = Solver(work.solve, seed, trace_out=trace_dir and trace_dir / "solve-spans.json")
    slice_s = SOLVE_SHARE * seconds / CYCLES
    try:
        # Each slice solves up to its share of the total, so one long
        # solve (a whole slice on delaunay_n24) shortens the slices after it.
        served = serve_phase(
            work.serve,
            seed,
            WARM_SHARE * seconds,
            CLOSED_SHARE * seconds,
            OPEN_SHARE * seconds,
            cycles=CYCLES,
            interlude=lambda k: solver.run((k + 1) * slice_s - solver.elapsed, finish=k == CYCLES - 1),
            trace_dir=trace_dir,
        )
    finally:
        solver.close()
    return solver.result(), served


def end_to_end(work: Workload, seed: int, seconds: float) -> dict:
    solved, served = measure(work, seed, seconds)
    metrics = {
        "setup_s": solved["setup_s"] + statistics.median(served["setup_samples"]),
        "peak_rss_mb": solved["peak_rss_mb"] + served["peak_rss_mb"],
        "solve_vps": solved["solve_vps"],
        "solve_auto_vps": solved["solve_auto_vps"],
        "peak_qps": served["peak_qps"],
    }
    # Measured and printed, but too unsteady from run to run on a shared
    # 2-core host to gate on (see README.md).
    extra = {name: served[name] for name in LATENCY_METRICS if name in served}
    return _result(metrics, END_TO_END_UNITS, solved, served, extra)


def _result(metrics, units, solved, served, extra) -> dict:
    raw = {
        "solve": {
            "samples": solved["samples"],
            "elapsed_s": solved["elapsed_s"],
            "read_s": solved["read_s"],
            "wall_s": solved["walls"],
            "table3_bfs": solved["bfs"],
        },
        "serve": {
            "setup_s": served["setup_samples"],
            "generator": served["generator"],
            "timings_s": served["timings_s"],
            "counts": {k: served[k] for k in ("reads", "diams", "closed_requests") if k in served},
            "latency_ms": {
                kind: [round(1e3 * (op.done - op.due), 3) for op in served["ops"] if op.kind == kind]
                for kind in ("read", "diam", "mutate")
            },
        },
        "peak_rss_mb": {"solve": solved["peak_rss_mb"], "serve": served["peak_rss_mb"]},
        "extra": extra,
    }
    wrong = solved["wrong"] + served["wrong"]
    return {
        "attempted": solved["attempted"] + served["attempted"],
        "failed": solved["failed"] + served["failed"],
        "wrong": wrong,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "raw": raw,
    }


LATENCY_METRICS = ("query_p50_ms", "query_p99_ms", "diam_p90_ms", "mutate_p90_ms")

# ----------------------------------------------------------------------
# Traced run
# ----------------------------------------------------------------------
PER_LAYER_UNITS = {
    "query_p50_ms": "ms",
    "query_p99_ms": "ms",
    "diam_p90_ms": "ms",
    "store.open_s": "s",
    "graph.kcore_s": "s",
    "prep.self_s": "s",
    "prep.auto_over_plain_max": "ratio",
    "core.winnow_s": "s",
    "core.chain_s": "s",
    "core.eliminate_s": "s",
    "core.sources": "count",
    "core.table3_bfs": "count",
    "bfs.self_s": "s",
    "bfs.levels": "count",
    "bfs.edges": "count",
    "bfs.lane_occupancy": "ratio",
    "parallel.rows_ms_p50": "ms",
    "parallel.rows_ms_p99": "ms",
    "query.run_ms_p50": "ms",
    "query.run_ms_p99": "ms",
    "query.batch_queries": "count",
    "query.memo_hit_frac": "ratio",
    "service.window_wait_ms_p50": "ms",
    "service.window_wait_ms_p99": "ms",
    "service.queue_wait_ms_p50": "ms",
    "service.queue_wait_ms_p99": "ms",
    "service.http_ms_p50": "ms",
    "mutate_p90_ms": "ms",
    "dynamic.apply_ms_p90": "ms",
    "dynamic.refresh_ms_p90": "ms",
    "dynamic.repairs": "count",
    "dynamic.recomputes": "count",
    "dynamic.refresh_sources": "count",
    "dynamic.view_ms": "ms",
    "trace.unattributed_frac": "ratio",
    "trace.overhead_frac": "ratio",
    "ref.ifub_speedup_geomean": "ratio",
}


def traced(work: Workload, seed: int, seconds: float) -> dict:
    trace_dir = lib.WORK / "trace"
    trace_dir.mkdir(parents=True, exist_ok=True)
    for name in ("solve-spans.json", "server-spans.json"):
        (trace_dir / name).unlink(missing_ok=True)
    solved, served = measure(work, seed, seconds, trace_dir=trace_dir)
    solve_spans, server_spans = (
        json.loads((trace_dir / name).read_text())["spans"]
        for name in ("solve-spans.json", "server-spans.json")
    )
    reference = ifub_reference(work.solve, seed, solved["untraced_walls"])
    metrics, extra = layer_metrics(solve_spans, server_spans, solved, served)
    metrics["ref.ifub_speedup_geomean"] = reference["speedup_geomean"]
    extra["ifub_reference"] = reference["per_graph"]
    return _result(metrics, PER_LAYER_UNITS, solved, served, extra)


def _pct(values, q):
    return lib.percentile(values, q) if values else 0.0


def layer_metrics(solve_spans, server_spans, solved, served):
    from tracing import ATTRS, END, NAME, RID, START, nearest, outermost, self_times, unattributed

    def total(spans, prefix):
        return sum(s[END] - s[START] for s in outermost(spans, prefix))

    def durations_ms(spans, name):
        return [1e3 * (s[END] - s[START]) for s in outermost(spans, name)]

    both = solve_spans + server_spans
    selfs = {id(s): t for spans in (solve_spans, server_spans) for s, t in zip(spans, self_times(spans))}
    def counted(spans):
        return [s for s in spans if s[NAME].startswith("bfs.") and "levels" in s[ATTRS]]

    bfs_counted = counted(both)
    solve_rids = {s[RID] for s in solve_spans if s[NAME] == "op.solve"}
    lane_spans = [s for s in bfs_counted if "lanes_cap" in s[ATTRS]]
    runs = [s for s in server_spans if s[NAME] == "query.run" and s[END] is not None]
    reads = sum(s[ATTRS]["reads"] for s in runs)
    submits = [s[ATTRS]["record"] for s in server_spans if s[NAME] == "service.submit" and s[END] is not None]
    for s in server_spans:
        if s[NAME] == "service.submit" and s[END] is not None:
            s[ATTRS]["record"].update(submit=s[START], answer=s[END], rid=s[RID])
    timed = [r for r in submits if r.get("flush") is not None]
    by_rid = {}
    for r in timed:
        lo, hi = by_rid.get(r["rid"], (r["submit"], r["answer"]))
        by_rid[r["rid"]] = (min(lo, r["submit"]), max(hi, r["answer"]))
    http = [
        1e3 * ((op.done - op.sent) - (by_rid[op.rid][1] - by_rid[op.rid][0]))
        for op in served["ops"]
        if op.kind != "mutate" and op.rid in by_rid
    ]
    refreshes = [s for s in server_spans if s[NAME] == "dynamic.refresh" and s[END] is not None]
    in_refresh = nearest(server_spans, lambda s: s[NAME] == "dynamic.refresh")
    lost_solve, root_solve = unattributed(solve_spans)
    lost_serve, root_serve = unattributed(server_spans)

    def ratio(kind):
        return {
            name: statistics.median(solved["walls"][kind][name])
            / statistics.median(solved["untraced_walls"][kind][name])
            for name in solved["walls"][kind]
        }

    overhead = lib.geomean(list(ratio("plain").values()) + list(ratio("auto").values())) - 1.0
    plain, auto = solved["untraced_walls"]["plain"], solved["untraced_walls"]["auto"]
    auto_over_plain = {name: statistics.median(auto[name]) / statistics.median(plain[name]) for name in plain}
    metrics = {
        "store.open_s": total(both, "store.open"),
        "graph.kcore_s": total(both, "graph.kcore"),
        "prep.self_s": sum(selfs[id(s)] for s in both if s[NAME] == "prep" and s[END] is not None),
        "prep.auto_over_plain_max": max(auto_over_plain.values()),
        "core.winnow_s": total(both, "core.winnow"),
        "core.chain_s": total(both, "core.chain"),
        "core.eliminate_s": total(both, "core.eliminate"),
        "core.sources": sum(s[ATTRS]["sources"] for s in counted(solve_spans) if s[RID] in solve_rids),
        "core.table3_bfs": sum(samples[0] for samples in solved["bfs"]["plain"].values()),
        "bfs.self_s": sum(selfs[id(s)] for s in both if s[NAME].startswith("bfs.") and s[END] is not None),
        "bfs.levels": sum(s[ATTRS]["levels"] for s in bfs_counted),
        "bfs.edges": sum(s[ATTRS]["edges"] for s in bfs_counted),
        "bfs.lane_occupancy": (
            sum(s[ATTRS]["lanes_used"] for s in lane_spans) / sum(s[ATTRS]["lanes_cap"] for s in lane_spans)
            if lane_spans else 0.0
        ),
        "parallel.rows_ms_p50": _pct(durations_ms(server_spans, "parallel.rows"), 50),
        "parallel.rows_ms_p99": _pct(durations_ms(server_spans, "parallel.rows"), 99),
        "query.run_ms_p50": _pct(durations_ms(server_spans, "query.run"), 50),
        "query.run_ms_p99": _pct(durations_ms(server_spans, "query.run"), 99),
        "query.batch_queries": statistics.mean(s[ATTRS]["queries"] for s in runs) if runs else 0.0,
        "query.memo_hit_frac": sum(s[ATTRS]["memo_hits"] for s in runs) / reads if reads else 0.0,
        "service.window_wait_ms_p50": _pct([1e3 * (r["flush"] - r["submit"]) for r in timed], 50),
        "service.window_wait_ms_p99": _pct([1e3 * (r["flush"] - r["submit"]) for r in timed], 99),
        "service.queue_wait_ms_p50": _pct([1e3 * (r["run_start"] - r["flush"]) for r in timed], 50),
        "service.queue_wait_ms_p99": _pct([1e3 * (r["run_start"] - r["flush"]) for r in timed], 99),
        "service.http_ms_p50": _pct(http, 50),
        "query_p50_ms": served["query_p50_ms"],
        "query_p99_ms": served["query_p99_ms"],
        "diam_p90_ms": served["diam_p90_ms"],
        "mutate_p90_ms": served.get("mutate_p90_ms", 0.0),
        "dynamic.apply_ms_p90": _pct(durations_ms(server_spans, "dynamic.apply"), 90),
        "dynamic.refresh_ms_p90": _pct(durations_ms(server_spans, "dynamic.refresh"), 90),
        "dynamic.repairs": sum(1 for s in refreshes if s[ATTRS].get("strategy") == "repair"),
        "dynamic.recomputes": sum(1 for s in refreshes if s[ATTRS].get("strategy") == "recompute"),
        "dynamic.refresh_sources": sum(
            s[ATTRS]["sources"]
            for s, ancestor in zip(server_spans, in_refresh)
            if ancestor is not None and "levels" in s[ATTRS] and s[NAME].startswith("bfs.")
        ),
        "dynamic.view_ms": statistics.mean(durations_ms(server_spans, "dynamic.view") or [0.0]),
        # The solves' "other" bucket. A served request is almost wholly
        # covered by its service.submit span, so pooling the two would
        # hide it; the serving share is in the raw output.
        "trace.unattributed_frac": lost_solve / root_solve,
        "trace.overhead_frac": overhead,
    }
    extra = {
        "unattributed": {"solve": lost_solve / root_solve if root_solve else 0.0,
                         "serve": lost_serve / root_serve if root_serve else 0.0},
        "trace_overhead_by_graph": {"plain": ratio("plain"), "auto": ratio("auto")},
        "auto_over_plain": auto_over_plain,
        "samples": {
            "parallel.rows": len(durations_ms(server_spans, "parallel.rows")),
            "query.run": len(runs),
            "service.submit": len(timed),
            "dynamic.refresh": len(refreshes),
        },
    }
    return metrics, extra


def ifub_reference(names, seed: int, fdiam_walls) -> dict:
    """The paper's comparison on the same substrate (not gated)."""
    from repro.baselines import ifub_diameter
    from repro.errors import BenchmarkTimeout

    per_graph = {}
    for name in names:
        graph = lib.relabelled(name, seed, 0)
        t0 = time.perf_counter()
        try:
            ifub_diameter(graph, deadline=t0 + IFUB_TIMEOUT_S)
            wall, timed_out = time.perf_counter() - t0, False
        except BenchmarkTimeout:
            wall, timed_out = IFUB_TIMEOUT_S, True
        fdiam_wall = statistics.median(fdiam_walls["plain"][name])
        per_graph[name] = {
            "ifub_s": wall,
            "ifub_timed_out": timed_out,
            "fdiam_s": fdiam_wall,
            "speedup": wall / fdiam_wall,
        }
    return {
        "per_graph": per_graph,
        "speedup_geomean": lib.geomean(v["speedup"] for v in per_graph.values()),
    }


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still stops the server it started (finally blocks).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(3))
    try:
        lib.import_program()
        table = workloads()
        if args.workload not in table:
            parser.error(f"unknown workload {args.workload!r}; known: {sorted(table)}")
        work = table[args.workload]
        run = (traced if args.trace else end_to_end)(work, args.seed, args.seconds)
    except lib.InvalidRun as exc:
        print(f"invalid run: {exc}", file=sys.stderr)
        return 2
    except ImportError as exc:
        print(f"cannot import the program: {exc}", file=sys.stderr)
        return 2

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print("environment " + json.dumps(lib.fingerprint(args.seed)))
    for name, metric in run["metrics"].items():
        print(f"  {name:28s} {metric['value']:>14.6g} {metric['unit']}")
    for name, value in run["raw"]["extra"].items():
        if isinstance(value, float):
            print(f"  {name:28s} {value:>14.6g} {PER_LAYER_UNITS.get(name, '')}  (not gated)")
    failed_frac = run["failed"] / run["attempted"]
    print(f"  {'failed_frac':28s} {failed_frac:>14.6g} ratio ({run['failed']} of {run['attempted']})")
    for line in run["wrong"][:20]:
        print(f"  WRONG {line}")
    print("raw " + json.dumps(run["raw"], default=float))
    correct = run["failed"] == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": run["attempted"],
                "failed": run["failed"],
                "metrics": run["metrics"],
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())

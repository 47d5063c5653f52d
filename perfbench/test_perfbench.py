"""Tests of the benchmark's own arithmetic.

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import asyncio
import json
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import lib  # noqa: E402
import tracing  # noqa: E402
from tracing import covered, self_times, unattributed  # noqa: E402

lib.import_program()

import serve  # noqa: E402


def test_geomean_of_vertices_per_second():
    # Two analogs: 1000 vertices in 0.5 s and 4000 vertices in 0.25 s.
    vps = [1000 / 0.5, 4000 / 0.25]
    assert lib.geomean(vps) == pytest.approx(math.sqrt(2000 * 16000))
    with pytest.raises(ValueError):
        lib.geomean([1.0, 0.0])


def test_percentile_needs_ten_samples_beyond_it():
    samples = list(range(1000))
    assert lib.tail_percentile(samples, 99) == pytest.approx(lib.percentile(samples, 99))
    with pytest.raises(lib.InvalidRun):
        lib.tail_percentile(samples[:999], 99)
    assert lib.tail_percentile(list(range(100)), 90) == pytest.approx(89.1)
    with pytest.raises(lib.InvalidRun):
        lib.tail_percentile(list(range(99)), 90)


def test_quartile_spread():
    assert lib.quartile_spread([1.0] * 4 + [2.0] * 4) == pytest.approx((2.0 - 1.0) / 1.5)


async def _slow_server(delay: float):
    """An HTTP stub answering every request after ``delay`` seconds."""

    async def handle(reader, writer):
        while True:
            line = await reader.readline()
            if not line:
                break
            length = 0
            while (header := await reader.readline()) not in (b"\r\n", b""):
                if header.lower().startswith(b"content-length"):
                    length = int(header.split(b":")[1])
            await reader.readexactly(length)
            await asyncio.sleep(delay)
            body = json.dumps({"answers": [1], "epochs": [0]}).encode()
            writer.write(b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(body), body))
            await writer.drain()
        writer.close()

    return await asyncio.start_server(handle, "127.0.0.1", 0)


def test_latency_is_timed_from_the_due_time():
    """Three requests due together over one connection: the second and
    third wait for the first, and that wait counts in their latency."""
    delay = 0.05

    async def main():
        server = await _slow_server(delay)
        port = server.sockets[0].getsockname()[1]
        ops = [serve.Op(kind="read", graph="g", queries=["ecc 0"], at=0.0) for _ in range(3)]
        await serve.open_loop(port, ops, 1, traced=False)
        server.close()
        await server.wait_closed()
        return ops

    ops = asyncio.run(main())
    latencies = sorted(lib.latency_from_due(op.due, op.done) for op in ops)
    for k, latency in enumerate(latencies, start=1):
        assert latency == pytest.approx(k * delay, abs=0.03)
    # Measured from sending instead, every request would look equally fast.
    assert max(op.done - op.sent for op in ops) < 2 * delay


def test_injected_wrong_answer_counts_as_failed():
    mix = serve.ServeMix(graphs=("internet",), rate=1.0)
    auditor = serve.Auditor(mix)
    make = serve.TraceMaker(mix, seed=1, label="test")
    ops = [make.read() for _ in range(3)]
    for op in ops:
        op.status, op.payload = 200, {"epochs": [0] * len(op.queries)}
    auditor.prepare(ops)
    for op in ops:
        op.payload["answers"] = [auditor._answer(op.graph, 0, q) for q in op.queries]
    assert serve.count_failures(ops, auditor) == (0, [])
    ops[1].payload["answers"][0] += 1
    failed, wrong = serve.count_failures(ops, auditor)
    assert failed == 1 and len(wrong) == 1
    ops[2].status = 500
    assert serve.count_failures(ops, auditor)[0] == 2


def test_relabelling_matches_permute_vertices():
    import numpy as np
    from repro.generators.perturb import permute_vertices

    for name in ("internet", "USA-road-d.NY"):
        want = permute_vertices(lib.base_analog(name), seed=lib.sub_seed(7, name, 3), name=name)
        got = lib.relabelled(name, 7, 3)
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert got.indices.dtype == want.indices.dtype and got.name == name
    assert lib.relabelled("internet", 0, 3) is lib.base_analog("internet")


def test_solver_child_answers_and_reports_its_memory():
    """One sample of the smallest analog through the solve child: both
    configs are audited against the expected table, and the child's
    peak RSS is read before it is stopped."""
    from solve import Solver

    solver = Solver(("internet",), seed=1)
    try:
        solver.run(0.0, finish=True)
    finally:
        solver.close()
    result = solver.result()
    assert solver.proc.returncode == 0
    assert result["samples"] == {"internet": 1}
    assert (result["attempted"], result["failed"]) == (2, 0)
    assert result["peak_rss_mb"] > 0


def test_exact_diameter_matches_all_pairs():
    """The audit's independent diameter against brute force, including
    disconnected graphs and Kronecker graphs, where the double sweep
    alone falls short of the diameter."""
    import numpy as np
    from exact import adjacency, exact_diameter
    from repro.generators import kronecker
    from repro.generators.registry import build_fuzz_graph
    from scipy.sparse.csgraph import shortest_path

    graphs = [build_fuzz_graph(seed, max_vertices=40)[0] for seed in range(60)]
    graphs += [kronecker(6, 4, seed=seed) for seed in range(30)]
    for graph in graphs:
        adj = adjacency(graph.indptr, graph.indices)
        dist = shortest_path(adj, directed=False, unweighted=True)
        finite = dist[np.isfinite(dist)]
        want = int(finite.max()) if finite.size else 0
        assert exact_diameter(graph.indptr, graph.indices) == want, graph.name


def _span(name, start, end, parent=None, rid=1):
    return [name, start, end, parent, rid, {}]


def test_self_time_is_duration_minus_child_coverage():
    spans = [
        _span("op.solve", 0.0, 10.0),
        _span("prep", 1.0, 6.0, parent=0),
        _span("graph.kcore", 2.0, 3.0, parent=1),
        _span("bfs.bfs", 2.5, 4.0, parent=1),  # overlaps its sibling
        _span("bfs.levels", 8.0, 9.0, parent=0),
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(5.0 - 2.0)  # children cover [2, 4]
    assert selfs[2] == pytest.approx(1.0)
    assert selfs[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert covered([(0, 2), (1, 3), (5, 6)], 0.5, 5.5) == pytest.approx(3.0)
    lost, total = unattributed(spans)
    assert (lost, total) == (pytest.approx(4.0), pytest.approx(10.0))


def test_tracer_nests_spans_and_shares_request_ids():
    tracer = tracing.Tracer()
    with tracer.root("op.solve"):
        outer = tracer.open("prep")
        inner = tracer.open("bfs.bfs")
        tracer.close(inner)
        tracer.close(outer)
    spans = tracer.spans
    assert spans[1][tracing.PARENT] == 0 and spans[2][tracing.PARENT] == 1
    assert len({span[tracing.RID] for span in spans}) == 1


def test_benchmark_json_names_every_reported_metric():
    import run

    spec = json.loads((lib.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert {w["name"] for w in spec["workloads"]} == set(run.workloads())

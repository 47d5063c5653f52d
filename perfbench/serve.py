"""Serving workloads: a real ``python -m repro serve`` process under load.

One load-generator process (this one) drives the server over at most
``nproc`` keep-alive connections:

* **open loop** — requests are due on a Poisson schedule at a fixed
  offered rate; each is timed from when it was due, so a stall also
  charges the requests queued behind it. How late the generator itself
  woke up is reported, and a run where it fell behind is invalid.
* **closed loop** — each connection sends its next read as soon as the
  previous one is answered; gives the peak query rate.

Every answer is audited after the timed window against the graph
rebuilt for the epoch stamped on it (epoch 0 is the served file), with
the SciPy BFS and iFUB of ``exact.py``, which share no code with the
program.

The traffic follows the repository's statement of its service load,
``zipf_trace`` in ``benchmarks/load_service.py``: graph and source
popularity zipf with skew 1.2, and queries 70% ``dist`` (to a uniform
target), 25% ``ecc`` and 5% ``diam``. Requests carry several queries.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from lib import (
    HERE,
    SRC,
    WORK,
    InvalidRun,
    base_analog,
    expected_table,
    latency_from_due,
    nproc,
    percentile,
    proc_peak_rss_mb,
    source_hash,
    sub_seed,
    tail_percentile,
    write_input,
)

#: A run is invalid when the generator woke this late (p99) for its own
#: schedule: the latencies would then describe the generator, not the
#: server.
MAX_GENERATOR_LAG_S = 0.020
#: Sources per graph the reads draw from; well above the server's
#: 64-row memo, so misses stay common.
SOURCE_POOL = 256
SERVER_STARTS = 3
SERVER_START_TIMEOUT_S = 60.0
#: Popularity skew (rank ``r`` has weight ``r ** -skew``) and the mix of
#: query kinds, as in ``zipf_trace`` (benchmarks/load_service.py).
SKEW = 1.2
KIND_SHARES = {"dist": 0.70, "ecc": 0.25, "diam": 0.05}
#: Queries per request, uniform: several, a mean of 4.
QUERIES_PER_REQUEST = range(2, 7)
#: A mutation batch inserts as many fresh edges as the pinned churn
#: batches of ``benchmarks/regression.py``; as in the mutation fuzzer's
#: traces (``repro.verify.mutation.sample_trace``), 40% of batches are
#: insert-only and the others also delete edges, two (the fuzzer's mean).
INSERTS_PER_BATCH, DELETES_PER_BATCH, INSERT_ONLY_SHARE = 4, 2, 0.4
#: A ``diam`` request follows every mutation batch after this delay.
DIAM_AFTER_MUTATION_S = 0.05


@dataclass
class ServeMix:
    """One serving workload: graphs, traffic shape and offered rate."""

    graphs: tuple[str, ...]
    rate: float  # read requests/s offered in the open loop
    mutable: bool = False
    mutate_rate: float = 0.0  # mutation batches/s (mutable only)


@dataclass
class Op:
    kind: str  # "read" | "diam" | "mutate"
    graph: str
    at: float = 0.0
    queries: list = field(default_factory=list)
    insert: list = field(default_factory=list)
    delete: list = field(default_factory=list)
    rid: int = 0
    due: float = 0.0
    sent: float = 0.0
    done: float = 0.0
    lag: float = 0.0
    status: int = 0
    payload: dict = field(default_factory=dict)


# ----------------------------------------------------------------------
# HTTP
# ----------------------------------------------------------------------
class Connection:
    """One keep-alive HTTP/1.1 connection speaking JSON."""

    def __init__(self, host: str, port: int):
        self.host, self.port = host, port
        self.reader = self.writer = None

    async def open(self) -> "Connection":
        self.reader, self.writer = await asyncio.open_connection(self.host, self.port)
        return self

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def request(self, method: str, path: str, payload=None):
        body = b"" if payload is None else json.dumps(payload).encode()
        self.writer.write(
            (
                f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\n"
                f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
                "Connection: keep-alive\r\n\r\n"
            ).encode("latin-1")
            + body
        )
        await self.writer.drain()
        status_line = await self.reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        raw = await self.reader.readexactly(length) if length else b""
        return status, (json.loads(raw) if raw else {})


def _payload(op: Op, traced: bool) -> tuple[str, dict]:
    if op.kind == "mutate":
        body = {"graph": op.graph, "insert": op.insert, "delete": op.delete}
        path = "/mutate"
    else:
        body = {"graph": op.graph, "queries": op.queries}
        path = "/query"
    if traced:
        body["rid"] = op.rid
    return path, body


async def _send(conn: Connection, op: Op, traced: bool) -> None:
    path, body = _payload(op, traced)
    op.sent = time.perf_counter()
    try:
        op.status, op.payload = await conn.request("POST", path, body)
    except (ConnectionError, asyncio.IncompleteReadError, OSError) as exc:
        op.status, op.payload = 599, {"error": str(exc)}
    op.done = time.perf_counter()


# ----------------------------------------------------------------------
# Server process
# ----------------------------------------------------------------------
class Server:
    """A ``repro serve`` child process, started and stopped by us."""

    def __init__(self, paths: dict, *, mutable: bool, trace_out: Path | None, tag: str):
        logs = WORK / "logs"
        logs.mkdir(parents=True, exist_ok=True)
        self.stdout_path = logs / f"{tag}.out"
        self.stderr_path = logs / f"{tag}.err"
        args = [f"{key}={path}" for key, path in paths.items()] + ["--port", "0"]
        if mutable:
            args.append("--mutable")
        if trace_out is None:
            cmd = [sys.executable, "-m", "repro", "serve", *args]
        else:
            cmd = [sys.executable, str(HERE / "traced_serve.py"), str(trace_out), *args]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self.t0 = time.perf_counter()
        with open(self.stdout_path, "wb") as out, open(self.stderr_path, "wb") as err:
            self.proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=str(HERE.parent))
        self.port = None

    async def wait_ready(self, vertices: dict) -> float:
        """Until ``/healthz`` answers and every graph is open."""
        deadline = time.perf_counter() + SERVER_START_TIMEOUT_S
        while self.port is None:
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                raise InvalidRun(f"server did not start: {self.stderr_path.read_text()[-2000:]}")
            for line in self.stdout_path.read_text().splitlines():
                if line.startswith("listening on http://"):
                    self.port = int(line.split()[2].rsplit(":", 1)[1])
            if self.port is None:
                await asyncio.sleep(0.002)
        conn = await Connection("127.0.0.1", self.port).open()
        try:
            status, _ = await conn.request("GET", "/healthz")
            if status != 200:
                raise InvalidRun(f"/healthz answered {status}")
            # A query naming vertex n opens the graph, then is refused
            # (400) before it can run: the open costs no traversal.
            for key, n in vertices.items():
                status, _ = await conn.request("POST", "/query", {"graph": key, "query": f"ecc {n}"})
                if status != 400:
                    raise InvalidRun(f"opening {key} answered {status}")
            status, graphs = await conn.request("GET", "/graphs")
            if not all(graphs[key]["resident"] for key in vertices):
                raise InvalidRun(f"graphs not resident after setup: {graphs}")
        finally:
            await conn.close()
        return time.perf_counter() - self.t0

    def peak_rss_mb(self) -> float:
        return proc_peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


# ----------------------------------------------------------------------
# Inputs and traces
# ----------------------------------------------------------------------
def _source_pool(name: str, n: int) -> np.ndarray:
    """Fixed per graph: the seed picks from the pool, not the pool."""
    rng = np.random.default_rng(sub_seed(0, "pools", name))
    return rng.choice(n, size=min(SOURCE_POOL, n), replace=False).astype(np.int64)


class _Deck:
    """Draws in the exact proportions of ``weights`` per deck of ``size``.

    Independent draws let one run's mix drift from another's (say, 6% of
    requests on the slowest graph in one run, 8% in the next); a
    shuffled deck keeps every run's mix at the stated shares and leaves
    only the order to the seed.
    """

    def __init__(self, rng, items, weights, size: int = 200):
        self.rng, self.items = rng, list(items)
        quota = np.asarray(weights, dtype=float) / np.sum(weights) * size
        counts = np.floor(quota).astype(int)
        counts[np.argsort(counts - quota)[: size - counts.sum()]] += 1
        self.pack = np.repeat(np.arange(len(self.items)), counts)
        self.cards: list = []

    def draw(self):
        if not self.cards:
            self.cards = self.rng.permutation(self.pack).tolist()
        return self.items[self.cards.pop()]


def _zipf(count: int, skew: float) -> np.ndarray:
    weights = np.arange(1, count + 1, dtype=float) ** -skew
    return weights / weights.sum()


def served_files(names) -> dict:
    """The served analogs as ``.scsr`` files, written once per checkout."""
    directory = WORK / "serve" / source_hash()
    paths = {}
    for name in names:
        path = directory / f"{name}.scsr"
        if not path.exists():
            tmp_dir = directory / f"tmp-{os.getpid()}"
            os.replace(write_input(base_analog(name), tmp_dir, name), path)
            tmp_dir.rmdir()
        paths[name] = path
    return paths


class TraceMaker:
    """Seeded request stream for one mix (reads, diam, mutations)."""

    def __init__(self, mix: ServeMix, seed: int, label: str):
        self.mix = mix
        rng = self.rng = np.random.default_rng(sub_seed(seed, "trace", label))
        self.graphs = _Deck(rng, mix.graphs, _zipf(len(mix.graphs), SKEW))
        self.sizes = _Deck(rng, QUERIES_PER_REQUEST, [1] * len(QUERIES_PER_REQUEST))
        self.kinds = _Deck(rng, list(KIND_SHARES), list(KIND_SHARES.values()))
        self.deletes = _Deck(rng, (False, True), (INSERT_ONLY_SHARE, 1 - INSERT_ONLY_SHARE))
        self.sources = {}
        self.pools = {}
        self.edges_left = {}
        self.inserted = {}
        for name in mix.graphs:
            graph = base_analog(name)
            self.pools[name] = _source_pool(name, graph.num_vertices)
            count = len(self.pools[name])
            self.sources[name] = _Deck(rng, range(count), _zipf(count, SKEW), size=4 * count)
            if mix.mutable:
                self.inserted[name] = set()
                src = np.repeat(np.arange(graph.num_vertices), np.diff(graph.indptr))
                keep = src < graph.indices
                order = self.rng.permutation(int(keep.sum()))
                self.edges_left[name] = np.stack([src[keep], graph.indices[keep]], 1)[order]
        self.next_rid = 1

    def _op(self, kind: str, graph: str) -> Op:
        op = Op(kind=kind, graph=graph, rid=self.next_rid)
        self.next_rid += 1
        return op

    def read(self) -> Op:
        graph = self.graphs.draw()
        op = self._op("read", graph)
        n = base_analog(graph).num_vertices
        for _ in range(self.sizes.draw()):
            kind = self.kinds.draw()
            if kind == "diam":
                op.queries.append("diam")
                continue
            u = int(self.pools[graph][self.sources[graph].draw()])
            op.queries.append(f"ecc {u}" if kind == "ecc" else f"dist {u} {int(self.rng.integers(n))}")
        return op

    def diam(self, graph: str) -> Op:
        op = self._op("diam", graph)
        op.queries = ["diam"]
        return op

    def mutation(self) -> Op:
        """Inserts of fresh non-edges; some batches also delete base edges.

        Inserted pairs are never base edges and deleted pairs never
        inserted ones, so batches commute: the graph at epoch E is the
        base plus every batch the server stamped with an epoch <= E.
        """
        graph = self.graphs.draw()
        base = base_analog(graph)
        n = base.num_vertices
        op = self._op("mutate", graph)
        while len(op.insert) < INSERTS_PER_BATCH:
            u, v = (int(x) for x in self.rng.integers(0, n, size=2))
            key = (min(u, v), max(u, v))
            if u != v and key not in self.inserted[graph] and not base.has_edge(u, v):
                self.inserted[graph].add(key)
                op.insert.append([u, v])
        if self.deletes.draw() and len(self.edges_left[graph]) >= DELETES_PER_BATCH:
            op.delete = self.edges_left[graph][:DELETES_PER_BATCH].tolist()
            self.edges_left[graph] = self.edges_left[graph][DELETES_PER_BATCH:]
        return op

    def open_loop_ops(self, seconds: float) -> list[Op]:
        """Arrivals of a Poisson process conditioned on its count: the
        counts are fixed by the rates, the instants uniform. Each
        mutation is followed by a ``diam`` on the same graph."""
        mix = self.mix
        ops = []
        for at in np.sort(self.rng.uniform(0.0, seconds, round(mix.rate * seconds))):
            op = self.read()
            op.at = float(at)
            ops.append(op)
        late = seconds - DIAM_AFTER_MUTATION_S
        for at in np.sort(self.rng.uniform(0.0, late, round(mix.mutate_rate * seconds))):
            op = self.mutation()
            op.at = float(at)
            follow = self.diam(op.graph)
            follow.at = op.at + DIAM_AFTER_MUTATION_S
            ops += [op, follow]
        ops.sort(key=lambda op: op.at)
        return ops


class Auditor:
    """Checks served answers after the timed window, each against the
    graph rebuilt for the epoch stamped on it."""

    def __init__(self, mix: ServeMix):
        self.mix = mix
        self._rows: dict = {}
        # The served files hold the base analogs, whose diameters are
        # in the expected table (filled by the same exact.py).
        expected = expected_table()
        self._diams: dict = {(name, 0): expected[name]["diameter"] for name in mix.graphs}

    def prepare(self, ops: list[Op]) -> None:
        """Rebuild each (graph, epoch) that answers were stamped with,
        once, and keep only what those answers need: the diameter,
        eccentricities and the queried distances."""
        self._mutations = {name: [] for name in self.mix.graphs}
        for op in ops:
            if op.kind == "mutate" and op.status == 200:
                self._mutations[op.graph].append((op.payload["epoch"], op))
        wanted: dict = {}
        diams = set()
        for op in ops:
            if op.kind == "mutate" or op.status != 200:
                continue
            for query, epoch in zip(op.queries, op.payload.get("epochs", [])):
                by_source = wanted.setdefault((op.graph, epoch), {})
                parts = query.split()
                if parts[0] == "diam":
                    diams.add((op.graph, epoch))
                else:
                    targets = by_source.setdefault(int(parts[1]), set())
                    if parts[0] == "dist":
                        targets.add(int(parts[2]))
        from exact import depth_rows, exact_diameter

        for (graph, epoch), by_source in wanted.items():
            adj, indptr, indices = self._epoch_graph(graph, epoch)
            if (graph, epoch) in diams and (graph, epoch) not in self._diams:
                self._diams[(graph, epoch)] = exact_diameter(indptr, indices)
            sources = sorted(by_source)
            for source, row in zip(sources, depth_rows(adj, sources)):
                self._rows[(graph, epoch, source)] = (
                    int(row.max()),
                    {t: int(row[t]) for t in by_source[source]},
                )

    def _epoch_graph(self, graph: str, epoch: int):
        """SciPy adjacency (and CSR arrays) of ``graph`` rebuilt for ``epoch``."""
        from exact import adjacency

        base = base_analog(graph)
        n = base.num_vertices
        inserted, deleted = [], []
        for stamped, op in self._mutations[graph]:
            if stamped <= epoch:
                inserted += [u * n + v for u, v in op.insert] + [v * n + u for u, v in op.insert]
                deleted += [u * n + v for u, v in op.delete] + [v * n + u for u, v in op.delete]
        if not inserted and not deleted:
            return adjacency(base.indptr, base.indices), base.indptr, base.indices
        arcs = np.sort(np.repeat(np.arange(n), np.diff(base.indptr)) * n + base.indices)
        if deleted:
            arcs = arcs[~np.isin(arcs, deleted)]
        if inserted:
            inserted = np.sort(np.asarray(inserted, dtype=np.int64))
            arcs = np.insert(arcs, np.searchsorted(arcs, inserted), inserted)
        indptr = np.searchsorted(arcs // n, np.arange(n + 1))
        indices = arcs % n
        return adjacency(indptr, indices), indptr, indices

    def _answer(self, graph: str, epoch: int, query: str) -> int:
        parts = query.split()
        if parts[0] == "diam":
            return self._diams[(graph, epoch)]
        ecc, dist = self._rows[(graph, epoch, int(parts[1]))]
        return ecc if parts[0] == "ecc" else dist[int(parts[2])]

    def wrong(self, op: Op) -> bool:
        """Whether a 200 answer disagrees with the reference."""
        if op.kind == "mutate":
            applied = op.payload.get("applied", {})
            return applied.get("inserted") != len(op.insert) or applied.get("deleted") != len(op.delete)
        answers = op.payload.get("answers", [])
        epochs = op.payload.get("epochs", [])
        if len(answers) != len(op.queries):
            return True
        for query, answer, epoch in zip(op.queries, answers, epochs):
            if answer != self._answer(op.graph, epoch, query):
                return True
        return False


def count_failures(ops: list[Op], auditor: Auditor) -> tuple[int, list[str]]:
    """Operations that failed: non-200 responses plus wrong answers."""
    wrong = []
    for op in ops:
        if op.status != 200:
            wrong.append(f"{op.kind} {op.graph}: HTTP {op.status} {op.payload}")
        elif auditor.wrong(op):
            wrong.append(f"{op.kind} {op.graph} {op.queries or op.insert}: {op.payload}")
    return len(wrong), wrong


# ----------------------------------------------------------------------
# Load loops
# ----------------------------------------------------------------------
async def open_loop(port: int, ops: list[Op], connections: int, traced: bool, *, offset: float = 0.0) -> float:
    """Send ``ops`` at their due times (``op.at - offset`` seconds after
    the start); returns the window length."""
    conns = [await Connection("127.0.0.1", port).open() for _ in range(connections)]
    queue: asyncio.Queue = asyncio.Queue()
    start = time.perf_counter() + 0.05

    async def pump():
        for op in ops:
            op.due = start + op.at - offset
            delay = op.due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            op.lag = time.perf_counter() - op.due
            queue.put_nowait(op)
        for _ in conns:
            queue.put_nowait(None)

    async def worker(conn):
        while (op := await queue.get()) is not None:
            await _send(conn, op, traced)

    await asyncio.gather(pump(), *(worker(c) for c in conns))
    for conn in conns:
        await conn.close()
    return time.perf_counter() - start


async def closed_loop(port: int, make: TraceMaker, seconds: float, connections: int, traced: bool, *, warm: float = 0.0):
    """Back-to-back reads on every connection for ``warm + seconds``.

    Requests sent during the first ``warm`` seconds fill the server's
    memo and are not counted in the rate. Returns every request and the
    measured window.
    """
    conns = [await Connection("127.0.0.1", port).open() for _ in range(connections)]
    done: list[Op] = []
    start = time.perf_counter() + warm
    deadline = start + seconds

    async def worker(conn):
        while time.perf_counter() < deadline:
            op = make.read()
            op.due = time.perf_counter()
            await _send(conn, op, traced)
            done.append(op)

    await asyncio.gather(*(worker(c) for c in conns))
    wall = max(op.done for op in done) - start if done else 0.0
    for conn in conns:
        await conn.close()
    return done, [op for op in done if op.due >= start], wall


# ----------------------------------------------------------------------
# The phase
# ----------------------------------------------------------------------
def serve_phase(
    mix: ServeMix,
    seed: int,
    warm_s: float,
    closed_s: float,
    open_s: float,
    *,
    cycles: int,
    interlude,
    trace_dir: Path | None,
) -> dict:
    """Start the server (several times, for set-up), load it, audit.

    A closed-loop warm-up of ``warm_s`` seconds first brings the
    server's memo to steady state. Then ``cycles`` times: the
    ``interlude(k)`` callback runs (the server idles), one slice of the
    open-loop schedule is replayed, and one slice of the closed loop.
    Spreading each measurement over the whole run averages over more of
    the host's slow speed swings than one block would.
    """
    t_begin = time.perf_counter()
    paths = served_files(mix.graphs)
    vertices = {name: base_analog(name).num_vertices for name in mix.graphs}
    auditor = Auditor(mix)
    make = TraceMaker(mix, seed, "open" if not mix.mutable else "churn")
    ops = make.open_loop_ops(open_s)
    connections = nproc()
    traced = trace_dir is not None

    async def main():
        setups = []
        server = None
        try:
            # Set-up is timed on several fresh servers; the last one serves.
            for attempt in range(SERVER_STARTS):
                if server is not None:
                    server.stop()
                last = attempt == SERVER_STARTS - 1
                trace_out = trace_dir / "server-spans.json" if (traced and last) else None
                server = Server(paths, mutable=mix.mutable, trace_out=trace_out, tag=f"serve-{attempt}")
                setups.append(await server.wait_ready(vertices))
            # The first diam per graph is a cold solve the server pays
            # once per lifetime; it is taken before the timed window.
            conn = await Connection("127.0.0.1", server.port).open()
            for name in mix.graphs:
                status, _ = await conn.request("POST", "/query", {"graph": name, "query": "diam"})
                if status != 200:
                    raise InvalidRun(f"warm-up diam on {name} answered {status}")
            await conn.close()
            timings["setup"] = time.perf_counter() - t_begin
            closed, _, _ = await closed_loop(server.port, make, 0.0, connections, traced, warm=warm_s)
            counted, window, closed_wall = [], 0.0, 0.0
            slice_s = open_s / cycles
            for k in range(cycles):
                interlude(k)
                t0 = time.perf_counter()
                chunk = [op for op in ops if k * slice_s <= op.at < (k + 1) * slice_s]
                window += await open_loop(server.port, chunk, connections, traced, offset=k * slice_s)
                t1 = time.perf_counter()
                done, measured, wall = await closed_loop(
                    server.port, make, closed_s / cycles, connections, traced
                )
                closed += done
                counted += measured
                closed_wall += wall
                timings["open"] = timings.get("open", 0.0) + t1 - t0
                timings["closed"] = timings.get("closed", 0.0) + time.perf_counter() - t1
            rss = server.peak_rss_mb()
        finally:
            if server is not None:
                server.stop()
        return setups, window, closed, counted, closed_wall, rss

    timings: dict = {}
    setups, window, closed, counted, closed_wall, rss = asyncio.run(main())
    t_audit = time.perf_counter()

    everything = ops + closed
    auditor.prepare(everything)
    failed, wrong = count_failures(everything, auditor)

    reads = [latency_from_due(op.due, op.done) for op in ops if op.kind == "read"]
    diams = [latency_from_due(op.due, op.done) for op in ops if "diam" in op.queries]
    mutations = [latency_from_due(op.due, op.done) for op in ops if op.kind == "mutate"]
    lags = [op.lag for op in ops]
    lag_p99 = percentile(lags, 99)
    if lag_p99 > MAX_GENERATOR_LAG_S:
        raise InvalidRun(
            f"load generator fell behind: p99 lag {1e3 * lag_p99:.1f} ms "
            f"> {1e3 * MAX_GENERATOR_LAG_S:.0f} ms"
        )
    answered = sum(len(op.queries) for op in counted if op.status == 200)
    timings["audit"] = time.perf_counter() - t_audit
    out = {
        "setup_samples": setups,
        "peak_rss_mb": rss,
        "query_p50_ms": 1e3 * percentile(reads, 50),
        "query_p99_ms": 1e3 * tail_percentile(reads, 99),
        "peak_qps": answered / closed_wall,
        "diam_p90_ms": 1e3 * tail_percentile(diams, 90),
        "reads": len(reads),
        "diams": len(diams),
        "closed_requests": len(closed),
        "attempted": len(everything),
        "failed": failed,
        "wrong": wrong[:20],
        "generator": {
            "connections": connections,
            "threads": threading.active_count(),
            "lag_p99_ms": 1e3 * lag_p99,
            "offered_rps": len(ops) / max(window, 1e-9),
        },
        "timings_s": timings,
        "ops": everything,
    }
    if mix.mutable:
        out["mutate_p90_ms"] = 1e3 * tail_percentile(mutations, 90)
        out["mutations"] = len(mutations)
    return out

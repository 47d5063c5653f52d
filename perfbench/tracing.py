"""Layer spans recorded from outside the program.

:func:`install` wraps the public entry points of each layer (and the
few service hooks needed to split a request's wait) so that every call
records a span: name, start, end, parent span and request id. Spans
stay in memory until the run ends. Nothing under ``src/`` is modified;
the wrappers replace module and class attributes in this process only.

Span names are the layer names of the per-layer metrics: ``store.open``,
``graph.kcore``, ``prep``, ``core.winnow``, ``core.chain``,
``core.eliminate``, ``bfs.<method>``, ``parallel.rows``, ``query.run``,
``query.mutate``, ``dynamic.apply``, ``dynamic.view``,
``dynamic.refresh``, ``service.submit``, ``service.mutate``. Roots are
``op.solve`` (one cold solve) and ``op.request`` (one HTTP request).
"""

from __future__ import annotations

import collections
import contextlib
import contextvars
import functools
import importlib
import itertools
import json
import sys
import threading
import time

NAME, START, END, PARENT, RID, ATTRS = range(6)

#: Request id of the HTTP request the current task serves.
_REQUEST: contextvars.ContextVar = contextvars.ContextVar("request", default=None)
#: The submit record of the query the current task is submitting.
_SUBMIT: contextvars.ContextVar = contextvars.ContextVar("submit", default=None)


class Tracer:
    """In-memory span store with a per-thread parent stack."""

    def __init__(self):
        self.spans: list[list] = []
        self.enabled = True
        self._lock = threading.Lock()
        self._local = threading.local()
        self._rids = itertools.count(1)
        #: Flush instants per graph key, consumed by the engine run
        #: or mutation that the flush dispatched (same FIFO order).
        self.flushes: dict[str, collections.deque] = collections.defaultdict(
            collections.deque
        )
        #: id(parsed query tuple) -> submit record, until its batch runs.
        self.pending: dict[int, dict] = {}

    def stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def new_rid(self) -> int:
        return next(self._rids)

    def open(self, name: str, *, rid=None, push=True, **attrs) -> int:
        stack = self.stack()
        parent = stack[-1] if push and stack else None
        if rid is None:
            if parent is not None:
                rid = self.spans[parent][RID]
            else:
                rid = _REQUEST.get() or self.new_rid()
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent, rid, attrs])
        if push:
            stack.append(index)
        return index

    def close(self, index: int, *, pop=True) -> None:
        self.spans[index][END] = time.perf_counter()
        if pop:
            self.stack().pop()

    @contextlib.contextmanager
    def root(self, name: str, **attrs):
        index = self.open(name, rid=self.new_rid(), **attrs)
        try:
            yield index
        finally:
            self.close(index)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans}, fh)


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------
def _span_wrapper(tracer: Tracer, fn, name: str, describe=None):
    """Span around ``fn``; ``describe(result)`` adds attributes."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if describe is not None:
            tracer.spans[index][ATTRS].update(describe(result))
        return result

    return wrapper


#: Kernel primitives that traverse; ``ball``/``eccentricity`` delegate
#: to them and only get a span.
_BFS_LEAVES = ("bfs", "levels", "levels_batched64", "distance_batch")
_BFS_METHODS = _BFS_LEAVES + ("ball", "eccentricity")


def _bfs_counts(method: str, args, result) -> dict:
    """Levels, sources and lane use of one outermost traversal call."""
    if method == "bfs":
        return {"levels": result.eccentricity, "sources": 1}
    if method == "levels":
        return {"levels": len(result), "sources": 1}
    sweeps = [result] if method == "levels_batched64" else result[1]
    return {
        "levels": sum(s.levels for s in sweeps),
        "sources": sum(len(s.sources) for s in sweeps),
        "lanes_used": sum(len(s.sources) for s in sweeps),
        "lanes_cap": sum(64 * s.width for s in sweeps),
    }


def _kernel_wrapper(tracer: Tracer, fn, method: str):
    leaf = method in _BFS_LEAVES
    name = f"bfs.{method}"

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        if not tracer.enabled:
            return fn(self, *args, **kwargs)
        local = tracer._local
        depth = getattr(local, "bfs_depth", 0)
        counted = leaf and depth == 0
        edges0 = self.workspace.stats.edges_examined if counted else 0
        if leaf:
            local.bfs_depth = depth + 1
        index = tracer.open(name)
        try:
            result = fn(self, *args, **kwargs)
        finally:
            tracer.close(index)
            if leaf:
                local.bfs_depth = depth
        if counted:
            attrs = tracer.spans[index][ATTRS]
            attrs.update(_bfs_counts(method, args, result))
            attrs["edges"] = self.workspace.stats.edges_examined - edges0
        return result

    return wrapper


def _patch_function(module_name: str, attr: str, wrapper_factory) -> None:
    """Replace ``module.attr`` and every alias of it in loaded modules."""
    original = getattr(importlib.import_module(module_name), attr)
    wrapped = wrapper_factory(original)
    for name, mod in list(sys.modules.items()):
        if not name.startswith("repro") or mod is None:
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapped)


def _patch_method(cls, attr: str, wrapper_factory) -> None:
    for klass in [cls] + _subclasses(cls):
        if attr in vars(klass):
            setattr(klass, attr, wrapper_factory(vars(klass)[attr]))


def _subclasses(cls) -> list:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


_FUNCTIONS = (
    ("repro.graph.io", "read_graph", "store.open"),
    ("repro.store.scsr", "load_scsr", "store.open"),
    ("repro.graph.kcore", "core_numbers", "graph.kcore"),
    ("repro.prep.pipeline", "preprocess", "prep"),
    ("repro.prep.pipeline", "gate_spec", "prep"),
    ("repro.core.winnow", "winnow", "core.winnow"),
    ("repro.core.chain", "process_chains", "core.chain"),
    ("repro.core.chain", "batch_tip_eccentricities", "core.chain"),
    ("repro.core.eliminate", "eliminate", "core.eliminate"),
    ("repro.core.extend", "extend_eliminated", "core.eliminate"),
)


def install(tracer: Tracer, *, service: bool = False) -> None:
    """Wrap every layer entry point; with ``service`` also the hooks
    that split a served query's time into window, queue and run."""
    for module in (
        "repro.cli",
        "repro.cache.runner",
        "repro.service",
        "repro.query.engine",
        "repro.dynamic",
    ):
        importlib.import_module(module)
    for module, attr, name in _FUNCTIONS:
        _patch_function(
            module, attr, lambda fn, name=name: _span_wrapper(tracer, fn, name)
        )

    from repro.bfs.kernel import TraversalKernel
    from repro.dynamic.diameter import DynamicDiameter
    from repro.dynamic.graph import DynamicGraph
    from repro.parallel.sweep import SweepExecutor
    from repro.query.engine import QueryEngine

    for method in _BFS_METHODS:
        _patch_method(
            TraversalKernel,
            method,
            lambda fn, method=method: _kernel_wrapper(tracer, fn, method),
        )
    for cls, attr, name, describe in (
        (SweepExecutor, "distance_rows", "parallel.rows", None),
        (DynamicGraph, "apply", "dynamic.apply", None),
        (DynamicGraph, "view", "dynamic.view", None),
        (DynamicDiameter, "refresh", "dynamic.refresh", lambda r: {"strategy": r.strategy}),
    ):
        _patch_method(
            cls, attr, lambda fn, n=name, d=describe: _span_wrapper(tracer, fn, n, d)
        )
    _patch_method(QueryEngine, "run", lambda fn: _engine_run(tracer, fn))
    _patch_method(QueryEngine, "mutate", lambda fn: _engine_mutate(tracer, fn))
    if service:
        _install_service(tracer)


def _engine_run(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(self, key, queries):
        if not tracer.enabled:
            return fn(self, key, queries)
        flushes = tracer.flushes.get(key)
        flushed = flushes.popleft() if flushes else None
        index = tracer.open("query.run", graph=key)
        try:
            answers, stats = fn(self, key, queries)
        finally:
            tracer.close(index)
        span = tracer.spans[index]
        reads = sum(1 for q in queries if (q[0] if isinstance(q, tuple) else str(q).split()[0]) != "diam")
        span[ATTRS].update(
            queries=len(queries), reads=reads, memo_hits=stats.memo_hits
        )
        for q in queries:
            record = tracer.pending.pop(id(q), None)
            if record is not None:
                record.update(flush=flushed, run_start=span[START], run_end=span[END])
        return answers, stats

    return wrapper


def _engine_mutate(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(self, key, *args, **kwargs):
        if not tracer.enabled:
            return fn(self, key, *args, **kwargs)
        flushes = tracer.flushes.get(key)
        if flushes:
            flushes.popleft()
        index = tracer.open("query.mutate", graph=key)
        try:
            return fn(self, key, *args, **kwargs)
        finally:
            tracer.close(index)

    return wrapper


def _install_service(tracer: Tracer) -> None:
    from repro.service import registry, scheduler, server

    def async_span(fn, name):
        @functools.wraps(fn)
        async def wrapper(self, *args, **kwargs):
            record: dict = {}
            index = tracer.open(name, push=False, record=record)
            token = _SUBMIT.set(record)
            try:
                return await fn(self, *args, **kwargs)
            finally:
                _SUBMIT.reset(token)
                tracer.close(index, pop=False)

        return wrapper

    sched = scheduler.CoalescingScheduler
    sched.submit = async_span(sched.submit, "service.submit")
    sched.submit_mutation = async_span(sched.submit_mutation, "service.mutate")

    original_parse = scheduler.parse_query

    @functools.wraps(original_parse)
    def parse_query(query, **kwargs):
        parsed = original_parse(query, **kwargs)
        record = _SUBMIT.get()
        if record is not None:
            record["query"] = parsed  # keeps id(parsed) unique while pending
            tracer.pending[id(parsed)] = record
        return parsed

    scheduler.parse_query = parse_query

    original_pin = registry.GraphRegistry.pin

    @functools.wraps(original_pin)
    def pin(self, key):
        tracer.flushes[key].append(time.perf_counter())
        return original_pin(self, key)

    registry.GraphRegistry.pin = pin

    original_dispatch = server.QueryService._dispatch_request

    @functools.wraps(original_dispatch)
    async def dispatch(self, method, path, body):
        rid = None
        if body:
            try:
                rid = json.loads(body).get("rid")
            except (ValueError, AttributeError, UnicodeDecodeError):
                rid = None
        rid = rid if isinstance(rid, int) else tracer.new_rid()
        token = _REQUEST.set(rid)
        index = tracer.open("op.request", rid=rid, push=False, path=path)
        try:
            return await original_dispatch(self, method, path, body)
        finally:
            tracer.close(index, pop=False)
            _REQUEST.reset(token)

    server.QueryService._dispatch_request = dispatch


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------
def covered(intervals, lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    children: dict[int, list] = collections.defaultdict(list)
    for span in spans:
        if span[PARENT] is not None and span[END] is not None:
            children[span[PARENT]].append((span[START], span[END]))
    out = []
    for index, span in enumerate(spans):
        if span[END] is None:
            out.append(0.0)
            continue
        kids = children.get(index, ())
        out.append(span[END] - span[START] - covered(kids, span[START], span[END]))
    return out


def nearest(spans, predicate) -> list:
    """Per span, the index of its nearest ancestor matching
    ``predicate`` (or ``None``). Parents always precede children."""
    out: list = []
    for span in spans:
        parent = span[PARENT]
        if parent is None:
            out.append(None)
        elif predicate(spans[parent]):
            out.append(parent)
        else:
            out.append(out[parent])
    return out


def outermost(spans, name_prefix: str) -> list[list]:
    """Spans under ``name_prefix`` with no ancestor in the same layer."""
    inside = nearest(spans, lambda s: s[NAME].startswith(name_prefix))
    return [
        span
        for span, ancestor in zip(spans, inside)
        if span[NAME].startswith(name_prefix) and span[END] is not None and ancestor is None
    ]


def unattributed(spans) -> tuple[float, float]:
    """(time of root spans covered by no layer span, total root time).

    Roots are the ``op.`` spans: one solve or one HTTP request.
    """
    by_rid: dict[int, list] = collections.defaultdict(list)
    for span in spans:
        if span[END] is not None and not span[NAME].startswith("op."):
            by_rid[span[RID]].append((span[START], span[END]))
    lost = total = 0.0
    for span in spans:
        if span[NAME].startswith("op.") and span[END] is not None:
            duration = span[END] - span[START]
            total += duration
            lost += duration - covered(by_rid.get(span[RID], ()), span[START], span[END])
    return lost, total

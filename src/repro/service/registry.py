"""Multi-graph registry: lazy opens, byte-budgeted LRU residency.

The server is configured with *specs* (a key plus a graph file path,
or an already-built :class:`~repro.graph.csr.CSRGraph`); the registry
opens them lazily on first query and keeps the resident set under a
byte budget with LRU eviction. Residency is measured as
``indptr.nbytes + indices.nbytes`` — the decoded arrays a traversal
actually walks, whatever the file format. The budget evicts *whole
graphs*: one whose decoded size alone exceeds it still opens, and
stays resident until another graph's open evicts it.

Threading contract: :meth:`ensure`, :meth:`evict`, and :meth:`close`
run on the scheduler's single dispatch thread (the same thread that
runs ``QueryEngine`` batches), so the engine's registry and this one
are mutated from exactly one thread. :meth:`pin`/:meth:`unpin` are
called from the event loop and guarded by a lock; pinned graphs (ones
with queries waiting or in flight) are never evicted. Neither are
mutated dynamic graphs (epoch > 0): their edits exist only in memory,
and a reopen from the file would silently serve epoch 0 again.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.dynamic import DynamicGraph
from repro.errors import AlgorithmError
from repro.graph.csr import CSRGraph
from repro.graph.io import read_graph

__all__ = ["GraphRegistry", "GraphSpec", "UnknownGraphError", "resident_bytes"]


class UnknownGraphError(AlgorithmError):
    """A query named a graph key the registry has no spec for (404)."""


def resident_bytes(graph) -> int:
    """Decoded working-set estimate: the arrays a traversal walks.

    A :class:`~repro.dynamic.DynamicGraph` is measured by its base CSR
    (the overlay is bounded by the compaction threshold, a fraction of
    the base).
    """
    base = getattr(graph, "base", graph)
    return int(base.indptr.nbytes + base.indices.nbytes)


@dataclass
class GraphSpec:
    """One serveable graph: a key plus how to materialize it."""

    key: str
    #: Path to open lazily (``.npz``/``.scsr``/text), or ``None`` when
    #: ``graph`` is provided directly.
    path: str | None = None
    #: Pre-built graph (tests, embedded use).
    graph: CSRGraph | None = None
    #: Memory-map ``.npz`` CSR arrays on open (other formats ignore it).
    mmap: bool = True
    #: Wrap in a :class:`~repro.dynamic.DynamicGraph` on open so the
    #: service can apply ``POST /mutate`` batches to it.
    dynamic: bool = False

    def __post_init__(self):
        if (self.path is None) == (self.graph is None):
            raise AlgorithmError(
                f"graph spec {self.key!r} needs exactly one of path/graph"
            )


class _Resident:
    __slots__ = ("graph", "nbytes")

    def __init__(self, graph: CSRGraph, nbytes: int):
        self.graph = graph
        self.nbytes = nbytes


class GraphRegistry:
    """Byte-budgeted LRU of resident graphs in front of a QueryEngine."""

    def __init__(self, engine, *, byte_budget: int | None = None):
        if byte_budget is not None and byte_budget < 0:
            raise AlgorithmError("byte_budget must be >= 0")
        self.engine = engine
        self.byte_budget = byte_budget
        self._specs: dict[str, GraphSpec] = {}
        self._resident: dict[str, _Resident] = {}  # insertion = LRU order
        self._pins: dict[str, int] = {}
        self._pin_lock = threading.Lock()
        self.opens = 0
        self.evictions = 0
        #: Times a mutated dynamic graph was passed over as an
        #: eviction victim (it stays resident over budget).
        self.mutated_skips = 0

    # ------------------------------------------------------------------
    # Specs
    # ------------------------------------------------------------------
    def register(
        self,
        key: str,
        *,
        path: str | None = None,
        graph: CSRGraph | None = None,
        mmap: bool = True,
        dynamic: bool = False,
    ) -> None:
        """Declare a serveable graph (not opened until first query)."""
        self._specs[key] = GraphSpec(
            key=key, path=path, graph=graph, mmap=mmap, dynamic=dynamic
        )

    def __contains__(self, key: str) -> bool:
        return key in self._specs

    def keys(self) -> list[str]:
        return list(self._specs)

    @property
    def resident_total(self) -> int:
        return sum(r.nbytes for r in self._resident.values())

    # ------------------------------------------------------------------
    # Pinning (event-loop side)
    # ------------------------------------------------------------------
    def pin(self, key: str) -> None:
        """Protect ``key`` from eviction while queries reference it."""
        with self._pin_lock:
            self._pins[key] = self._pins.get(key, 0) + 1

    def unpin(self, key: str) -> None:
        with self._pin_lock:
            count = self._pins.get(key, 0) - 1
            if count <= 0:
                self._pins.pop(key, None)
            else:
                self._pins[key] = count

    def _pinned(self, key: str) -> bool:
        with self._pin_lock:
            return self._pins.get(key, 0) > 0

    # ------------------------------------------------------------------
    # Residency (dispatch-thread side)
    # ------------------------------------------------------------------
    def ensure(self, key: str) -> CSRGraph:
        """Open ``key`` if cold, register it with the engine, and
        return the graph; refreshes LRU order and applies the budget."""
        spec = self._specs.get(key)
        if spec is None:
            raise UnknownGraphError(
                f"unknown graph {key!r}; serveable: {sorted(self._specs)}"
            )
        resident = self._resident.get(key)
        if resident is None:
            if spec.graph is not None:
                graph = spec.graph
            else:
                graph = read_graph(spec.path, mmap=spec.mmap)
            if spec.dynamic and not isinstance(graph, DynamicGraph):
                graph = DynamicGraph(graph)
            self.engine.add_graph(graph, key=key)
            resident = _Resident(graph, resident_bytes(graph))
            self._resident[key] = resident
            self.opens += 1
        else:
            # Refresh LRU order (dict preserves insertion order).
            self._resident.pop(key)
            self._resident[key] = resident
        self._evict_over_budget(keep=key)
        return resident.graph

    def _mutated(self, key: str) -> bool:
        graph = self._resident[key].graph
        return isinstance(graph, DynamicGraph) and graph.epoch > 0

    def _evict_over_budget(self, *, keep: str) -> None:
        if self.byte_budget is None:
            return
        skipped: set[str] = set()
        while self.resident_total > self.byte_budget:
            victim = None
            for k in self._resident:
                if k == keep or self._pinned(k):
                    continue
                if self._mutated(k):
                    skipped.add(k)
                    continue
                victim = k
                break
            if victim is None:
                # Everything else is pinned or mutated (or this is the
                # only graph): allow the overshoot — shedding in-flight
                # work or in-memory edits to honor a byte budget would
                # corrupt answers.
                break
            self.evict(victim)
        self.mutated_skips += len(skipped)

    def evict(self, key: str) -> bool:
        """Drop ``key`` from the engine (reopened from its spec on demand)."""
        if self._resident.pop(key, None) is None:
            return False
        self.engine.remove_graph(key)
        self.evictions += 1
        return True

    def close(self) -> None:
        """Evict everything (shutdown path)."""
        for key in list(self._resident):
            self.evict(key)

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """The ``/stats`` endpoint's ``registry`` section."""
        return {
            "registered": len(self._specs),
            "resident": len(self._resident),
            "resident_bytes": self.resident_total,
            "byte_budget": self.byte_budget,
            "opens": self.opens,
            "evictions": self.evictions,
            "mutated_skips": self.mutated_skips,
            "graphs": {
                key: {
                    "resident": key in self._resident,
                    "resident_bytes": (
                        self._resident[key].nbytes
                        if key in self._resident
                        else 0
                    ),
                    "vertices": (
                        self._resident[key].graph.num_vertices
                        if key in self._resident
                        else None
                    ),
                }
                for key in self._specs
            },
        }

"""One dispatch layer for every independent-BFS-source fan-out.

Every bound-driven diameter scheme in this package fans out the same
way: a round of *independent* full BFS traversals from a set of chosen
sources, whose distance rows then refine shared bounds (the
eccentricity spectrum, the SumSweep / Takes–Kosters bounding rounds,
the batched query engine). They all go through a
:class:`SweepExecutor` with two interchangeable backends:

* ``serial`` — one pooled-kernel BFS per source. The reference
  backend, and the right one for tiny rounds and high-diameter
  structures where lane words lose.
* ``bitparallel`` — chunked 64-lane shared-gather sweeps
  (:func:`repro.bfs.bitparallel.lane_distances`); amortizes up to 64
  traversals per edge-gather pass.

Both are bit-identical by construction (BFS distances are unique).
Backend selection is the cost model's job:
:meth:`~repro.parallel.costmodel.LevelSynchronousCostModel.choose_backend`
picks one and :func:`create_executor` applies its verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.bfs.kernel import TraversalKernel
from repro.errors import AlgorithmError
from repro.graph.csr import CSRGraph
from repro.parallel.costmodel import LANE_WIDTH, LevelSynchronousCostModel

__all__ = [
    "ExecutorCounters",
    "SweepInfo",
    "SweepExecutor",
    "SerialSweepExecutor",
    "BitparallelSweepExecutor",
    "create_executor",
]

@dataclass(frozen=True)
class SweepInfo:
    """Accounting of one :meth:`SweepExecutor.distance_rows` round.

    ``eccentricities[i]`` is the exact eccentricity of ``sources[i]``
    within its component (the row maximum, read out without another
    pass); ``sweeps`` counts physical edge-gather passes, so
    ``traversals / sweeps`` is the gather amortization the round
    achieved. ``lane_occupancy`` is the mean lane-word fill across the
    round's sweeps (1.0 for scalar traversals).
    """

    backend: str
    traversals: int
    sweeps: int
    edges_examined: int
    lane_occupancy: float
    eccentricities: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))


@dataclass
class ExecutorCounters:
    """Lifetime totals of one :class:`SweepExecutor`.

    Every :meth:`SweepExecutor.distance_rows` round accumulates its
    :class:`SweepInfo` here, so a long-lived executor (the query
    engine's per-graph dispatcher, the serving layer's ``/stats``
    endpoint) can report cumulative amortization without the caller
    threading per-round infos around.
    """

    rounds: int = 0
    traversals: int = 0
    sweeps: int = 0
    edges_examined: int = 0

    def account(self, info: SweepInfo) -> None:
        self.rounds += 1
        self.traversals += info.traversals
        self.sweeps += info.sweeps
        self.edges_examined += info.edges_examined

    def snapshot(self) -> dict:
        """JSON-friendly view (the ``/stats`` payload shape)."""
        return {
            "rounds": self.rounds,
            "traversals": self.traversals,
            "sweeps": self.sweeps,
            "edges_examined": self.edges_examined,
        }


class SweepExecutor:
    """Abstract dispatcher for rounds of independent BFS sources.

    Concrete backends implement :meth:`distance_rows`; everything else
    (round sizing, context management, close, the cumulative
    :attr:`counters`) is shared. Executors are deterministic: the
    distance matrix depends only on the graph and the source list,
    never on the backend.
    """

    backend = "abstract"

    def __init__(self, graph: CSRGraph, *, kernel: TraversalKernel | None = None):
        self.graph = graph
        self.kernel = kernel if kernel is not None else TraversalKernel(graph)
        #: Lifetime round/traversal/sweep totals across distance_rows calls.
        self.counters = ExecutorCounters()
        if self.kernel.graph is not graph:
            raise AlgorithmError("sweep executor kernel is bound to a different graph")

    @property
    def round_size(self) -> int:
        """Preferred number of sources per refinement round."""
        return 1

    def distance_rows(self, sources) -> tuple[np.ndarray, SweepInfo]:
        """Exact distance rows for ``sources``: ``((k, n) int32, SweepInfo)``."""
        raise NotImplementedError

    def close(self) -> None:
        """Release backend resources."""

    def __enter__(self) -> "SweepExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _check_sources(self, sources) -> np.ndarray:
        sources = np.asarray(sources, dtype=np.int64).ravel()
        n = self.graph.num_vertices
        if len(sources) and (sources.min() < 0 or sources.max() >= n):
            raise AlgorithmError(f"sweep source out of range [0, {n})")
        return sources


class SerialSweepExecutor(SweepExecutor):
    """One pooled-kernel BFS per source (the reference backend)."""

    backend = "serial"

    def distance_rows(self, sources) -> tuple[np.ndarray, SweepInfo]:
        sources = self._check_sources(sources)
        k = len(sources)
        n = self.graph.num_vertices
        dist = np.empty((k, n), dtype=np.int32)
        ecc = np.zeros(k, dtype=np.int64)
        ws = self.kernel.workspace
        edges_before = ws.stats.edges_examined
        for i, s in enumerate(sources.tolist()):
            res = self.kernel.bfs(s, record_dist=True)
            dist[i] = res.dist
            ecc[i] = res.eccentricity
            ws.release_dist(res.dist)
        info = SweepInfo(
            backend=self.backend,
            traversals=k,
            sweeps=k,
            edges_examined=ws.stats.edges_examined - edges_before,
            lane_occupancy=1.0 if k else 0.0,
            eccentricities=ecc,
        )
        self.counters.account(info)
        return dist, info


class BitparallelSweepExecutor(SweepExecutor):
    """Chunked 64-lane shared-gather sweeps in the calling process."""

    backend = "bitparallel"

    def __init__(
        self,
        graph: CSRGraph,
        *,
        kernel: TraversalKernel | None = None,
        max_lanes: int = LANE_WIDTH,
    ):
        super().__init__(graph, kernel=kernel)
        if max_lanes < 1:
            raise AlgorithmError(f"max_lanes must be >= 1, got {max_lanes}")
        self.max_lanes = max_lanes

    @property
    def round_size(self) -> int:
        return self.max_lanes

    def distance_rows(self, sources) -> tuple[np.ndarray, SweepInfo]:
        sources = self._check_sources(sources)
        dist, sweeps = self.kernel.distance_batch(sources, max_lanes=self.max_lanes)
        ecc = (
            np.concatenate([s.eccentricities for s in sweeps])
            if sweeps
            else np.empty(0, np.int64)
        )
        info = SweepInfo(
            backend=self.backend,
            traversals=len(sources),
            sweeps=len(sweeps),
            edges_examined=sum(s.edges_examined for s in sweeps),
            lane_occupancy=(
                sum(s.lane_occupancy for s in sweeps) / len(sweeps) if sweeps else 0.0
            ),
            eccentricities=ecc,
        )
        self.counters.account(info)
        return dist, info


def create_executor(
    graph: CSRGraph,
    *,
    batch_lanes: int = LANE_WIDTH,
    backend: str = "auto",
    kernel: TraversalKernel | None = None,
    model: LevelSynchronousCostModel | None = None,
) -> SweepExecutor:
    """Build the right :class:`SweepExecutor` for a fan-out workload.

    ``backend="auto"`` delegates to
    :meth:`LevelSynchronousCostModel.choose_backend` with the graph's
    structural estimate and ``batch_lanes`` expected sources per round.
    """
    if batch_lanes < 1:
        raise AlgorithmError(f"batch_lanes must be >= 1, got {batch_lanes}")
    if backend == "auto":
        model = model or LevelSynchronousCostModel()
        backend = model.choose_backend(
            num_sources=batch_lanes,
            num_vertices=graph.num_vertices,
            num_directed_edges=graph.num_directed_edges,
            max_degree=graph.max_degree(),
            lanes=min(batch_lanes, LANE_WIDTH),
        )
    if backend == "bitparallel":
        return BitparallelSweepExecutor(graph, kernel=kernel, max_lanes=batch_lanes)
    if backend == "serial":
        return SerialSweepExecutor(graph, kernel=kernel)
    raise AlgorithmError(
        f"unknown sweep backend {backend!r}; expected auto, serial, or bitparallel"
    )

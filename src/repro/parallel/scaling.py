"""Thread-scaling study (paper Figure 7), modeled from measured traces.

Runs F-Diam once per input with trace collection enabled, then feeds
the measured per-level traces through the
:class:`~repro.parallel.costmodel.LevelSynchronousCostModel` at each
thread count, yielding modeled throughputs whose geometric mean over
all inputs reproduces the shape of the paper's Figure 7: throughput
rising to the physical core count and flattening beyond it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from dataclasses import replace as dataclasses_replace

import numpy as np

from repro.core.config import FDiamConfig
from repro.core.fdiam import fdiam
from repro.errors import AlgorithmError
from repro.graph.csr import CSRGraph
from repro.parallel.costmodel import CostModelParams, LevelSynchronousCostModel

__all__ = [
    "ScalingPoint",
    "ScalingStudy",
    "PAPER_THREAD_COUNTS",
]

#: The thread counts of the paper's Figure 7 x-axis.
PAPER_THREAD_COUNTS = (1, 2, 4, 8, 16, 32, 64)


@dataclass(frozen=True)
class ScalingPoint:
    """Modeled performance of one input at one thread count."""

    graph_name: str
    num_threads: int
    modeled_seconds: float
    throughput: float  # vertices / second (the paper's metric)
    speedup: float  # over the 1-thread model


@dataclass
class ScalingStudy:
    """Collects per-input traces and evaluates the cost model."""

    params: CostModelParams = field(default_factory=CostModelParams)
    thread_counts: tuple[int, ...] = PAPER_THREAD_COUNTS
    points: list[ScalingPoint] = field(default_factory=list)

    def run_input(
        self, graph: CSRGraph, config: FDiamConfig | None = None
    ) -> list[ScalingPoint]:
        """Trace one F-Diam run on ``graph`` and model every thread count.

        ``config`` selects the engine (and any other F-Diam knobs) the
        traced run uses; trace collection is forced on. The default
        remains the parallel engine the paper's Figure 7 measures.
        """
        if config is None:
            config = FDiamConfig(engine="parallel", keep_traces=True)
        elif not config.keep_traces:
            config = dataclasses_replace(config, keep_traces=True)
        result = fdiam(graph, config)
        traces = result.stats.traces
        if not traces:
            raise AlgorithmError(
                f"no BFS traces collected on {graph.name!r} with engine "
                f"{config.engine!r}; cannot model scaling"
            )
        model = LevelSynchronousCostModel(self.params)
        t1 = model.run_time(traces, 1)
        points = []
        for t in self.thread_counts:
            seconds = model.run_time(traces, t)
            points.append(
                ScalingPoint(
                    graph_name=graph.name,
                    num_threads=t,
                    modeled_seconds=seconds,
                    throughput=graph.num_vertices / seconds,
                    speedup=t1 / seconds,
                )
            )
        self.points.extend(points)
        return points

    def geomean_throughput(self) -> dict[int, float]:
        """Geometric-mean modeled throughput per thread count
        (the paper's Figure 7 y-axis)."""
        out: dict[int, float] = {}
        for t in self.thread_counts:
            vals = [p.throughput for p in self.points if p.num_threads == t]
            if vals:
                out[t] = float(np.exp(np.mean(np.log(vals))))
        return out

    def geomean_speedup(self) -> dict[int, float]:
        """Geometric-mean modeled speedup per thread count."""
        out: dict[int, float] = {}
        for t in self.thread_counts:
            vals = [p.speedup for p in self.points if p.num_threads == t]
            if vals:
                out[t] = float(np.exp(np.mean(np.log(vals))))
        return out

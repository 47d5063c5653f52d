"""SumSweep — exact diameter via sum-sweep seeding + two-sided bounds.

The SumSweep family (Borassi, Crescenzi, Habib, Kosters, Marino, Takes,
2015) is the other well-known BFS-bounding diameter tool besides iFUB
and BoundingDiameters; the F-Diam paper's lineage discussion groups all
of them under "update lower and upper bounds of eccentricities across
the graph as the computation progresses". It is included here as a
sixth baseline for completeness of the comparison field.

This is the undirected *ExactSumSweep* scheme, simplified:

1. **SumSweep phase** — ``k`` initial BFS sweeps. The first source is
   the max-degree vertex; each later source is the not-yet-swept vertex
   maximizing the accumulated distance sum ``S(v) = Σ_s d(s, v)`` (a
   cheap closeness-centrality proxy: large sum ⇒ peripheral ⇒ likely
   large eccentricity). Every sweep tightens both per-vertex bounds:
   ``l(v) ≥ d(s, v)`` and ``u(v) ≤ d(s, v) + ecc(s)``.
2. **Bounding phase** — while any vertex's upper bound exceeds the
   diameter lower bound, evaluate the unresolved vertex with the
   largest upper bound (ties: larger distance sum) and refine.

Exactness follows from the bound invariants alone; the SumSweep seeding
only determines how quickly the candidate set collapses.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import (
    BaselineContext,
    BaselineResult,
    component_representatives,
)
from repro.bfs.eccentricity import Engine
from repro.graph.csr import CSRGraph

__all__ = ["sumsweep_diameter"]

#: Number of seeding sweeps (the original paper uses a handful; 6 keeps
#: the heuristic meaningful on the smallest analog components too).
DEFAULT_SWEEPS = 6


def _component_diameter(
    ctx: BaselineContext, vertices: np.ndarray, num_sweeps: int
) -> int:
    graph = ctx.graph
    n = graph.num_vertices
    in_comp = np.zeros(n, dtype=bool)
    in_comp[vertices] = True

    ecc_lb = np.zeros(n, dtype=np.int64)
    ecc_ub = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
    dist_sum = np.zeros(n, dtype=np.int64)
    swept = np.zeros(n, dtype=bool)
    diam_lb = 0

    def refine(source: int) -> None:
        nonlocal diam_lb
        res = ctx.run_bfs(source, record_dist=True)
        ecc_s = res.eccentricity
        diam_lb = max(diam_lb, ecc_s)
        dist = res.dist
        reached = dist >= 0
        np.maximum(ecc_lb, np.where(reached, dist, ecc_lb), out=ecc_lb)
        np.minimum(ecc_ub, np.where(reached, dist + ecc_s, ecc_ub), out=ecc_ub)
        dist_sum[reached] += dist[reached]
        ecc_lb[source] = ecc_ub[source] = ecc_s
        swept[source] = True
        ctx.release_dist(dist)

    # --- SumSweep seeding phase ---------------------------------------
    degrees = graph.degrees[vertices]
    refine(int(vertices[int(np.argmax(degrees))]))
    for _ in range(num_sweeps - 1):
        cand = in_comp & ~swept
        if not cand.any():
            break
        ids = np.flatnonzero(cand)
        refine(int(ids[int(np.argmax(dist_sum[ids]))]))

    # --- Bounding phase ------------------------------------------------
    batch = ctx.sweep_batch
    while True:
        unresolved = in_comp & (ecc_ub > diam_lb) & (ecc_lb != ecc_ub)
        settled = in_comp & (ecc_lb == ecc_ub)
        if settled.any():
            diam_lb = max(diam_lb, int(ecc_lb[settled].max()))
            unresolved = in_comp & (ecc_ub > diam_lb) & (ecc_lb != ecc_ub)
        if not unresolved.any():
            return diam_lb
        ctx.check_deadline()
        ids = np.flatnonzero(unresolved)
        if batch > 0:
            # Batched round: the top candidates in the scalar loop's own
            # order (upper bound descending, distance sum descending),
            # all evaluated in one executor round.
            order = np.lexsort((-dist_sum[ids], -ecc_ub[ids]))
            picks = ids[order][:batch]
            dist, sweep = ctx.run_batch(picks)
            for j, v in enumerate(picks):
                ecc_v = int(sweep.eccentricities[j])
                diam_lb = max(diam_lb, ecc_v)
                d = dist[j]
                reached = d >= 0
                np.maximum(ecc_lb, np.where(reached, d, ecc_lb), out=ecc_lb)
                np.minimum(ecc_ub, np.where(reached, d + ecc_v, ecc_ub), out=ecc_ub)
                dist_sum[reached] += d[reached]
                ecc_lb[v] = ecc_ub[v] = ecc_v
                swept[v] = True
            continue
        # Largest upper bound first; break ties toward peripheral
        # vertices (largest distance sum).
        best_ub = ecc_ub[ids].max()
        ties = ids[ecc_ub[ids] == best_ub]
        refine(int(ties[int(np.argmax(dist_sum[ties]))]))


def sumsweep_diameter(
    graph: CSRGraph,
    *,
    engine: Engine = "parallel",
    num_sweeps: int = DEFAULT_SWEEPS,
    deadline: float | None = None,
    batch_lanes: int = 0,
) -> BaselineResult:
    """Exact diameter via the (undirected, simplified) ExactSumSweep.

    ``batch_lanes > 0`` keeps the seeding sweeps sequential (each seed
    choice depends on the previous sweeps' distance sums) but runs the
    bounding phase in bit-parallel rounds of up to that many vertices —
    exact distances for all of them from one shared-gather sweep. Every
    update is the same sound bound refinement, so the diameter is exact
    either way.
    """
    ctx = BaselineContext(graph, engine, deadline, batch_lanes=batch_lanes)
    try:
        groups, connected = component_representatives(graph)
        best = 0
        for vertices in groups:
            best = max(best, _component_diameter(ctx, vertices, num_sweeps))
        return ctx.result("SumSweep", best, connected)
    finally:
        ctx.close()

"""BoundingDiameters (Takes & Kosters 2011).

An additional reference baseline beyond the paper's comparison set —
the classic two-sided-bounds algorithm that teexGraph popularized.
Included because the paper's related-work family ("update lower and
upper bounds of eccentricities across the graph as the computation
progresses") is best represented by it, and it gives the benchmarks a
second bound-propagation point of comparison.

Per vertex it maintains ``[ecc_lb, ecc_ub]``; each exact eccentricity
computation of a chosen vertex ``v`` refines every other vertex ``w``
through both triangle inequalities::

    ecc(w) >= max(ecc(v) - d(v, w), d(v, w))
    ecc(w) <= ecc(v) + d(v, w)

A vertex is *resolved* when its bounds meet, or when it provably cannot
affect the diameter (``ecc_ub <= diameter_lb``). Selection alternates
between the unresolved vertex with the largest upper bound (diameter
hunter) and the one with the smallest lower bound (center-like vertex
that tightens many upper bounds) — the "interchanging" strategy of the
original paper.
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

__all__ = ["bounding_diameters"]


def _interleave_extremes(
    cand: np.ndarray, ecc_lb: np.ndarray, ecc_ub: np.ndarray, lanes: int
) -> np.ndarray:
    """Up to ``lanes`` candidates, alternating largest-ub / smallest-lb.

    The batched analog of the scalar loop's "interchanging" selection:
    the vertices one round picks are the ones the scalar loop would
    have picked next, before any of this round's refinements.
    """
    high = cand[np.argsort(-ecc_ub[cand], kind="stable")]
    low = cand[np.argsort(ecc_lb[cand], kind="stable")]
    interleaved = np.empty(2 * len(cand), dtype=cand.dtype)
    interleaved[0::2] = high
    interleaved[1::2] = low
    _, first = np.unique(interleaved, return_index=True)
    return interleaved[np.sort(first)][:lanes]


def _refine(
    ecc_lb: np.ndarray, ecc_ub: np.ndarray, v: int, ecc_v: int, dist: np.ndarray
) -> None:
    reached = dist >= 0
    np.maximum(
        ecc_lb,
        np.where(reached, np.maximum(ecc_v - dist, dist), ecc_lb),
        out=ecc_lb,
    )
    np.minimum(ecc_ub, np.where(reached, ecc_v + dist, ecc_ub), out=ecc_ub)
    ecc_lb[v] = ecc_ub[v] = ecc_v


def _component_diameter(ctx: BaselineContext, vertices: np.ndarray) -> int:
    graph = ctx.graph
    n = graph.num_vertices
    ecc_lb = np.zeros(n, dtype=np.int64)
    ecc_ub = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
    in_comp = np.zeros(n, dtype=bool)
    in_comp[vertices] = True

    diam_lb = 0
    pick_high = True  # alternate: largest ub / smallest lb
    batch = ctx.sweep_batch
    while True:
        unresolved = in_comp & (ecc_ub > diam_lb) & (ecc_lb != ecc_ub)
        # A vertex with matched bounds still contributes its exact value.
        settled = in_comp & (ecc_lb == ecc_ub)
        if settled.any():
            diam_lb = max(diam_lb, int(ecc_lb[settled].max()))
            unresolved = in_comp & (ecc_ub > diam_lb) & (ecc_lb != ecc_ub)
        if not unresolved.any():
            return diam_lb
        ctx.check_deadline()
        cand = np.flatnonzero(unresolved)
        if batch > 0:
            picks = _interleave_extremes(cand, ecc_lb, ecc_ub, batch)
            dist, sweep = ctx.run_batch(picks)
            for j, v in enumerate(picks):
                ecc_v = int(sweep.eccentricities[j])
                diam_lb = max(diam_lb, ecc_v)
                _refine(ecc_lb, ecc_ub, int(v), ecc_v, dist[j])
            continue
        if pick_high:
            v = int(cand[int(np.argmax(ecc_ub[cand]))])
        else:
            v = int(cand[int(np.argmin(ecc_lb[cand]))])
        pick_high = not pick_high

        res = ctx.run_bfs(v, record_dist=True)
        ecc_v = res.eccentricity
        diam_lb = max(diam_lb, ecc_v)
        dist = res.dist
        _refine(ecc_lb, ecc_ub, v, ecc_v, dist)
        ctx.release_dist(dist)


def bounding_diameters(
    graph: CSRGraph,
    *,
    engine: Engine = "parallel",
    deadline: float | None = None,
    batch_lanes: int = 0,
) -> BaselineResult:
    """Exact diameter via Takes–Kosters BoundingDiameters.

    ``batch_lanes > 0`` evaluates up to that many selected vertices per
    bit-parallel sweep (shared edge gathers, see
    :mod:`repro.bfs.bitparallel`) and refines the bounds from all of
    their exact distance rows. Every update is the same sound triangle
    inequality, so the diameter is exact either way.
    """
    ctx = BaselineContext(graph, engine, deadline, batch_lanes=batch_lanes)
    try:
        groups, connected = component_representatives(graph)
        best = 0
        for vertices in groups:
            best = max(best, _component_diameter(ctx, vertices))
        return ctx.result("BoundingDiameters", best, connected)
    finally:
        ctx.close()

"""k-core decomposition — the core-periphery substrate of §3.

The paper's structural argument for its heuristics rests on
core-periphery structure: "high-degree vertices tend to be core
vertices in the core-periphery structure of the graph and are some of
the most 'centrally' located ... Conversely, vertices with a low degree
and, in particular, vertices with degree 1 tend to be on the
'periphery'". The k-core decomposition is the standard formalization:
the *core number* of a vertex is the largest ``k`` such that the vertex
survives in the maximal subgraph of minimum degree ``k``.

:func:`core_numbers` is the classic peeling algorithm in bucket form
(Batagelj–Zaveršnik), ``O(n + m)``: vertices are processed in
increasing current-degree order; removing a vertex decrements its
neighbours' effective degrees. It is a Python loop over every arc, so
the one-``k`` question callers actually ask — "which vertices are in
the ``k``-core?" — is answered by :func:`k_core_mask` instead, which
strips whole rounds of sub-``k`` vertices with array operations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import AlgorithmError
from repro.graph.csr import CSRGraph, gather_rows

__all__ = ["CoreDecomposition", "core_numbers", "k_core_mask", "degeneracy"]


@dataclass(frozen=True)
class CoreDecomposition:
    """Result of a k-core peeling pass.

    Attributes
    ----------
    core:
        ``core[v]`` is the core number of vertex ``v`` (0 for isolated
        vertices).
    peel_order:
        Vertices in the order the peeling removed them — an ordering by
        "peripherality": early = peripheral, late = deep core.
    """

    core: np.ndarray
    peel_order: np.ndarray

    @property
    def degeneracy(self) -> int:
        """The graph's degeneracy (maximum core number)."""
        return int(self.core.max()) if len(self.core) else 0


def core_numbers(graph: CSRGraph) -> CoreDecomposition:
    """Compute all core numbers with bucketed peeling."""
    n = graph.num_vertices
    if n == 0:
        return CoreDecomposition(
            core=np.zeros(0, dtype=np.int64),
            peel_order=np.zeros(0, dtype=np.int64),
        )
    degree = graph.degrees.astype(np.int64).copy()
    max_deg = int(degree.max()) if n else 0

    # Bucket sort vertices by degree (counting sort, the B-Z layout).
    bin_start = np.zeros(max_deg + 2, dtype=np.int64)
    counts = np.bincount(degree, minlength=max_deg + 1)
    np.cumsum(counts, out=bin_start[1:])
    pos = np.empty(n, dtype=np.int64)  # position of each vertex in `vert`
    vert = np.empty(n, dtype=np.int64)  # vertices sorted by current degree
    fill = bin_start[:-1].copy()
    for v in range(n):
        d = degree[v]
        pos[v] = fill[d]
        vert[fill[d]] = v
        fill[d] += 1

    indptr, indices = graph.indptr, graph.indices
    core = degree.copy()
    bin_ptr = bin_start[:-1].copy()  # start index of each degree bucket
    for i in range(n):
        v = int(vert[i])
        dv = int(core[v])
        for w in indices[indptr[v] : indptr[v + 1]]:
            w = int(w)
            dw = int(core[w])
            if dw > dv:
                # Move w one bucket down: swap with the first vertex of
                # its current bucket, then shrink the bucket.
                first_pos = bin_ptr[dw]
                first_vert = int(vert[first_pos])
                pw = int(pos[w])
                if first_vert != w:
                    vert[pw], vert[first_pos] = first_vert, w
                    pos[w], pos[first_vert] = first_pos, pw
                bin_ptr[dw] += 1
                core[w] = dw - 1
    return CoreDecomposition(core=core, peel_order=vert.copy())


def k_core_mask(graph: CSRGraph, k: int) -> np.ndarray:
    """Boolean mask of the vertices in the ``k``-core.

    Iterative degree stripping: every vertex of degree below ``k`` is
    dead from the start and forms the first frontier. Each round
    gathers the frontier's neighbourhoods in one shot, decrements the
    degrees of the still-alive neighbours once per hit
    (``np.subtract.at``), and makes the hit vertices that fell below
    ``k`` the next frontier. Each arc is gathered once (from its dead
    side) and every round costs ``O(its hits)``, so the work is
    ``O(n + m)`` array operations over a number of rounds equal to the
    longest chain of removals — for ``k = 2`` the longest pendant path.
    Equals ``core_numbers(graph).core >= k``.
    """
    if k < 0:
        raise AlgorithmError("k must be non-negative")
    degree = graph.degrees.astype(np.int64)
    alive = degree >= k
    frontier = np.flatnonzero(~alive)
    indptr, indices = graph.indptr, graph.indices
    while len(frontier):
        neigh, _ = gather_rows(indices, indptr[frontier], indptr[frontier + 1])
        neigh = neigh[alive[neigh]]
        np.subtract.at(degree, neigh, 1)
        frontier = np.unique(neigh[degree[neigh] < k])
        alive[frontier] = False
    return alive


def degeneracy(graph: CSRGraph) -> int:
    """The graph's degeneracy (maximum core number)."""
    return core_numbers(graph).degeneracy

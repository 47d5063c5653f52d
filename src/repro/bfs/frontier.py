"""Vectorized frontier primitives shared by all BFS engines.

The paper's parallel BFS distributes the current worklist across OpenMP
threads, each of which scans its chunk's adjacency lists and atomically
claims unvisited neighbours. In this reproduction the same per-level
data-parallel work is expressed as whole-frontier NumPy array operations
(the "vectorize the inner loop" idiom from the scientific-Python
optimization guide): a level's entire neighbour gather, visited filter,
and deduplication run as a handful of compiled array kernels instead of
a thread team. The amount and order of algorithmic work per level is
identical; only the execution vehicle differs.

The primitives here are:

* :func:`gather_rows` / :func:`gather_neighbors` — concatenate the
  adjacency lists of every frontier vertex (the "scan my chunk's edges"
  step). ``gather_rows`` is defined with the CSR type in
  :mod:`repro.graph.csr`, so the graph package's own array passes use
  it without depending on this package; it is re-exported here. Both
  accept an optional ``pool`` (duck-typed
  :class:`~repro.bfs.kernel.Workspace`) whose cached ``arange`` scratch
  replaces the per-level ``np.arange(total)`` allocation.
* :func:`row_any` — per-row boolean reduction over a gathered range
  (the bottom-up "does any of my neighbours sit on the frontier?" test).
* :func:`compact_unique` — sorted deduplication of a fresh-neighbour
  set: a sort for small sets, claim-via-flag-array plus
  ``np.flatnonzero`` compaction for large ones (the vectorized analog
  of the paper's atomic claim, cheaper than an ``O(f log f)`` sort once
  the fresh set is a sizable fraction of ``|V|``).
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph, gather_rows

__all__ = [
    "gather_neighbors",
    "gather_rows",
    "row_any",
    "compact_unique",
    "frontier_edge_count",
]

#: Fresh sets larger than this fraction of ``|V|`` are deduplicated by
#: claim + ``flatnonzero`` compaction instead of ``np.unique``'s sort:
#: the flag scan costs ``O(n)`` while the sort costs ``O(f log f)``, so
#: the crossover sits at a constant fraction of ``n``.
CLAIM_FRACTION = 0.125


def gather_neighbors(
    graph: CSRGraph, frontier: np.ndarray, *, pool=None
) -> np.ndarray:
    """All neighbours of the frontier vertices, concatenated (with repeats)."""
    values, _ = gather_rows(
        graph.indices,
        graph.indptr[frontier],
        graph.indptr[frontier + 1],
        pool=pool,
    )
    return values


def row_any(values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Per-row "any true" over a flat boolean array segmented by ``lengths``.

    Implemented with a cumulative sum and segment differencing rather
    than ``np.logical_or.reduceat`` because ``reduceat`` mishandles
    zero-length segments (it returns the element *at* the segment start
    instead of the reduction identity).
    """
    cum = np.concatenate(([0], np.cumsum(values.astype(np.int64))))
    ends = np.cumsum(lengths)
    starts = ends - lengths
    return (cum[ends] - cum[starts]) > 0


def compact_unique(
    values: np.ndarray, num_vertices: int, *, pool=None
) -> np.ndarray:
    """Sorted unique vertex ids of ``values`` (all in ``[0, num_vertices)``).

    Small sets go through ``np.unique`` (a sort). Sets larger than
    ``CLAIM_FRACTION * num_vertices`` are claimed into a boolean flag
    array and compacted with ``np.flatnonzero`` — ``O(n)`` instead of
    ``O(f log f)``, which wins exactly when the fresh set is large. The
    flag comes from ``pool.claim_flag()`` when a pool is given (it must
    be all-``False`` on entry and is restored to all-``False`` before
    returning, so one pooled buffer serves every level of every
    traversal).
    """
    if len(values) < max(64, int(num_vertices * CLAIM_FRACTION)):
        return np.unique(values)
    flag = pool.claim_flag() if pool is not None else np.zeros(num_vertices, dtype=bool)
    try:
        flag[values] = True
        out = np.flatnonzero(flag)
        flag[out] = False  # restore the all-False contract
    except BaseException:
        # A compaction dying mid-way (out-of-memory, interrupt) must not
        # hand a dirty pooled claim flag to the next large-set
        # compaction; the full clear only runs on this cold path.
        flag[:] = False
        raise
    return out


def frontier_edge_count(graph: CSRGraph, frontier: np.ndarray) -> int:
    """Number of arcs leaving the frontier (work metric for cost models)."""
    return int((graph.indptr[frontier + 1] - graph.indptr[frontier]).sum())

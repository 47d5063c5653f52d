"""Exact diameters by a method that shares no code with the program.

iFUB (Crescenzi et al.) over SciPy's compiled BFS: sweep
from a midpoint of a double-sweep path, then evaluate the
eccentricities of its BFS levels from the deepest one inward until
the lower bound reaches twice the depth of the levels left. The diameter follows the CC convention
``repro.fdiam`` reports: the largest finite distance in the graph.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, connected_components

def adjacency(indptr, indices) -> csr_matrix:
    """SciPy CSR in the form its graph routines use without copying."""
    n = len(indptr) - 1
    matrix = csr_matrix(
        (np.ones(len(indices)), np.asarray(indices, np.int32), np.asarray(indptr, np.int32)),
        shape=(n, n),
    )
    matrix.has_canonical_format = True
    return matrix


def depth_rows(adj, sources):
    """BFS depth rows (-1 unreached) of ``sources``.

    SciPy's compiled BFS returns the visit order and the BFS tree. A
    queue BFS lists every level contiguously, and the parents' positions
    never decrease along the order, so each level's end is one binary
    search past the previous one.
    """
    n = adj.shape[0]
    position = np.empty(n, dtype=np.int64)
    for source in sources:
        order, pred = breadth_first_order(adj, int(source), directed=True)
        position[order] = np.arange(len(order))
        parents = position[pred[order[1:]]]
        depth = np.full(n, -1, dtype=np.int64)
        depth[source] = 0
        start, level = 1, 0
        while start < len(order):
            end = int(np.searchsorted(parents, start, side="left")) + 1
            level += 1
            depth[order[start:end]] = level
            start = end
        yield depth


def _eccentricities(adj, sources) -> np.ndarray:
    return np.array([row.max() for row in depth_rows(adj, sources)], dtype=np.int64)


def depths(adj, source: int) -> np.ndarray:
    return next(depth_rows(adj, [source]))


def exact_diameter(indptr, indices) -> int:
    """Largest finite distance of the undirected CSR graph."""
    adj = adjacency(indptr, indices)
    _, labels = connected_components(adj, directed=False)
    degrees = np.diff(np.asarray(indptr))
    best = 0
    for comp in np.flatnonzero(np.bincount(labels) >= 2):
        members = np.flatnonzero(labels == comp)
        start = int(members[np.argmax(degrees[members])])
        a = int(np.argmax(depths(adj, start)))
        from_a = depths(adj, a)
        b = int(np.argmax(from_a))
        from_b = depths(adj, b)
        span = int(from_a[b])
        middle = np.flatnonzero((from_a == span // 2) & (from_a + from_b == span))
        # The midpoints can be a whole anti-diagonal on grids; root the
        # sweep at the most central of a sample of them.
        sample = middle[np.linspace(0, len(middle) - 1, min(16, len(middle))).astype(int)]
        depth = depths(adj, int(sample[np.argmin(_eccentricities(adj, sample))]))
        level = int(depth.max())
        lower = max(level, span)
        # Pairs among vertices no deeper than ``level`` are at most
        # 2 * level apart; deeper ones have had their eccentricity taken.
        while lower < 2 * level:
            fringe = np.flatnonzero(depth == level)
            lower = max(lower, int(_eccentricities(adj, fringe).max()))
            level -= 1
        best = max(best, lower)
    return best

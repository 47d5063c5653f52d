"""Eccentricity primitives and the execution-engine registry.

F-Diam computes the eccentricity of a vertex "by performing a parallel
level-synchronous BFS starting from v and counting the number of levels"
(Section 4). This module wraps that pattern, provides the all-vertices
variant that the naive APSP baseline and the test oracles use, and
hosts the **engine registry**: every BFS execution strategy is
registered by name so stages, baselines, and the CLI resolve engines
uniformly and the equivalence tests can sweep all of them.

Registered engines (see DESIGN.md §2 and the architecture section):

* ``"parallel"`` — vectorized direction-optimized hybrid (the paper's
  OpenMP code analog), kernel-backed.
* ``"serial"``   — scalar pure-Python level loop (the paper's serial
  code analog).
* ``"batched"``  — single-source traversal through the kernel's batched
  multi-source machinery; a structurally independent code path used to
  cross-check the Winnow/Eliminate primitive.
* ``"bitparallel"`` — single-source traversal through the bit-parallel
  lane sweep (:mod:`repro.bfs.bitparallel`); one lane of the 64-wide
  machinery, cross-checking the engine the multi-source consumers use.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.bfs.hybrid import BFSResult, run_bfs
from repro.bfs.kernel import TraversalKernel, Workspace
from repro.bfs.reference import serial_bfs
from repro.bfs.visited import VisitMarks
from repro.graph.csr import CSRGraph

__all__ = [
    "Engine",
    "available_engines",
    "register_engine",
    "get_engine",
    "eccentricity",
    "all_eccentricities",
]

#: Engine name — one of :func:`available_engines` (historically the
#: literal pair ``"parallel"``/``"serial"``; the registry is open).
Engine = str

_EngineFn = Callable[..., BFSResult]


def batched_bfs(
    graph: CSRGraph,
    source: int,
    marks: VisitMarks | None = None,
    *,
    max_level: int | None = None,
    record_dist: bool = False,
) -> BFSResult:
    """Single-source BFS through the batched multi-source kernel path."""
    kernel = TraversalKernel(
        graph,
        engine="batched",
        workspace=Workspace(graph.num_vertices, marks=marks),
    )
    return kernel.bfs(source, max_level=max_level, record_dist=record_dist)


def bitparallel_bfs(
    graph: CSRGraph,
    source: int,
    marks: VisitMarks | None = None,
    *,
    max_level: int | None = None,
    record_dist: bool = False,
) -> BFSResult:
    """Single-source BFS through the bit-parallel lane-sweep path."""
    kernel = TraversalKernel(
        graph,
        engine="bitparallel",
        workspace=Workspace(graph.num_vertices, marks=marks),
    )
    return kernel.bfs(source, max_level=max_level, record_dist=record_dist)


_ENGINES: dict[str, _EngineFn] = {}


def register_engine(name: str, fn: _EngineFn) -> None:
    """Register a BFS engine under ``name`` (overwrites existing)."""
    _ENGINES[name] = fn


def available_engines() -> tuple[str, ...]:
    """Names of all registered engines (registration order)."""
    return tuple(_ENGINES)


def get_engine(engine: Engine) -> _EngineFn:
    """Resolve an engine name to its BFS callable."""
    try:
        return _ENGINES[engine]
    except KeyError:
        raise ValueError(
            f"unknown engine {engine!r}; expected one of {sorted(_ENGINES)}"
        ) from None


register_engine("parallel", run_bfs)
register_engine("serial", serial_bfs)
register_engine("batched", batched_bfs)
register_engine("bitparallel", bitparallel_bfs)


def eccentricity(
    graph: CSRGraph,
    vertex: int,
    marks: VisitMarks | None = None,
    *,
    engine: Engine = "parallel",
) -> int:
    """Eccentricity of ``vertex`` within its connected component."""
    return get_engine(engine)(graph, vertex, marks).eccentricity


def all_eccentricities(
    graph: CSRGraph,
    *,
    engine: Engine = "parallel",
    marks: VisitMarks | None = None,
    batch_lanes: int = 0,
) -> np.ndarray:
    """Eccentricity of every vertex (one BFS per vertex).

    This is the quadratic APSP-style computation the paper's
    introduction motivates against; it backs the naive baseline and the
    exhaustive correctness oracle for small graphs. Isolated vertices
    get eccentricity 0. The ``"parallel"`` engine runs through one
    pooled kernel so the scratch buffers are shared across all ``n``
    traversals.

    ``batch_lanes > 0`` ignores ``engine`` and computes the spectrum in
    ``ceil(n / batch_lanes)`` bit-parallel sweeps of up to
    ``batch_lanes`` sources each (rounded up to whole 64-lane words by
    the sweep); every edge gather is shared by all lanes of a chunk, so
    the number of gather passes drops by roughly the lane count.
    """
    n = graph.num_vertices
    ecc = np.zeros(n, dtype=np.int64)
    if batch_lanes > 0:
        kernel = TraversalKernel(graph, workspace=Workspace(n, marks=marks))
        for start in range(0, n, batch_lanes):
            chunk = np.arange(start, min(start + batch_lanes, n), dtype=np.int64)
            sweep = kernel.levels_batched64(chunk)
            ecc[chunk] = sweep.eccentricities
        return ecc
    if engine == "parallel":
        kernel = TraversalKernel(graph, workspace=Workspace(n, marks=marks))
        for v in range(n):
            ecc[v] = kernel.bfs(v).eccentricity
        return ecc
    if marks is None:
        marks = VisitMarks(n)
    bfs = get_engine(engine)
    for v in range(n):
        ecc[v] = bfs(graph, v, marks).eccentricity
    return ecc

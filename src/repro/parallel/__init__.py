"""Parallel-execution substrate: chunk scheduling, a simulated chunked
executor, and the level-synchronous cost model behind the
thread-scaling study (paper Figure 7). See DESIGN.md §2 for why thread
scaling is modeled from measured traces rather than timed directly on
this single-core machine.
"""

from repro.parallel.chunking import (
    ChunkAssignment,
    assign_round_robin,
    chunk_bounds,
    thread_work,
)
from repro.parallel.costmodel import CostModelParams, LevelSynchronousCostModel
from repro.parallel.executor import ChunkedExecutor, StepAccounting
from repro.parallel.scaling import (
    PAPER_THREAD_COUNTS,
    ScalingPoint,
    ScalingStudy,
)
from repro.parallel.sweep import (
    BitparallelSweepExecutor,
    ExecutorCounters,
    SerialSweepExecutor,
    SweepExecutor,
    SweepInfo,
    create_executor,
)

__all__ = [
    "BitparallelSweepExecutor",
    "ChunkAssignment",
    "ChunkedExecutor",
    "CostModelParams",
    "ExecutorCounters",
    "LevelSynchronousCostModel",
    "PAPER_THREAD_COUNTS",
    "ScalingPoint",
    "ScalingStudy",
    "SerialSweepExecutor",
    "StepAccounting",
    "SweepExecutor",
    "SweepInfo",
    "assign_round_robin",
    "chunk_bounds",
    "create_executor",
    "thread_work",
]

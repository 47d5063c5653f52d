"""Tests for the level-synchronous parallel cost model."""

import pytest

from repro.bfs import BFSTrace, Direction
from repro.errors import AlgorithmError
from repro.parallel import CostModelParams, LevelSynchronousCostModel


def trace_of(levels):
    """Build a BFSTrace from (frontier_size, edges) pairs."""
    t = BFSTrace(source=0)
    for f, e in levels:
        t.record(f, e, Direction.TOP_DOWN, f)
    return t


class TestLevelTime:
    def test_monotone_in_threads_until_ceiling(self):
        model = LevelSynchronousCostModel()
        big = trace_of([(10_000, 500_000)])
        times = [model.trace_time(big, t) for t in (1, 2, 4, 8)]
        assert times == sorted(times, reverse=True)

    def test_bandwidth_ceiling(self):
        params = CostModelParams(bandwidth_threads=4.0, barrier_base=0.0)
        model = LevelSynchronousCostModel(params)
        big = trace_of([(100_000, 5_000_000)])
        t4 = model.trace_time(big, 4)
        t64 = model.trace_time(big, 64)
        assert t64 == pytest.approx(t4)

    def test_small_frontier_limits_parallelism(self):
        params = CostModelParams(chunk_size=64, barrier_base=0.0)
        model = LevelSynchronousCostModel(params)
        # A 10-vertex frontier fits in one chunk: 1 thread's worth of work.
        small = trace_of([(10, 1_000)])
        assert model.trace_time(small, 32) == pytest.approx(
            model.trace_time(small, 1)
        )

    def test_barriers_penalize_high_thread_counts(self):
        params = CostModelParams(barrier_base=1e-3)
        model = LevelSynchronousCostModel(params)
        # Many tiny levels (a road network): barrier cost dominates.
        road = trace_of([(4, 12)] * 500)
        assert model.trace_time(road, 64) > model.trace_time(road, 1)

    def test_invalid_thread_count(self):
        with pytest.raises(AlgorithmError):
            LevelSynchronousCostModel().level_time(1, 1, 0)

    def test_invalid_params(self):
        with pytest.raises(AlgorithmError):
            CostModelParams(edge_rate=0)


class TestSpeedupShape:
    """The paper's Figure 7 shape: speedup grows with threads, is larger
    for big-frontier (power-law) traces than for high-diameter traces,
    and saturates past the bandwidth ceiling."""

    def test_powerlaw_scales_better_than_road(self):
        model = LevelSynchronousCostModel()
        powerlaw = [trace_of([(1, 50), (500, 80_000), (20_000, 400_000), (5_000, 60_000)])]
        road = [trace_of([(3, 8)] * 800)]
        assert model.speedup(powerlaw, 16) > model.speedup(road, 16)

    def test_speedup_saturates(self):
        model = LevelSynchronousCostModel()
        traces = [trace_of([(2_000, 60_000)] * 10)]
        s32 = model.speedup(traces, 32)
        s64 = model.speedup(traces, 64)
        assert s64 <= s32 * 1.05  # flat (or slightly worse via barriers)

    def test_one_thread_speedup_is_one(self):
        model = LevelSynchronousCostModel()
        traces = [trace_of([(10, 100)])]
        assert model.speedup(traces, 1) == pytest.approx(1.0)


class TestLaneAccounting:
    def test_lane_level_time_adds_word_traffic(self):
        model = LevelSynchronousCostModel()
        base = model.level_time(100, 10_000, 4)
        one_word = model.lane_level_time(100, 10_000, 64, 4)
        three_words = model.lane_level_time(100, 10_000, 130, 4)
        assert base < one_word < three_words

    def test_lanes_within_a_word_cost_the_same(self):
        model = LevelSynchronousCostModel()
        assert model.lane_level_time(100, 10_000, 1, 4) == pytest.approx(
            model.lane_level_time(100, 10_000, 64, 4)
        )

    def test_invalid_lanes_rejected(self):
        model = LevelSynchronousCostModel()
        with pytest.raises(AlgorithmError):
            model.lane_level_time(100, 10_000, 0, 4)

    def test_batch_speedup_grows_with_lanes(self):
        model = LevelSynchronousCostModel()
        trace = trace_of([(500, 40_000), (5_000, 300_000), (800, 50_000)])
        s8 = model.batch_speedup(trace, 8, 1)
        s64 = model.batch_speedup(trace, 64, 1)
        assert 1 < s8 < s64
        # 64 lanes share one gather; the gain is below the ideal 64x
        # because of the lane-word combine traffic.
        assert s64 < 64

    def test_word_rate_param_validated(self):
        with pytest.raises(AlgorithmError):
            CostModelParams(lane_word_rate=0.0)


"""Unit tests for the traversal kernel and its pooled workspace."""

import time

import numpy as np
import pytest

from conftest import random_gnp
from repro.bfs import TraversalKernel, VisitMarks, Workspace, run_bfs
from repro.core.winnow import _BoolMarks
from repro.errors import AlgorithmError, BenchmarkTimeout
from repro.generators import path_graph, star_graph


class TestWorkspace:
    def test_adopts_external_marks(self):
        marks = VisitMarks(10)
        ws = Workspace(10, marks=marks)
        assert ws.marks is marks

    def test_rejects_mismatched_marks(self):
        with pytest.raises(AlgorithmError):
            Workspace(10, marks=VisitMarks(5))

    def test_dist_buffer_reuse(self):
        ws = Workspace(8)
        a = ws.acquire_dist()
        assert (a == -1).all()
        a[3] = 7
        ws.release_dist(a)
        b = ws.acquire_dist()
        assert b is a
        assert (b == -1).all()  # re-acquired buffers come back clean
        assert ws.stats.buffer_requests == 2
        assert ws.stats.buffer_reuses == 1
        assert ws.stats.hit_rate == 0.5

    def test_release_tolerates_none_and_foreign_arrays(self):
        ws = Workspace(8)
        ws.release_dist(None)
        ws.release_dist(np.zeros(3, dtype=np.int64))  # wrong size
        ws.release_dist(np.zeros(8, dtype=np.float64))  # wrong dtype
        ws.acquire_dist()
        assert ws.stats.buffer_reuses == 0

    def test_dist_pool_is_capped(self):
        ws = Workspace(4)
        buffers = [np.full(4, -1, dtype=np.int64) for _ in range(10)]
        for buf in buffers:
            ws.release_dist(buf)
        assert len(ws._dist_pool) == 4

    def test_peak_scratch_accounting(self):
        ws = Workspace(16)
        base = ws.stats.peak_scratch_bytes
        assert base == ws.marks.marks.nbytes
        ws.acquire_dist()
        ws.frontier_flag()
        assert ws.stats.peak_scratch_bytes > base
        # Reuse must not grow the peak.
        peak = ws.stats.peak_scratch_bytes
        ws.frontier_flag()
        assert ws.stats.peak_scratch_bytes == peak

    def test_epoch_counting(self):
        ws = Workspace(6)
        ws.new_epoch()
        ws.new_epoch()
        assert ws.stats.epochs == 2


class TestKernelBFS:
    def test_matches_wrapper_function(self):
        g, _ = random_gnp(50, 0.08, 17)
        kernel = TraversalKernel(g)
        for v in (0, 13, 42):
            a = kernel.bfs(v, record_dist=True)
            b = run_bfs(g, v, record_dist=True)
            assert a.eccentricity == b.eccentricity
            assert a.visited_count == b.visited_count
            assert (a.dist == b.dist).all()

    def test_repeated_bfs_reuses_dist_buffers(self):
        g, _ = random_gnp(40, 0.1, 23)
        kernel = TraversalKernel(g)
        for v in range(10):
            res = kernel.bfs(v, record_dist=True)
            kernel.workspace.release_dist(res.dist)
        stats = kernel.workspace.stats
        assert stats.buffer_reuses >= 9
        assert stats.hit_rate > 0.5

    def test_workspace_graph_size_mismatch(self):
        g = path_graph(5)
        with pytest.raises(AlgorithmError):
            TraversalKernel(g, workspace=Workspace(6))

    def test_source_out_of_range(self):
        kernel = TraversalKernel(path_graph(5))
        with pytest.raises(AlgorithmError):
            kernel.bfs(5)
        with pytest.raises(AlgorithmError):
            kernel.bfs(-1)

    def test_deadline_aborts_mid_traversal(self):
        # One single long traversal must abort at a level boundary, not
        # only between BFS calls: the deadline is already expired when
        # the (only) BFS starts.
        kernel = TraversalKernel(
            path_graph(2000), deadline=time.perf_counter() - 1.0
        )
        with pytest.raises(BenchmarkTimeout):
            kernel.bfs(0)

    def test_deadline_aborts_levels_and_wave(self):
        kernel = TraversalKernel(
            path_graph(2000), deadline=time.perf_counter() - 1.0
        )
        with pytest.raises(BenchmarkTimeout):
            kernel.levels([0], None)
        with pytest.raises(BenchmarkTimeout):
            kernel.staggered_wave({0: [0]}, 5)

    def test_no_deadline_runs_to_completion(self):
        kernel = TraversalKernel(path_graph(100))
        assert kernel.bfs(0).eccentricity == 99

    def test_eccentricity_and_ball(self):
        g = star_graph(7)  # hub 0, leaves 1..6
        kernel = TraversalKernel(g)
        assert kernel.eccentricity(0) == 1
        assert kernel.eccentricity(3) == 2
        assert kernel.ball(0, 1).tolist() == list(range(7))
        assert kernel.ball(3, 1).tolist() == [0, 3]
        assert kernel.ball(3, 1, include_center=False).tolist() == [0]


class TestLevels:
    def test_resumed_bool_marks(self):
        # The winnow-resume pattern: a persistent boolean ball expanded
        # in two increments, pre-visited vertices never rediscovered.
        kernel = TraversalKernel(path_graph(12))
        visited = np.zeros(12, dtype=bool)
        visited[[5, 6]] = True
        first = kernel.levels(
            [5, 6], 2, marks=_BoolMarks(visited), new_epoch=False,
            mark_sources=False,
        )
        assert [lv.tolist() for lv in first] == [[4, 7], [3, 8]]
        second = kernel.levels(
            first[-1], 2, marks=_BoolMarks(visited), new_epoch=False,
            mark_sources=False,
        )
        assert [lv.tolist() for lv in second] == [[2, 9], [1, 10]]

    def test_on_level_early_stop(self):
        kernel = TraversalKernel(path_graph(10))
        levels = kernel.levels([0], None, on_level=lambda depth, fresh: depth < 2)
        assert len(levels) == 2


class TestBatchedEngine:
    def test_isolated_source(self):
        g = path_graph(3)
        union = TraversalKernel(
            g, engine="batched"
        )  # engine choice is per-kernel
        res = union.bfs(2)
        assert res.eccentricity == 2
        assert res.visited_count == 3

    def test_single_vertex_graph(self):
        from repro.graph import from_edge_arrays

        g = from_edge_arrays([], [], num_vertices=1)
        res = TraversalKernel(g, engine="batched").bfs(0, record_dist=True)
        assert res.eccentricity == 0
        assert res.visited_count == 1
        assert res.last_frontier.tolist() == [0]
        assert res.dist.tolist() == [0]


class TestStaggeredWave:
    def test_single_injection_matches_levels(self):
        g, _ = random_gnp(30, 0.1, 31)
        kernel = TraversalKernel(g)
        seen = {}

        def record(step, vertices):
            for v in vertices.tolist():
                seen.setdefault(v, step)

        kernel.staggered_wave({0: [4]}, 3, on_discover=record)
        assert seen[4] == 0
        expected = kernel.levels([4], 3)
        for depth, level in enumerate(expected, start=1):
            for v in level.tolist():
                assert seen[v] == depth

    def test_staggered_injection_takes_minimum(self):
        # Path 0-1-2-3-4-5: source 0 at offset 0, source 5 at offset 2.
        # Vertex 3 is 3 steps from 0 (wave step 3) but only 2 steps from
        # the offset-2 injection at 5 (wave step 2 + 2 = 4); the earlier
        # wave wins.
        kernel = TraversalKernel(path_graph(6))
        first_touch = {}

        def record(step, vertices):
            for v in vertices.tolist():
                first_touch.setdefault(v, step)

        discovered = kernel.staggered_wave({0: [0], 2: [5]}, 4, on_discover=record)
        assert discovered == 6
        assert first_touch == {0: 0, 1: 1, 2: 2, 5: 2, 3: 3, 4: 3}

    def test_already_visited_injection_is_skipped(self):
        kernel = TraversalKernel(path_graph(4))
        steps = []

        def record(step, vertices):
            steps.append((step, sorted(vertices.tolist())))

        # 1 is discovered by the wave from 0 at step 1; injecting it
        # again at step 2 must be a no-op.
        kernel.staggered_wave({0: [0], 2: [1]}, 3, on_discover=record)
        assert steps == [(0, [0]), (1, [1]), (2, [2]), (3, [3])]

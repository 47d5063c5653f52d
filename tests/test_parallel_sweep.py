"""Tests for the SweepExecutor dispatch layer.

The contract under test is the one every caller leans on: distance rows
depend only on the graph and the source list, never on the backend.
"""

import numpy as np
import pytest

from repro.bfs.kernel import TraversalKernel
from repro.errors import AlgorithmError
from repro.generators import barabasi_albert
from repro.parallel import (
    BitparallelSweepExecutor,
    LevelSynchronousCostModel,
    SerialSweepExecutor,
    create_executor,
)


@pytest.fixture(scope="module")
def graph():
    return barabasi_albert(600, 3, seed=11)


@pytest.fixture(scope="module")
def sources(graph):
    rng = np.random.default_rng(5)
    return np.sort(rng.choice(graph.num_vertices, size=20, replace=False))


class TestBackendEquivalence:
    def test_serial_vs_bitparallel(self, graph, sources):
        with SerialSweepExecutor(graph) as serial:
            d_serial, i_serial = serial.distance_rows(sources)
        with BitparallelSweepExecutor(graph) as lanes:
            d_lanes, i_lanes = lanes.distance_rows(sources)
        np.testing.assert_array_equal(d_serial, d_lanes)
        np.testing.assert_array_equal(
            i_serial.eccentricities, i_lanes.eccentricities
        )
        # Lane amortization: same traversals, far fewer gather passes.
        assert i_lanes.traversals == i_serial.traversals == len(sources)
        assert i_lanes.sweeps < i_serial.sweeps

    def test_empty_round(self, graph):
        for executor in (SerialSweepExecutor(graph), BitparallelSweepExecutor(graph)):
            with executor:
                dist, info = executor.distance_rows(np.empty(0, dtype=np.int64))
            assert dist.shape == (0, graph.num_vertices)
            assert info.traversals == 0

    def test_source_out_of_range(self, graph):
        with SerialSweepExecutor(graph) as executor:
            with pytest.raises(AlgorithmError):
                executor.distance_rows([graph.num_vertices])


class TestCreateExecutor:
    def test_serial_and_bitparallel_pinned(self, graph):
        assert create_executor(graph, backend="serial").backend == "serial"
        assert create_executor(graph, backend="bitparallel").backend == "bitparallel"

    def test_unknown_backend(self, graph):
        with pytest.raises(AlgorithmError):
            create_executor(graph, backend="openmp")

    def test_kernel_factory_shares_workspace(self, graph):
        kernel = TraversalKernel(graph)
        with kernel.sweep_executor(backend="serial") as executor:
            assert executor.kernel is kernel

    def test_invalid_arguments(self, graph):
        with pytest.raises(AlgorithmError):
            create_executor(graph, batch_lanes=0)
        with pytest.raises(AlgorithmError):
            BitparallelSweepExecutor(graph, max_lanes=0)


class TestChooseBackend:
    def setup_method(self):
        self.model = LevelSynchronousCostModel()
        # A hub-heavy million-edge shape: low estimated diameter.
        self.big = dict(
            num_vertices=200_000, num_directed_edges=2_000_000, max_degree=5_000
        )

    def test_tiny_round_stays_serial(self):
        assert (
            self.model.choose_backend(
                num_sources=1,
                num_vertices=100,
                num_directed_edges=400,
                max_degree=10,
            )
            == "serial"
        )

    def test_hub_heavy_round_goes_bitparallel(self):
        assert self.model.choose_backend(num_sources=128, **self.big) == "bitparallel"

    def test_verdict_reasons_are_stable(self):
        ok, reason = self.model.lane_batch_verdict(5, 1)
        assert not ok and "single lane" in reason
        ok, reason = self.model.lane_batch_verdict(10_000, 64)
        assert not ok and "lane level cap" in reason
        ok, reason = self.model.lane_batch_verdict(5, 64)
        assert ok and reason == ""

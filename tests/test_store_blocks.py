"""Block decoding: per-block gathers, the kernel path, and the stats.

The block-decoding gather must be an *invisible* optimization: every
row it produces, every frontier the kernel expands through it, and
every distance computed on top must be bit-identical to the in-memory
path. The LRU cache and the cost-model routing only change where the
bytes come from.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bfs.frontier import gather_neighbors
from repro.bfs.kernel import TraversalKernel, Workspace
from repro.bfs.topdown import topdown_step_blocks
from repro.bfs.visited import VisitMarks
from repro.errors import AlgorithmError
from repro.generators.registry import build_analog, build_fuzz_graph
from repro.parallel.costmodel import CostModelParams, LevelSynchronousCostModel
from repro.store import load_scsr, open_scsr, save_scsr


@pytest.fixture(scope="module")
def analog():
    return build_analog("internet")


@pytest.fixture
def stored(tmp_path, analog):
    path = tmp_path / "internet.scsr"
    save_scsr(analog, path)
    return path


class TestDecodeBlock:
    @pytest.mark.parametrize("seed", [0, 4, 11])
    @pytest.mark.parametrize("block_size", [1, 5, 64])
    def test_every_block_matches_the_source_rows(
        self, tmp_path, seed, block_size
    ):
        graph, _ = build_fuzz_graph(seed, max_vertices=48)
        path = tmp_path / "g.scsr"
        save_scsr(graph, path, block_size=block_size)
        with open_scsr(path) as store:
            for block in range(store.num_blocks):
                local_indptr, adj = store.decode_block(block)
                lo = block * block_size
                hi = min(lo + block_size, graph.num_vertices)
                want = graph.indices[
                    graph.indptr[lo] : graph.indptr[hi]
                ].astype(np.int64)
                assert np.array_equal(adj, want)
                rel = graph.indptr[lo : hi + 1] - graph.indptr[lo]
                assert np.array_equal(local_indptr, rel)

    def test_gather_rows_matches_in_memory_gather(self, analog, stored):
        rng = np.random.default_rng(42)
        frontier = rng.integers(0, analog.num_vertices, size=200)
        with open_scsr(stored) as store:
            got, lengths = store.gather_rows(frontier)
        want = gather_neighbors(analog, np.asarray(frontier, dtype=np.int64))
        assert np.array_equal(got, np.asarray(want, dtype=np.int64))
        degs = np.diff(analog.indptr)
        assert np.array_equal(lengths, degs[frontier])

    def test_duplicate_and_empty_frontiers(self, analog, stored):
        with open_scsr(stored) as store:
            vals, lens = store.gather_rows(np.array([7, 7, 7]))
            row = analog.indices[analog.indptr[7] : analog.indptr[8]]
            assert np.array_equal(vals, np.tile(row.astype(np.int64), 3))
            vals, lens = store.gather_rows(np.empty(0, dtype=np.int64))
            assert len(vals) == 0 and len(lens) == 0


class TestCacheStats:
    def test_hits_and_evictions_accounted(self, tmp_path):
        graph, _ = build_fuzz_graph(2, max_vertices=48)
        path = tmp_path / "g.scsr"
        save_scsr(graph, path, block_size=2)
        with open_scsr(path, cache_blocks=2) as store:
            store.decode_block(0)
            store.decode_block(0)
            stats = store.stats
            assert stats.block_requests == 2
            assert stats.block_hits == 1
            assert stats.blocks_decoded == 1
            assert stats.hit_rate == 0.5
            assert stats.decoded_bytes > 0
            if store.num_blocks >= 4:
                for b in range(4):
                    store.decode_block(b)
                assert stats.evictions >= 1
                # Block 0 was evicted: re-requesting decodes again.
                store.decode_block(0)
                assert stats.blocks_decoded >= 4

    def test_kernel_syncs_store_deltas_into_workspace(self, analog, stored):
        graph = load_scsr(stored, mmap=True)
        store = graph.backing_store
        try:
            # Pre-existing store traffic must not be charged to the kernel.
            store.decode_block(0)
            kernel = TraversalKernel(graph, block_gather="force")
            kernel.levels([0], 2)
            ws = kernel.workspace.stats
            assert ws.store_block_requests > 0
            assert ws.store_blocks_decoded > 0
            assert ws.store_decoded_bytes > 0
            total = store.stats.block_requests
            assert ws.store_block_requests == total - 1
            assert 0.0 <= ws.store_block_hit_rate <= 1.0
        finally:
            store.close()


class TestKernelBlockPath:
    @pytest.mark.parametrize("max_level", [1, 3, None])
    def test_levels_bit_identical(self, analog, stored, max_level):
        graph = load_scsr(stored, mmap=True)
        try:
            plain = TraversalKernel(analog)
            blocks = TraversalKernel(graph, block_gather="force")
            sources = [0, 17, 4093]
            for a, b in zip(
                plain.levels(sources, max_level),
                blocks.levels(sources, max_level),
            ):
                assert np.array_equal(np.sort(a), np.sort(b))
        finally:
            graph.backing_store.close()

    def test_topdown_step_blocks_matches_plain_step(self, analog, stored):
        from repro.bfs.topdown import topdown_step

        with open_scsr(stored) as store:
            marks_a = VisitMarks(analog.num_vertices)
            marks_b = VisitMarks(analog.num_vertices)
            frontier = np.array([0, 5, 99], dtype=np.int64)
            marks_a.new_epoch()
            marks_a.visit(frontier)
            marks_b.new_epoch()
            marks_b.visit(frontier)
            next_a, edges_a = topdown_step(analog, frontier, marks_a)
            next_b, edges_b = topdown_step_blocks(store, frontier, marks_b)
            assert np.array_equal(np.sort(next_a), np.sort(next_b))
            assert edges_a == edges_b

    def test_off_policy_never_touches_the_store(self, stored):
        graph = load_scsr(stored, mmap=True)
        try:
            kernel = TraversalKernel(graph, block_gather="off")
            kernel.levels([0], 2)
            assert graph.backing_store.stats.block_requests == 0
        finally:
            graph.backing_store.close()

    def test_invalid_policy_rejected(self, analog):
        with pytest.raises(AlgorithmError, match="block_gather"):
            TraversalKernel(analog, block_gather="sometimes")

    def test_fdiam_answer_unchanged_by_block_path(self, analog, stored):
        from repro.core import FDiamConfig, fdiam

        graph = load_scsr(stored, mmap=True)
        try:
            assert (
                fdiam(graph, FDiamConfig()).diameter
                == fdiam(analog, FDiamConfig()).diameter
            )
        finally:
            graph.backing_store.close()


class TestGatherPathCostModel:
    def test_uncapped_expansion_stays_decoded(self):
        model = LevelSynchronousCostModel()
        path, reason = model.choose_gather_path(
            num_sources=1,
            max_level=None,
            num_vertices=10**6,
            num_directed_edges=3 * 10**6,
        )
        assert path == "decoded"
        assert "uncapped" in reason

    def test_shallow_cap_on_a_large_graph_uses_blocks(self):
        model = LevelSynchronousCostModel()
        path, _ = model.choose_gather_path(
            num_sources=1,
            max_level=2,
            num_vertices=10**6,
            num_directed_edges=3 * 10**6,
        )
        assert path == "blocks"

    def test_wide_seed_set_overflows_to_decoded(self):
        model = LevelSynchronousCostModel()
        path, _ = model.choose_gather_path(
            num_sources=10**6,
            max_level=2,
            num_vertices=10**6,
            num_directed_edges=3 * 10**6,
        )
        assert path == "decoded"

    def test_deep_cap_does_not_overflow(self):
        # avg_degree ** 10_000 overflows a float; the log-space guard
        # must still return a verdict.
        path, _ = LevelSynchronousCostModel().choose_gather_path(
            num_sources=4,
            max_level=10_000,
            num_vertices=10**6,
            num_directed_edges=4 * 10**6,
        )
        assert path == "decoded"

    def test_fraction_param_validated(self):
        with pytest.raises(AlgorithmError):
            CostModelParams(block_gather_fraction=0.0)
        with pytest.raises(AlgorithmError):
            CostModelParams(block_gather_fraction=1.5)

    def test_workspace_pool_is_used(self, analog, stored):
        ws = Workspace(analog.num_vertices)
        with open_scsr(stored) as store:
            store.gather_rows(np.array([0, 1, 2]), pool=ws)
        assert ws.stats.buffer_requests > 0


class TestByteBudgetCache:
    """The byte-denominated cache budget and its thrash accounting."""

    def _reference_rows(self, graph, vertices):
        return gather_neighbors(graph, np.asarray(vertices, dtype=np.int64))

    @pytest.mark.parametrize("retain", [True, False])
    def test_gather_edge_cases_match_csr_rows(self, tmp_path, retain):
        """Duplicate sources, empty rows, and block-boundary spans all
        reproduce the CSRGraph rows under both cached and streaming
        gathers."""
        graph, _ = build_fuzz_graph(9, max_vertices=48)
        path = tmp_path / "g.scsr"
        block_size = 4
        save_scsr(graph, path, block_size=block_size)
        degs = np.diff(graph.indptr)
        empty = np.flatnonzero(degs == 0)
        boundary = np.array(
            [block_size - 1, block_size], dtype=np.int64
        ) % max(graph.num_vertices, 1)
        batteries = [
            np.array([3, 3, 3, 1, 1], dtype=np.int64)
            % max(graph.num_vertices, 1),
            boundary,  # request spanning a block boundary
        ]
        if len(empty):
            batteries.append(np.repeat(empty[:1], 3))
        with open_scsr(path) as store:
            for frontier in batteries:
                got, lengths = store.gather_rows(frontier, retain=retain)
                want = self._reference_rows(graph, frontier)
                assert np.array_equal(got, np.asarray(want, dtype=np.int64))
                assert np.array_equal(lengths, degs[frontier])

    def test_streaming_gather_never_populates_the_cache(self, analog, stored):
        rng = np.random.default_rng(7)
        frontier = rng.integers(0, analog.num_vertices, size=300)
        with open_scsr(stored) as store:
            store.gather_rows(frontier, retain=False)
            assert store.cache_resident_bytes == 0
            assert store.stats.blocks_decoded > 0
            # A cached block IS still served to a streaming gather.
            store.decode_block(0)
            before = store.stats.block_hits
            store.gather_rows(np.array([0]), retain=False)
            assert store.stats.block_hits == before + 1

    def test_byte_budget_bounds_residency_and_counts_thrash(
        self, analog, stored
    ):
        rng = np.random.default_rng(11)
        frontier = rng.integers(0, analog.num_vertices, size=2000)
        budget = 4096
        with open_scsr(stored) as store:
            store.set_cache_budget(budget)
            assert store.cache_budget == budget
            store.gather_rows(frontier)
            assert store.cache_resident_bytes <= budget
            assert store.stats.evictions > 0
            # The same frontier again: evicted blocks re-decode and the
            # thrash counters say so.
            store.gather_rows(frontier)
            assert store.stats.redecoded_blocks > 0
            assert 0.0 < store.stats.thrash_rate <= 1.0
            assert store.stats.decode_seconds > 0.0
            assert store.stats.decode_bandwidth > 0.0

    def test_zero_budget_keeps_cache_empty_after_trim(self, analog, stored):
        with open_scsr(stored) as store:
            store.gather_rows(np.arange(50, dtype=np.int64))
            assert store.cache_resident_bytes > 0
            store.set_cache_budget(0)
            assert store.cache_resident_bytes == 0

    def test_open_with_cache_bytes_budget(self, stored):
        from repro.store import CompressedCSR

        store = CompressedCSR.from_buffer(
            __import__("pathlib").Path(stored).read_bytes(), cache_bytes=2048
        )
        assert store.cache_budget == 2048
        store.gather_rows(np.arange(200, dtype=np.int64))
        # The decode path protects the just-inserted block, so residency
        # may overshoot by at most that one entry; an explicit re-trim
        # enforces the budget strictly.
        assert store.stats.evictions > 0
        store.set_cache_budget(2048)
        assert store.cache_resident_bytes <= 2048


class TestKernelMemoryModes:
    """memory_budget / memory_mode routing on the traversal kernel."""

    def test_mode_and_budget_validated(self, analog):
        with pytest.raises(AlgorithmError):
            TraversalKernel(analog, memory_mode="bogus")
        with pytest.raises(AlgorithmError):
            TraversalKernel(analog, memory_budget=-1)

    def test_forced_block_modes_require_a_store(self, analog):
        for mode in ("cached", "stream"):
            with pytest.raises(AlgorithmError):
                TraversalKernel(analog, memory_mode=mode)

    def test_auto_resolution_tracks_the_budget(self, analog, stored):
        graph = load_scsr(stored, mmap=True)
        try:
            decoded = graph.indptr.nbytes + graph.indices.nbytes
            assert TraversalKernel(graph).memory_mode == "decode"
            assert (
                TraversalKernel(graph, memory_budget=decoded * 4).memory_mode
                == "decode"
            )
            assert (
                TraversalKernel(
                    graph, memory_budget=decoded // 4
                ).memory_mode
                == "cached"
            )
            assert (
                # Below even the 1/16384 cache floor: route to stream.
                TraversalKernel(graph, memory_budget=1).memory_mode
                == "stream"
            )
        finally:
            graph.backing_store.close()

    def test_plain_graph_ignores_the_budget(self, analog):
        kernel = TraversalKernel(analog, memory_budget=1)
        assert kernel.memory_mode == "decode"

    @pytest.mark.parametrize("mode", ["cached", "stream"])
    def test_bfs_bit_identical_under_pressure(self, analog, stored, mode):
        reference = TraversalKernel(analog)
        graph = load_scsr(stored, mmap=True)
        try:
            kernel = TraversalKernel(
                graph,
                memory_mode=mode,
                memory_budget=4096 if mode == "cached" else None,
            )
            for source in (0, analog.max_degree_vertex()):
                want = reference.bfs(source)
                got = kernel.bfs(source)
                assert got.eccentricity == want.eccentricity
                assert got.visited_count == want.visited_count
            ws = kernel.workspace.stats
            assert ws.store_blocks_decoded > 0
            if mode == "stream":
                assert graph.backing_store.cache_resident_bytes == 0
        finally:
            graph.backing_store.close()

    def test_fdiam_bit_identical_across_budgets(self, analog, stored):
        from repro.core.config import FDiamConfig
        from repro.core.fdiam import fdiam

        want = fdiam(analog)
        graph = load_scsr(stored, mmap=True)
        try:
            decoded = graph.indptr.nbytes + graph.indices.nbytes
            for budget in (None, decoded // 4, 1024):
                got = fdiam(graph, FDiamConfig(memory_budget=budget))
                assert got.diameter == want.diameter
            forced = fdiam(graph, FDiamConfig(memory_mode="stream"))
            assert forced.diameter == want.diameter
        finally:
            graph.backing_store.close()

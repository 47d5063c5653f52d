"""Round-trip tests for the ``.scsr`` block-compressed store.

The contract is bit-exactness: for every graph the package can build,
``save_scsr`` → ``load_scsr`` must reproduce the original ``indptr``
and ``indices`` arrays exactly (values, dtype, and shape), at every
block size, whether read with ``load_scsr`` or ``read_graph``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.generators.registry import build_analog, build_fuzz_graph
from repro.graph.build import from_edges
from repro.graph.io import graph_digest, read_graph
from repro.store import (
    DEFAULT_BLOCK_SIZE,
    CompressedCSR,
    load_scsr,
    open_scsr,
    save_scsr,
)


def _assert_same_arrays(loaded, original):
    assert loaded.indptr.dtype == original.indptr.dtype
    assert loaded.indices.dtype == original.indices.dtype
    assert np.array_equal(loaded.indptr, original.indptr)
    assert np.array_equal(loaded.indices, original.indices)


class TestRoundTrip:
    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("block_size", [1, 3, DEFAULT_BLOCK_SIZE])
    def test_fuzz_graphs_bit_identical(self, tmp_path, seed, block_size):
        graph, _family = build_fuzz_graph(seed, max_vertices=48)
        path = tmp_path / "g.scsr"
        save_scsr(graph, path, block_size=block_size)
        _assert_same_arrays(load_scsr(path), graph)

    def test_paper_analog_round_trips(self, tmp_path):
        graph = build_analog("internet")
        path = tmp_path / "internet.scsr"
        info = save_scsr(graph, path, provenance="reorder=none")
        loaded = load_scsr(path)
        _assert_same_arrays(loaded, graph)
        assert loaded.name == graph.name
        assert info.num_vertices == graph.num_vertices
        assert info.num_edges == graph.num_edges
        assert info.num_directed_edges == graph.num_directed_edges
        assert info.nbytes == path.stat().st_size
        assert info.bytes_per_edge == info.nbytes / graph.num_edges

    def test_empty_graph(self, tmp_path):
        graph = from_edges([], 0, "empty")
        path = tmp_path / "empty.scsr"
        save_scsr(graph, path)
        loaded = load_scsr(path)
        assert loaded.num_vertices == 0
        _assert_same_arrays(loaded, graph)

    def test_isolated_vertices_only(self, tmp_path):
        graph = from_edges([], 5, "isolated")
        path = tmp_path / "iso.scsr"
        save_scsr(graph, path, block_size=2)
        loaded = load_scsr(path)
        assert loaded.num_vertices == 5
        assert loaded.num_edges == 0
        _assert_same_arrays(loaded, graph)

    def test_mmap_load_matches_eager(self, tmp_path):
        """``mmap`` is an ``.npz`` option: a ``.scsr`` read with it is
        the same full decode as the eager load, digest included."""
        graph, _ = build_fuzz_graph(3, max_vertices=48)
        path = tmp_path / "g.scsr"
        save_scsr(graph, path, block_size=4)
        eager = load_scsr(path)
        mapped = read_graph(path, mmap=True)
        _assert_same_arrays(mapped, eager)
        assert graph_digest(mapped) == graph_digest(eager)

    def test_from_buffer_matches_file(self, tmp_path):
        """The image parses identically from a raw byte buffer."""
        graph, _ = build_fuzz_graph(9, max_vertices=48)
        path = tmp_path / "g.scsr"
        save_scsr(graph, path, block_size=4)
        store = CompressedCSR.from_buffer(path.read_bytes())
        _assert_same_arrays(store.to_graph(), graph)


class TestHeaderMetadata:
    def test_provenance_and_name_survive(self, tmp_path):
        graph, _ = build_fuzz_graph(5, max_vertices=32)
        path = tmp_path / "g.scsr"
        save_scsr(graph, path, provenance="reorder=bfs")
        with open_scsr(path) as store:
            assert store.provenance == "reorder=bfs"
            assert store.name == graph.name

    def test_storage_tag_set_on_decoded_graph(self, tmp_path):
        graph, _ = build_fuzz_graph(5, max_vertices=32)
        assert graph.storage == "csr"
        path = tmp_path / "g.scsr"
        save_scsr(graph, path)
        assert load_scsr(path).storage == "scsr:v1"

    def test_block_count_matches_block_size(self, tmp_path):
        graph, _ = build_fuzz_graph(7, max_vertices=48)
        path = tmp_path / "g.scsr"
        info = save_scsr(graph, path, block_size=5)
        expected = -(-graph.num_vertices // 5)
        assert info.num_blocks == expected
        with open_scsr(path) as store:
            assert store.num_blocks == expected
            assert store.block_size == 5

    def test_atomic_write_replaces_in_place(self, tmp_path):
        g1, _ = build_fuzz_graph(1, max_vertices=32)
        g2, _ = build_fuzz_graph(2, max_vertices=32)
        path = tmp_path / "g.scsr"
        save_scsr(g1, path)
        save_scsr(g2, path)
        _assert_same_arrays(load_scsr(path), g2)
        assert list(tmp_path.iterdir()) == [path]  # no temp files left


class TestStreamingEncoder:
    """The chunked sequential writer must be byte-identical to one-shot.

    Adjacency first-delta chains reset at block boundaries, so any
    block-aligned chunking encodes the exact same byte stream — the
    property the out-of-core 10^7-edge tier rests on.
    """

    @pytest.mark.parametrize("chunk_edges", [1, 7, 100, 12345])
    def test_byte_identical_to_one_shot(self, tmp_path, chunk_edges):
        graph = build_analog("internet")
        one = tmp_path / "one.scsr"
        chunked = tmp_path / "chunked.scsr"
        save_scsr(graph, one)
        info = save_scsr(graph, chunked, chunk_edges=chunk_edges)
        assert one.read_bytes() == chunked.read_bytes()
        assert info.chunk_edges == chunk_edges

    @pytest.mark.parametrize("seed", range(8))
    def test_fuzz_graphs_byte_identical(self, tmp_path, seed):
        graph, _family = build_fuzz_graph(seed, max_vertices=48)
        one = tmp_path / "one.scsr"
        chunked = tmp_path / "chunked.scsr"
        save_scsr(graph, one, block_size=3)
        save_scsr(graph, chunked, block_size=3, chunk_edges=5)
        assert one.read_bytes() == chunked.read_bytes()

    def test_empty_and_isolated_graphs(self, tmp_path):
        for graph in (from_edges([], 0, "empty"), from_edges([], 9, "iso")):
            one = tmp_path / f"{graph.name}-one.scsr"
            chunked = tmp_path / f"{graph.name}-chunked.scsr"
            save_scsr(graph, one)
            save_scsr(graph, chunked, chunk_edges=2)
            assert one.read_bytes() == chunked.read_bytes()

    def test_chunk_edges_validated(self, tmp_path):
        from repro.errors import StoreFormatError

        graph, _ = build_fuzz_graph(3, max_vertices=16)
        with pytest.raises(StoreFormatError):
            save_scsr(graph, tmp_path / "g.scsr", chunk_edges=0)

    def test_streaming_peak_is_chunk_bounded(self, tmp_path):
        """The accounted transient high-water scales with the chunk,
        not with the graph (the ISSUE's encoder-RSS acceptance bar,
        asserted for real at 10^7 edges in the bench stage)."""
        graph = build_analog("internet")
        one = save_scsr(graph, tmp_path / "one.scsr")
        chunk_edges = 1000
        stream = save_scsr(
            graph, tmp_path / "s.scsr", chunk_edges=chunk_edges
        )
        per_arc = one.encoder_peak_bytes / max(graph.num_directed_edges, 1)
        index_overhead = 4 * 8 * (one.num_blocks + 1)
        assert stream.encoder_peak_bytes < one.encoder_peak_bytes
        assert (
            stream.encoder_peak_bytes
            < 2 * per_arc * chunk_edges + index_overhead
        )

    def test_section_accounting_sums_to_file_size(self, tmp_path):
        graph = build_analog("internet")
        path = tmp_path / "g.scsr"
        info = save_scsr(graph, path)
        sections = info.section_nbytes
        assert set(sections) == {
            "header", "index", "degree_stream", "adjacency_stream"
        }
        assert sum(sections.values()) == path.stat().st_size == info.nbytes
        assert sections["index"] == info.index_nbytes

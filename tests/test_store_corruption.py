"""Regression tests: a damaged ``.scsr`` store fails loudly.

The store twin of ``test_cache_corruption.py``: every corruption mode
— a truncated file, a garbled block, a wrong magic, a schema-version
bump, doctored index tables, bit damage in the streams — must raise a
:class:`repro.errors.StoreFormatError` naming the problem, never
return a silently wrong graph.
"""

from __future__ import annotations

import struct

import numpy as np
import pytest

from repro.errors import GraphFormatError, ReproError, StoreFormatError
from repro.generators.registry import build_fuzz_graph
from repro.store import (
    FORMAT_VERSION,
    MAGIC,
    HEADER_STRUCT,
    load_scsr,
    open_scsr,
    save_scsr,
)


@pytest.fixture
def graph():
    g, _family = build_fuzz_graph(29, max_vertices=48)
    return g


@pytest.fixture
def store_path(tmp_path, graph):
    path = tmp_path / "g.scsr"
    save_scsr(graph, path, block_size=4)
    return path


def _expect_load_error(path, match=None):
    with pytest.raises(StoreFormatError, match=match):
        load_scsr(path)


class TestStructuralCorruption:
    def test_error_hierarchy(self):
        """StoreFormatError is a GraphFormatError is a ReproError, so
        existing `except ReproError` CLI/fuzzer handlers catch it."""
        assert issubclass(StoreFormatError, GraphFormatError)
        assert issubclass(StoreFormatError, ReproError)

    def test_truncated_below_header(self, store_path):
        store_path.write_bytes(store_path.read_bytes()[:40])
        _expect_load_error(store_path, match="too short")

    def test_truncated_mid_stream(self, store_path):
        payload = store_path.read_bytes()
        store_path.write_bytes(payload[: int(len(payload) * 0.7)])
        _expect_load_error(store_path)

    def test_bad_magic(self, store_path):
        payload = bytearray(store_path.read_bytes())
        payload[:8] = b"NOTSCSR!"
        store_path.write_bytes(bytes(payload))
        _expect_load_error(store_path, match="bad magic")

    def test_schema_version_mismatch(self, store_path):
        payload = bytearray(store_path.read_bytes())
        # Version is the u32 right after the 8-byte magic.
        struct.pack_into("<I", payload, 8, FORMAT_VERSION + 1)
        store_path.write_bytes(bytes(payload))
        _expect_load_error(store_path, match="schema version")

    def test_not_a_store_at_all(self, tmp_path):
        path = tmp_path / "garbage.scsr"
        path.write_bytes(b"this is not a compressed graph store")
        _expect_load_error(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(StoreFormatError):
            open_scsr(tmp_path / "nope.scsr")


class TestPayloadCorruption:
    def _header_end(self, payload):
        name_len, prov_len = struct.unpack_from(
            "<II", payload, HEADER_STRUCT.size - 64 - 8
        )
        var = name_len + prov_len
        return HEADER_STRUCT.size + ((var + 7) & ~7)

    def test_garbage_block_is_caught(self, graph, store_path):
        """Flipping bytes inside the adjacency stream must be caught by
        a structural check or, at the latest, the content digest."""
        payload = bytearray(store_path.read_bytes())
        # The adjacency stream ends the file; stomp its last 16 bytes.
        payload[-16:] = b"\xff" * 16
        store_path.write_bytes(bytes(payload))
        _expect_load_error(store_path)

    def test_corrupt_index_tables(self, store_path):
        payload = bytearray(store_path.read_bytes())
        lo = self._header_end(payload)
        # first_edge[0] must be 0; stomping it trips the monotonicity
        # check before any stream is decoded.
        payload[lo : lo + 8] = b"\xff" * 8
        store_path.write_bytes(bytes(payload))
        _expect_load_error(store_path, match="monotone")

    def test_digest_mismatch_on_stream_swap(self, tmp_path, graph):
        """Pasting one store's streams under another store's header is
        rejected by the digest verification even when every structural
        invariant happens to hold."""
        other, _ = build_fuzz_graph(31, max_vertices=48)
        a = tmp_path / "a.scsr"
        b = tmp_path / "b.scsr"
        save_scsr(graph, a, block_size=4)
        save_scsr(other, b, block_size=4)
        pa, pb = bytearray(a.read_bytes()), b.read_bytes()
        # Replace a's digest field with b's; body still holds a's data.
        digest_off = HEADER_STRUCT.size - 64
        pa[digest_off : digest_off + 64] = pb[digest_off : digest_off + 64]
        a.write_bytes(bytes(pa))
        _expect_load_error(a, match="digest")

    def test_verify_false_skips_only_the_digest(self, tmp_path, graph):
        """``verify=False`` trusts the digest but still runs every
        structural check — loading an intact store succeeds, loading a
        structurally damaged one still fails."""
        path = tmp_path / "g.scsr"
        save_scsr(graph, path, block_size=4)
        loaded = load_scsr(path, verify=False)
        assert np.array_equal(loaded.indices, graph.indices)
        payload = bytearray(path.read_bytes())
        payload[:8] = b"XXXXXXXX"
        path.write_bytes(bytes(payload))
        with pytest.raises(StoreFormatError):
            load_scsr(path, verify=False)


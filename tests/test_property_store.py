"""Property tests: the storage format never changes an answer.

Two families of properties over the seeded fuzz graphs:

* **Round-trip closure** — ``npz → scsr → npz`` reproduces the original
  archive bit for bit (arrays, dtypes, vertex count), at several block
  sizes, so the converter can be chained without drift.
* **Answer invariance** — fdiam, the eccentricity spectrum, and the
  batched query engine return identical results whether the graph came
  from memory, an ``.npz`` archive, or a ``.scsr`` store (read with or
  without the ``.npz``-only ``mmap`` flag).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import FDiamConfig, fdiam
from repro.core.extremes import eccentricity_spectrum
from repro.generators.registry import build_fuzz_graph
from repro.graph.io import graph_digest, load_npz, read_graph, save_npz
from repro.query import QueryEngine
from repro.store import load_scsr, save_scsr

FUZZ_SEEDS = range(0, 30, 3)


def _connected_fuzz_graph(seed):
    graph, family = build_fuzz_graph(seed, max_vertices=48)
    return graph, family


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_npz_scsr_npz_round_trip_is_identity(tmp_path, seed):
    graph, _ = _connected_fuzz_graph(seed)
    first = tmp_path / "a.npz"
    mid = tmp_path / "m.scsr"
    second = tmp_path / "b.npz"
    save_npz(graph, first, compressed=False)
    save_scsr(load_npz(first), mid, block_size=7)
    save_npz(load_scsr(mid), second, compressed=False)
    a, b = load_npz(first), load_npz(second)
    assert a.indptr.dtype == b.indptr.dtype
    assert a.indices.dtype == b.indices.dtype
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)


@pytest.mark.parametrize("seed", [1, 8, 19])
@pytest.mark.parametrize("block_size", [2, 64])
def test_double_scsr_round_trip_stable(tmp_path, seed, block_size):
    """scsr → graph → scsr produces a byte-identical image (encoding
    is deterministic), so repeated conversions cannot drift."""
    graph, _ = _connected_fuzz_graph(seed)
    p1, p2 = tmp_path / "1.scsr", tmp_path / "2.scsr"
    save_scsr(graph, p1, block_size=block_size, provenance="p")
    save_scsr(load_scsr(p1), p2, block_size=block_size, provenance="p")
    assert p1.read_bytes() == p2.read_bytes()


def _all_backings(tmp_path, graph):
    """The same graph via every storage path, as (label, graph) pairs."""
    npz, scsr = tmp_path / "g.npz", tmp_path / "g.scsr"
    save_npz(graph, npz)
    save_scsr(graph, scsr, block_size=4)
    return [
        ("memory", graph),
        ("npz", read_graph(npz)),
        ("scsr", load_scsr(scsr)),
        ("scsr+mmap", read_graph(scsr, mmap=True)),
    ]


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_scsr_mmap_read_is_the_eager_load(tmp_path, seed):
    graph, _ = _connected_fuzz_graph(seed)
    path = tmp_path / "g.scsr"
    save_scsr(graph, path, block_size=4)
    eager = load_scsr(path)
    mapped = read_graph(path, mmap=True)
    assert mapped.indptr.dtype == eager.indptr.dtype
    assert mapped.indices.dtype == eager.indices.dtype
    assert np.array_equal(mapped.indptr, eager.indptr)
    assert np.array_equal(mapped.indices, eager.indices)
    assert graph_digest(mapped) == graph_digest(eager)


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_fdiam_identical_across_backings(tmp_path, seed):
    graph, _ = _connected_fuzz_graph(seed)
    if graph.num_vertices == 0:
        pytest.skip("fdiam excludes the empty graph")
    backings = _all_backings(tmp_path, graph)
    results = {
        label: fdiam(g, FDiamConfig()) for label, g in backings
    }
    answers = {(r.diameter, r.infinite) for r in results.values()}
    assert len(answers) == 1, results


@pytest.mark.parametrize("seed", [2, 11, 23])
def test_spectrum_identical_across_backings(tmp_path, seed):
    graph, _ = _connected_fuzz_graph(seed)
    if graph.num_vertices == 0:
        pytest.skip("spectrum excludes the empty graph")
    backings = _all_backings(tmp_path, graph)
    specs = [
        (label, eccentricity_spectrum(g)) for label, g in backings
    ]
    _, ref = specs[0]
    for label, spec in specs[1:]:
        assert spec.diameter == ref.diameter, label
        assert spec.radius == ref.radius, label
        assert np.array_equal(
            spec.eccentricities, ref.eccentricities
        ), label


@pytest.mark.parametrize("seed", [4, 16])
def test_query_engine_identical_across_backings(tmp_path, seed):
    graph, _ = _connected_fuzz_graph(seed)
    n = graph.num_vertices
    if n < 2:
        pytest.skip("needs at least two vertices for dist queries")
    rng = np.random.default_rng(seed)
    queries = ["diam"] + [
        f"dist {rng.integers(n)} {rng.integers(n)}" for _ in range(6)
    ] + [f"ecc {rng.integers(n)}" for _ in range(4)]
    backings = _all_backings(tmp_path, graph)
    all_answers = []
    for label, g in backings:
        engine = QueryEngine()
        key = engine.add_graph(g)
        answers, _stats = engine.run(key, queries)
        all_answers.append((label, answers))
    _, ref = all_answers[0]
    for label, answers in all_answers[1:]:
        assert answers == ref, label

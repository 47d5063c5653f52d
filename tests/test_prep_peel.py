"""Pendant-tree peeling: exactness lemma and structural counters.

The peel lemma (DESIGN.md §9.2): replacing every pendant tree by a
spine path of the tree's height, and folding purely-internal tree
distances into a correction term, preserves the per-component
diameter — ``diam(original) = max(diam(peeled), correction)``.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.core.fdiam import fdiam
from repro.generators import (
    balanced_tree,
    caterpillar,
    cycle_graph,
    path_graph,
    star_graph,
)
from repro.generators.road import road_network
from repro.graph import CSRGraph, from_edge_arrays, from_edges, from_networkx
from repro.prep import PrepSpec, fdiam_prepped, peel_pendant_trees
from repro.prep.peel import _splice_spines
from repro.core.config import FDiamConfig

from conftest import nx_cc_diameter, to_nx


def peeled_diameter(graph) -> int:
    """diam via the peel stage alone (the lemma, applied by hand)."""
    res = peel_pendant_trees(graph)
    if res.graph.num_vertices == 0:
        return res.correction
    return max(fdiam(res.graph).diameter, res.correction)


class TestPeelLemma:
    def test_pure_path_becomes_correction(self):
        # A path is one big pendant tree: the whole component peels
        # away and its diameter survives only in the correction term.
        graph = path_graph(50)
        res = peel_pendant_trees(graph)
        assert res.graph.num_vertices == 0
        assert res.tree_components == 1
        assert res.correction == 49
        assert peeled_diameter(graph) == 49

    def test_star_is_a_tree_component(self):
        graph = star_graph(20)
        res = peel_pendant_trees(graph)
        assert res.graph.num_vertices == 0
        assert res.correction == 2 == fdiam(graph).diameter

    def test_cycle_is_untouched(self):
        # A cycle is its own 2-core: nothing to peel.
        graph = cycle_graph(12)
        res = peel_pendant_trees(graph)
        assert res.vertices_removed == 0
        assert res.spine_vertices == 0
        assert peeled_diameter(graph) == 6

    def test_cycle_with_pendant_path(self):
        # C6 with a 4-path hanging off vertex 0: the tree has height 4,
        # so the spine keeps the far tip's distance contribution alive.
        edges = [(i, (i + 1) % 6) for i in range(6)]
        edges += [(0, 6), (6, 7), (7, 8), (8, 9)]
        graph = from_edges(edges)
        res = peel_pendant_trees(graph)
        assert res.anchors == 1
        assert res.spine_vertices == 4
        assert peeled_diameter(graph) == nx_cc_diameter(to_nx(graph))

    def test_two_pendant_trees_same_anchor(self):
        # Both branches hang off the same core vertex; the internal
        # tree diameter (tip to tip through the anchor) must appear in
        # the correction, not be lost to the single spine.
        edges = [(i, (i + 1) % 5) for i in range(5)]
        edges += [(0, 5), (5, 6), (6, 7)]  # height-3 branch
        edges += [(0, 8), (8, 9)]  # height-2 branch
        graph = from_edges(edges)
        res = peel_pendant_trees(graph)
        assert res.correction >= 5  # 3 + 2 through the anchor
        assert peeled_diameter(graph) == nx_cc_diameter(to_nx(graph))

    def test_balanced_tree_and_caterpillar(self):
        for graph in (balanced_tree(3, 4), caterpillar(12, 3)):
            assert peeled_diameter(graph) == nx_cc_diameter(to_nx(graph))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_core_with_random_trees(self, seed):
        # A random 2-core-ish base with random trees grafted on.
        rng_graph = nx.gnm_random_graph(40, 70, seed=seed)
        base = max(nx.connected_components(rng_graph), key=len)
        G = rng_graph.subgraph(base).copy()
        G = nx.convert_node_labels_to_integers(G)
        n = G.number_of_nodes()
        tree = nx.random_labeled_tree(15, seed=seed + 100)
        G = nx.disjoint_union(G, tree)
        G.add_edge(seed % n, n)  # graft the tree onto the core
        graph = from_networkx(G)
        assert peeled_diameter(graph) == nx_cc_diameter(G)

    def test_road_analog_pendants(self):
        graph = road_network(20, 20, seed=7)
        assert peeled_diameter(graph) == nx_cc_diameter(to_nx(graph))


class TestPeelCounters:
    def test_removal_bookkeeping_consistent(self):
        graph = caterpillar(10, 4)
        res = peel_pendant_trees(graph)
        # Every removed original vertex is either gone or replaced by a
        # synthetic spine vertex; the arithmetic must close.
        assert (
            res.graph.num_vertices
            == graph.num_vertices - res.vertices_removed + res.spine_vertices
        )
        assert res.num_core + res.spine_vertices == res.graph.num_vertices
        assert len(res.core_to_parent) == res.num_core

    def test_prepped_driver_uses_correction(self):
        # End to end through the pipeline: a graph whose diameter lives
        # entirely inside a pendant tree.
        edges = [(0, 1), (1, 2), (2, 0)]  # triangle core, diameter 1
        edges += [(0, 3), (3, 4), (4, 5), (5, 6)]  # height-4 pendant path
        graph = from_edges(edges)
        plain = fdiam(graph)
        prepped = fdiam_prepped(graph, FDiamConfig(prep="peel"))
        assert prepped.diameter == plain.diameter
        assert prepped.stats.prep.peel_anchors == 1
        spec = PrepSpec.parse("peel")
        assert spec.tokens == ("peel",)


def rebuilt_reduced_graph(core, anchors, heights, name):
    """Reference: the reduced graph as an edge list fed through the
    general builder (sort + dedup), the way peeling used to build it."""
    k = core.num_vertices
    total = int(heights.sum())
    src = np.repeat(np.arange(k, dtype=np.int64), np.diff(core.indptr))
    dst = core.indices.astype(np.int64)
    if total:
        offsets = np.concatenate(([0], np.cumsum(heights)[:-1]))
        spine_anchor = np.repeat(np.arange(len(anchors)), heights)
        spine_ids = k + np.arange(total, dtype=np.int64)
        spine_pos = np.arange(total) - offsets[spine_anchor]
        prev = np.where(spine_pos == 0, anchors[spine_anchor], spine_ids - 1)
        src = np.concatenate([src, prev])
        dst = np.concatenate([dst, spine_ids])
    return from_edge_arrays(src, dst, k + total, name=name)


def _assert_same_csr(got, want):
    assert got.name == want.name
    assert got.indptr.dtype == want.indptr.dtype
    assert got.indices.dtype == want.indices.dtype
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)


def cycle_with_trees_and_a_path():
    """A 6-cycle with two pendant trees, plus a separate 5-path."""
    edges = [(i, (i + 1) % 6) for i in range(6)]
    edges += [(0, 6), (6, 7), (6, 8), (3, 9)]
    edges += [(10, 11), (11, 12), (12, 13), (13, 14)]
    return from_edges(edges)


class TestSpineSplice:
    """The sort-free splice equals a full edge-list rebuild."""

    @pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_core_random_spines(self, seed, index_dtype):
        rng = np.random.default_rng(seed + 2000)
        k = int(rng.integers(3, 60))
        m = int(rng.integers(k, 4 * k))
        base = from_edge_arrays(rng.integers(0, k, m), rng.integers(0, k, m), k)
        core = CSRGraph(base.indptr, base.indices.astype(index_dtype), name="c")
        anchors = np.sort(rng.choice(k, size=int(rng.integers(1, k)), replace=False))
        heights = rng.integers(1, 6, size=len(anchors))
        got = _splice_spines(core, anchors, heights, "c:peeled")
        _assert_same_csr(got, rebuilt_reduced_graph(core, anchors, heights, "c:peeled"))
        assert got.indices.dtype == np.int32

    @pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
    def test_no_spines(self, index_dtype):
        base = cycle_graph(7)
        core = CSRGraph(base.indptr, base.indices.astype(index_dtype), name="c")
        none = np.empty(0, dtype=np.int64)
        got = _splice_spines(core, none, none, "c:peeled")
        _assert_same_csr(got, rebuilt_reduced_graph(core, none, none, "c:peeled"))

    def test_empty_core(self):
        # A forest peels to nothing: the reduced graph has no vertices.
        core = from_edges([], num_vertices=0)
        none = np.empty(0, dtype=np.int64)
        got = _splice_spines(core, none, none, "f:peeled")
        _assert_same_csr(got, rebuilt_reduced_graph(core, none, none, "f:peeled"))

    @pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
    def test_peel_end_to_end_dtype_and_name(self, index_dtype):
        # Tree components (no spines) plus a core with pendant trees.
        base = cycle_with_trees_and_a_path()
        graph = CSRGraph(base.indptr, base.indices.astype(index_dtype), name="g")
        res = peel_pendant_trees(graph)
        assert res.graph.name == "g:peeled"
        assert res.graph.indices.dtype == np.int32
        assert res.spine_vertices > 0 and res.tree_components == 1
        edges = np.array(list(res.graph.iter_edges()), dtype=np.int64)
        rebuilt = from_edge_arrays(
            edges[:, 0], edges[:, 1], res.graph.num_vertices, name="g:peeled"
        )
        _assert_same_csr(res.graph, rebuilt)
        assert peeled_diameter(graph) == nx_cc_diameter(to_nx(graph))

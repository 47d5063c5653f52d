"""Unit tests for connected components."""

from collections import deque

import networkx as nx
import numpy as np
import pytest

from conftest import random_gnp
from repro.generators import disjoint_union, grid_2d, path_graph, star_graph
from repro.graph import (
    connected_components,
    empty_graph,
    from_edge_arrays,
    from_edges,
    largest_component_mask,
)


def scan_order_components(graph):
    """Reference labelling: a deque BFS from each unlabelled vertex, in
    increasing vertex order, numbering components as they are found."""
    n = graph.num_vertices
    labels = np.full(n, -1, dtype=np.int64)
    component = 0
    for seed in range(n):
        if labels[seed] != -1:
            continue
        labels[seed] = component
        queue = deque([seed])
        while queue:
            for w in graph.neighbors(queue.popleft()).tolist():
                if labels[w] == -1:
                    labels[w] = component
                    queue.append(w)
        component += 1
    return labels, np.bincount(labels, minlength=component).astype(np.int64)


class TestConnectedComponents:
    def test_single_component(self):
        cc = connected_components(path_graph(10))
        assert cc.num_components == 1
        assert cc.sizes.tolist() == [10]
        assert cc.is_connected()

    def test_empty_graph(self):
        cc = connected_components(empty_graph(0))
        assert cc.num_components == 0
        assert cc.is_connected()

    def test_all_isolated(self):
        cc = connected_components(empty_graph(4))
        assert cc.num_components == 4
        assert cc.sizes.tolist() == [1, 1, 1, 1]

    def test_two_components_plus_isolated(self):
        g = from_edges([(0, 1), (2, 3), (3, 4)], num_vertices=6)
        cc = connected_components(g)
        assert cc.num_components == 3
        assert cc.labels[0] == cc.labels[1]
        assert cc.labels[2] == cc.labels[3] == cc.labels[4]
        assert cc.labels[5] not in (cc.labels[0], cc.labels[2])
        assert not cc.is_connected()

    def test_component_ids_ordered_by_smallest_vertex(self):
        g = from_edges([(4, 5), (0, 1)], num_vertices=6)
        cc = connected_components(g)
        assert cc.labels[0] == 0  # component containing vertex 0 gets id 0

    def test_vertices_of(self):
        g = disjoint_union([path_graph(3), star_graph(4)])
        cc = connected_components(g)
        assert cc.vertices_of(0).tolist() == [0, 1, 2]
        assert cc.vertices_of(1).tolist() == [3, 4, 5, 6]

    def test_largest(self):
        g = disjoint_union([path_graph(3), path_graph(7), path_graph(2)])
        cc = connected_components(g)
        assert cc.largest() == 1
        assert cc.sizes[cc.largest()] == 7

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_networkx(self, seed):
        g, G = random_gnp(60, 0.03, seed)
        cc = connected_components(g)
        nx_comps = list(nx.connected_components(G))
        assert cc.num_components == len(nx_comps)
        assert sorted(cc.sizes.tolist()) == sorted(len(c) for c in nx_comps)
        # Vertices sharing an nx component share a label and vice versa.
        for comp in nx_comps:
            labels = {int(cc.labels[v]) for v in comp}
            assert len(labels) == 1

    def test_grid_connected(self):
        cc = connected_components(grid_2d(15, 15))
        assert cc.is_connected()


class TestLargestComponentMask:
    def test_mask_selects_largest(self):
        g = disjoint_union([path_graph(2), path_graph(5)])
        mask = largest_component_mask(g)
        assert mask.tolist() == [False, False, True, True, True, True, True]

    def test_empty(self):
        mask = largest_component_mask(empty_graph(0))
        assert mask.shape == (0,)

    def test_mask_dtype(self):
        mask = largest_component_mask(path_graph(3))
        assert mask.dtype == np.bool_


def _assert_matches_reference(graph):
    cc = connected_components(graph)
    labels, sizes = scan_order_components(graph)
    assert cc.labels.dtype == np.int64 and cc.sizes.dtype == np.int64
    assert np.array_equal(cc.labels, labels)
    assert np.array_equal(cc.sizes, sizes)


class TestHookAndCompressMatchesScanOrder:
    """Labels and sizes equal the scan-order BFS sweep exactly."""

    def test_empty_graph(self):
        _assert_matches_reference(empty_graph(0))

    def test_thousands_of_singletons(self):
        _assert_matches_reference(empty_graph(3000))

    def test_thousands_of_k2_components(self):
        # Pairs (2i, 2i+1) shuffled into the id space, plus singletons.
        rng = np.random.default_rng(11)
        ids = rng.permutation(5000)
        g = from_edge_arrays(ids[0:4000:2], ids[1:4000:2], 5000)
        _assert_matches_reference(g)

    def test_components_whose_smallest_vertex_comes_late(self):
        # Long paths laid out with descending ids, interleaved with
        # other components, so hooking needs several rounds.
        n = 600
        order = np.arange(n)[::-1].reshape(3, -1).T.ravel()
        src = order[:-3]
        dst = order[3:]
        _assert_matches_reference(from_edge_arrays(src, dst, n))

    @pytest.mark.parametrize("seed", range(6))
    def test_random_sparse_graphs(self, seed):
        rng = np.random.default_rng(seed + 1900)
        n = int(rng.integers(1, 2000))
        m = int(rng.integers(0, n))
        g = from_edge_arrays(rng.integers(0, n, m), rng.integers(0, n, m), n)
        _assert_matches_reference(g)

    def test_largest_first_tie_order(self):
        # Equal sizes keep scan order: the pipeline solves components
        # largest first with ties broken by smallest vertex id.
        g = disjoint_union([path_graph(2), star_graph(4), path_graph(4)])
        cc = connected_components(g)
        assert cc.sizes.tolist() == [2, 4, 4]
        order = np.argsort(-cc.sizes, kind="stable")
        assert order.tolist() == [1, 2, 0]

"""Tests for the k-core decomposition."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_gnp, to_nx
from repro.errors import AlgorithmError
from repro.generators import (
    add_isolated_vertices,
    add_tendrils,
    barabasi_albert,
    complete_graph,
    cycle_graph,
    disjoint_union,
    lollipop,
    path_graph,
    star_graph,
)
from repro.graph import empty_graph, from_edges, from_networkx
from repro.graph.kcore import core_numbers, degeneracy, k_core_mask


class TestKnownCores:
    def test_path(self):
        dec = core_numbers(path_graph(6))
        assert dec.core.tolist() == [1] * 6
        assert dec.degeneracy == 1

    def test_cycle(self):
        assert core_numbers(cycle_graph(7)).core.tolist() == [2] * 7

    def test_star_leaves_core_one(self):
        dec = core_numbers(star_graph(8))
        assert dec.core[0] == 1  # the hub peels with its leaves
        assert (dec.core[1:] == 1).all()

    def test_complete(self):
        assert degeneracy(complete_graph(6)) == 5

    def test_lollipop_core_vs_stem(self):
        g = lollipop(6, 4)
        dec = core_numbers(g)
        assert dec.core[:6].min() == 5  # clique part
        assert dec.core[-1] == 1  # stem tip

    def test_isolated_vertices(self):
        dec = core_numbers(empty_graph(4))
        assert dec.core.tolist() == [0] * 4

    def test_empty_graph(self):
        dec = core_numbers(empty_graph(0))
        assert dec.degeneracy == 0


class TestAgainstNetworkx:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_graphs(self, seed):
        g, G = random_gnp(50, 0.04 + 0.03 * (seed % 4), seed + 1600)
        ours = core_numbers(g).core
        theirs = nx.core_number(G)
        for v in range(50):
            assert ours[v] == theirs[v], v

    def test_powerlaw(self):
        g = barabasi_albert(400, 3, seed=33)
        ours = core_numbers(g).core
        theirs = nx.core_number(to_nx(g))
        assert all(ours[v] == theirs[v] for v in range(400))


class TestPeelOrderAndMask:
    def test_peel_order_is_permutation(self):
        g, _ = random_gnp(30, 0.15, 1700)
        dec = core_numbers(g)
        assert sorted(dec.peel_order.tolist()) == list(range(30))

    def test_peel_order_core_monotone(self):
        # Core numbers along the peel order never decrease... they can
        # oscillate within a shell, but the *shell index* (core number
        # at removal) is non-decreasing.
        g, _ = random_gnp(40, 0.12, 1701)
        dec = core_numbers(g)
        shells = dec.core[dec.peel_order]
        assert (np.diff(shells) >= 0).all()

    def test_k_core_mask(self):
        g = lollipop(5, 3)
        mask = k_core_mask(g, 4)
        assert mask[:5].all()
        assert not mask[5:].any()

    def test_negative_k_rejected(self):
        with pytest.raises(AlgorithmError):
            k_core_mask(path_graph(3), -1)

    def test_paper_claim_hubs_are_core(self):
        # §3: high-degree vertices tend to be core vertices. On a
        # power-law graph the max-degree vertex is in the deepest core.
        g = barabasi_albert(1000, 4, seed=34)
        dec = core_numbers(g)
        assert dec.core[g.max_degree_vertex()] == dec.degeneracy

    def test_paper_claim_degree1_peripheral(self):
        g = lollipop(8, 5)
        dec = core_numbers(g)
        tip = g.num_vertices - 1
        assert dec.core[tip] == dec.core.min()


def _edge_graph(n, edges):
    return from_edges(edges, num_vertices=n) if edges else empty_graph(n)


@st.composite
def small_graphs(draw):
    n = draw(st.integers(0, 40))
    if n == 0:
        return empty_graph(0)
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    return _edge_graph(n, draw(st.lists(pairs, max_size=3 * n)))


def _mask_families():
    """Seeded graphs covering the strip's edge cases."""
    yield "isolated", empty_graph(7)
    yield "path", path_graph(30)
    yield "star", star_graph(12)
    yield "tree", from_networkx(nx.random_labeled_tree(60, seed=4))
    yield "cycle", cycle_graph(9)
    yield "lollipop", lollipop(6, 8)  # clique with a long tail
    tails = [(i, (i + 1) % 8) for i in range(8)]
    tails += [(0, 8), (8, 9), (9, 10), (3, 11), (11, 12), (12, 13), (12, 14)]
    yield "cycle-with-tails", from_edges(tails)
    yield "union", disjoint_union(
        [complete_graph(5), path_graph(4), cycle_graph(6), star_graph(5)]
    )
    g, _ = random_gnp(80, 0.05, 1800)
    yield "gnp-with-isolated", add_isolated_vertices(g, 5)
    yield "powerlaw", barabasi_albert(300, 2, seed=35)


class TestKCoreMaskMatchesCoreNumbers:
    """The leaf-stripping mask against the bucketed peel as oracle."""

    @pytest.mark.parametrize("k", range(5))
    def test_seeded_families(self, k):
        for label, g in _mask_families():
            expected = core_numbers(g).core >= k
            assert np.array_equal(k_core_mask(g, k), expected), label

    @settings(max_examples=60, deadline=None)
    @given(small_graphs(), st.integers(0, 4))
    def test_random_graphs(self, g, k):
        expected = core_numbers(g).core >= k
        assert np.array_equal(k_core_mask(g, k), expected)

    def test_many_hits_on_one_vertex(self):
        # Pendant leaves far outnumber the cycle, so the first round
        # hits each cycle vertex several times and every hit must count.
        g = add_tendrils(cycle_graph(50), 200, 1, 1, seed=3)
        for k in range(4):
            assert np.array_equal(k_core_mask(g, k), core_numbers(g).core >= k)

    def test_long_pendant_path(self):
        # One vertex leaves per round, for as many rounds as the tail.
        g = lollipop(5, 400)
        for k in range(4):
            assert np.array_equal(k_core_mask(g, k), core_numbers(g).core >= k)

    def test_empty_graph(self):
        assert k_core_mask(empty_graph(0), 2).shape == (0,)

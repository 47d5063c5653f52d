"""Byte-budgeted LRU residency of the service's graph registry."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.errors import AlgorithmError
from repro.graph import from_networkx, save_npz
from repro.query import QueryEngine
from repro.service import GraphRegistry, GraphSpec, UnknownGraphError
from repro.service.registry import resident_bytes


def make_graph(n, seed):
    return from_networkx(nx.gnp_random_graph(n, 4.0 / n, seed=seed))


@pytest.fixture
def engine():
    engine = QueryEngine(max_graphs=64)
    yield engine
    engine.close()


class TestSpecs:
    def test_exactly_one_of_path_or_graph(self):
        g = make_graph(16, 0)
        GraphSpec(key="ok", graph=g)
        GraphSpec(key="ok", path="x.npz")
        with pytest.raises(AlgorithmError, match="exactly one"):
            GraphSpec(key="bad")
        with pytest.raises(AlgorithmError, match="exactly one"):
            GraphSpec(key="bad", path="x.npz", graph=g)

    def test_unknown_key(self, engine):
        registry = GraphRegistry(engine)
        with pytest.raises(UnknownGraphError, match="ghost"):
            registry.ensure("ghost")

    def test_negative_budget_rejected(self, engine):
        with pytest.raises(AlgorithmError):
            GraphRegistry(engine, byte_budget=-1)


class TestLRU:
    def test_least_recent_evicted_and_reopens(self, engine, tmp_path):
        graphs = {k: make_graph(200, i) for i, k in enumerate("abc")}
        paths = {}
        for key, graph in graphs.items():
            paths[key] = str(tmp_path / f"{key}.npz")
            save_npz(graph, paths[key], compressed=False)

        per_graph = resident_bytes(graphs["a"])
        # Budget fits roughly two graphs of this size.
        registry = GraphRegistry(
            engine, byte_budget=int(2.5 * per_graph)
        )
        for key in "abc":
            registry.register(key, path=paths[key])

        registry.ensure("a")
        registry.ensure("b")
        assert registry.evictions == 0
        registry.ensure("c")  # over budget: 'a' is the LRU victim
        assert registry.evictions == 1
        snap = registry.snapshot()
        assert not snap["graphs"]["a"]["resident"]
        assert snap["graphs"]["b"]["resident"]
        assert snap["graphs"]["c"]["resident"]
        assert "a" not in engine.graph_keys()

        # Touching 'b' refreshes it; 'c' becomes the next victim.
        registry.ensure("b")
        registry.ensure("a")  # reopen works; evicts 'c'
        assert registry.opens == 4
        assert registry.evictions == 2
        assert "c" not in engine.graph_keys()
        registry.close()
        assert registry.snapshot()["resident"] == 0

    def test_answers_survive_eviction(self, engine, tmp_path):
        graph = make_graph(150, 9)
        path = str(tmp_path / "g.npz")
        save_npz(graph, path, compressed=False)
        registry = GraphRegistry(engine, byte_budget=0)
        registry.register("g", path=path)

        registry.ensure("g")
        before, _ = engine.run("g", ["ecc 0", "diam"])
        registry.evict("g")
        registry.ensure("g")  # cold reopen
        after, _ = engine.run("g", ["ecc 0", "diam"])
        assert before == after

    def test_pinned_graph_never_evicted(self, engine):
        a, b = make_graph(200, 1), make_graph(200, 2)
        registry = GraphRegistry(engine, byte_budget=0)  # nothing fits
        registry.register("a", graph=a)
        registry.register("b", graph=b)

        registry.pin("a")
        registry.ensure("a")
        registry.ensure("b")  # 'b' is kept (keep=key); 'a' is pinned
        snap = registry.snapshot()
        assert snap["graphs"]["a"]["resident"], "pinned graph was evicted"
        registry.unpin("a")
        registry.ensure("b")  # now 'a' is evictable
        assert not registry.snapshot()["graphs"]["a"]["resident"]

    def test_caller_owned_graph_not_closed(self, engine):
        graph = make_graph(64, 5)
        registry = GraphRegistry(engine, byte_budget=None)
        registry.register("g", graph=graph)
        registry.ensure("g")
        registry.evict("g")
        # The caller's graph object must still be usable.
        assert graph.num_vertices == 64
        assert graph.indptr[-1] == graph.indices.shape[0]


class TestMutatedResidency:
    def test_mutated_dynamic_graph_survives_budget(self, engine, tmp_path):
        # A mutated dynamic graph's edits live only in memory: evicting
        # it would reopen the file at epoch 0 and lose them.
        registry = GraphRegistry(engine, byte_budget=1)
        for i, key in enumerate("ab"):
            path = str(tmp_path / f"{key}.npz")
            save_npz(from_networkx(nx.path_graph(20 + i)), path, compressed=False)
            registry.register(key, path=path, dynamic=True)

        registry.ensure("a")
        engine.mutate("a", inserts=[(0, 19)])
        assert engine.graph_epoch("a") == 1
        registry.ensure("b")
        snap = registry.snapshot()
        assert snap["graphs"]["a"]["resident"]
        assert snap["mutated_skips"] == 1
        registry.ensure("a")
        assert engine.graph_epoch("a") == 1
        # The 20-path closed into a 20-cycle, not the file's path.
        assert engine.run("a", ["diam"])[0] == [10]
        assert registry.opens == 2

        # An unmutated dynamic graph is still an ordinary victim.
        registry.ensure("b")
        registry.ensure("a")
        assert not registry.snapshot()["graphs"]["b"]["resident"]

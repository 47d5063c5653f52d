"""Tests for the benchmark regression harness (``benchmarks/regression.py``).

The harness is a standalone script (not part of the installed package),
so it is loaded by file path. The compare logic is covered with
hand-built snapshots; the suite itself is exercised end-to-end in smoke
mode against a tiny injected workload so the test stays fast.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def regression():
    spec = importlib.util.spec_from_file_location(
        "bench_regression", REPO_ROOT / "benchmarks" / "regression.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def snapshot(stages):
    return {"schema_version": 1, "stages": stages}


class TestCompare:
    def test_counter_increase_over_tolerance_is_regression(self, regression):
        base = snapshot({"g/s": {"edges_examined": 1_000, "bfs_count": 10}})
        cur = snapshot({"g/s": {"edges_examined": 1_500, "bfs_count": 10}})
        regs, warns = regression.compare(base, cur)
        assert len(regs) == 1 and "edges_examined" in regs[0]
        assert not warns

    def test_counter_within_tolerance_passes(self, regression):
        base = snapshot({"g/s": {"edges_examined": 1_000}})
        cur = snapshot({"g/s": {"edges_examined": 1_100}})
        regs, _ = regression.compare(base, cur)
        assert not regs

    def test_counter_decrease_is_fine(self, regression):
        base = snapshot({"g/s": {"bfs_count": 100}})
        cur = snapshot({"g/s": {"bfs_count": 50}})
        regs, _ = regression.compare(base, cur)
        assert not regs

    def test_exact_result_change_always_fails(self, regression):
        base = snapshot({"g/fdiam": {"diameter": 28}})
        cur = snapshot({"g/fdiam": {"diameter": 27}})
        regs, _ = regression.compare(base, cur)
        assert len(regs) == 1 and "diameter" in regs[0]

    def test_wall_time_warns_by_default(self, regression):
        base = snapshot({"g/s": {"wall_s": 0.1}})
        cur = snapshot({"g/s": {"wall_s": 1.0}})
        regs, warns = regression.compare(base, cur)
        assert not regs
        assert len(warns) == 1
        regs, warns = regression.compare(base, cur, strict_time=True)
        assert len(regs) == 1 and not warns

    def test_missing_stages_are_skipped(self, regression):
        base = snapshot({"g/a": {"bfs_count": 10}, "g/b": {"bfs_count": 10}})
        cur = snapshot({"g/a": {"bfs_count": 10}, "g/new": {"bfs_count": 99}})
        regs, warns = regression.compare(base, cur)
        assert not regs and not warns


class TestSuiteRoundTrip:
    def test_smoke_run_and_self_compare(self, regression, tmp_path, monkeypatch):
        # Shrink the pinned inputs to a tiny graph so this stays fast.
        from repro.generators import barabasi_albert
        from repro.harness.workloads import Workload, get_workload

        tiny = barabasi_albert(150, 2, seed=0)

        def tiny_workload(name):
            return Workload(
                name=name, graph=tiny, spec=get_workload.__globals__[
                    "PAPER_ANALOGS"
                ][name]
            )

        monkeypatch.setattr(regression, "get_workload", tiny_workload)
        snap = regression.run_suite(smoke=True, repeats=1, date="2000-01-01")
        assert snap["date"] == "2000-01-01"
        assert snap["graphs"]["internet"]["vertices"] == 150
        assert "internet/fdiam" in snap["stages"]
        assert "internet/spectrum_lanes64" in snap["stages"]
        assert snap["stages"]["internet/spectrum_lanes64"]["sweeps"] >= 1

        out = tmp_path / "bench.json"
        out.write_text(json.dumps(snap))
        regs, _ = regression.compare(json.loads(out.read_text()), snap)
        assert not regs

    def test_full_snapshot_includes_gather_ratio(self, regression, monkeypatch):
        from repro.generators import barabasi_albert
        from repro.harness.workloads import Workload, get_workload

        tiny = barabasi_albert(150, 2, seed=0)
        monkeypatch.setattr(
            regression,
            "get_workload",
            lambda name: Workload(
                name=name, graph=tiny, spec=get_workload.__globals__[
                    "PAPER_ANALOGS"
                ][name]
            ),
        )
        snap = regression.run_suite(
            smoke=False, repeats=1, graphs=("internet",), date="2000-01-01"
        )
        lanes = snap["stages"]["internet/spectrum_lanes64"]
        assert lanes["gather_pass_ratio_vs_scalar"] >= 4.0
        assert "edge_ratio_vs_scalar" in lanes


class TestCommittedBaseline:
    def test_baseline_file_is_valid(self, regression):
        # The committed snapshot the CI smoke job gates against.
        path = REPO_ROOT / "BENCH_2026-08-07.json"
        snap = json.loads(path.read_text())
        assert snap["schema_version"] == regression.SCHEMA_VERSION
        assert set(snap["graphs"]) == set(regression.FULL_GRAPHS) | set(
            regression.SCALE_GRAPHS
        )
        lanes = snap["stages"]["internet/spectrum_lanes64"]
        # Acceptance criterion: >= 4x fewer edge-gather passes on the
        # pinned power-law analog, with lane occupancy reported.
        assert lanes["gather_pass_ratio_vs_scalar"] >= 4.0
        assert 0 < lanes["lane_occupancy"] <= 1
        # Scale tier acceptance: byte-identical streaming encode within
        # the O(chunk) peak bound.
        for name in regression.SCALE_GRAPHS:
            enc = snap["stages"][f"{name}/store_stream_encode"]
            assert enc["byte_identical"] is True
            assert enc["encoder_peak_bytes"] < enc["encoder_peak_bound_bytes"]
        for record in snap["stages"].values():
            assert record["peak_rss_mb"] > 0

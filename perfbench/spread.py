"""Run the benchmark over several seeds and report each metric's spread.

The spread is (Q3 - Q1) / median of the per-run values, with the
quartiles of ``statistics.quantiles(values, n=4)``; a steady metric
keeps it below a third of its bound in ``BENCHMARK.json``.

Usage (from the repository root)::

    python3 perfbench/spread.py --workload mesh_churn --seeds 1-10 [--trace 1]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess

from lib import ROOT, quartile_spread


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        cmd = spec["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace),
        ]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        last = out.stdout.strip().splitlines()[-1:] or [""]
        if out.returncode != 0 or not last[0].startswith("{"):
            print(f"seed {seed}: exit {out.returncode}: {out.stderr.strip()[-500:]}")
            continue
        result = json.loads(last[0])
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']}")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, vals in values.items():
        spread = quartile_spread(vals) if len(vals) >= 2 else float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None else ("  ok" if spread < bound / 3 else "  ABOVE bound/3")
        print(f"{name:28s} median {statistics.median(vals):>12.6g}  spread {spread:.3f}{flag}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

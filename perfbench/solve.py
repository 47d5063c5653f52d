"""Cold exact-diameter solves through the public ``repro.fdiam`` API.

The solves run in a child process of their own (``python solve.py
[SPANS_JSON]``), so its peak RSS is the program's alone: the inputs are
generated, relabelled and audited here, in the benchmark's process.
The child reads one request per line on standard input, the analog
name and the path of its ``.scsr`` file; it opens the file with
``read_graph``, solves the fresh graph with prep off and then with
``prep="auto"``, and answers with one JSON line of walls, BFS counts
and diameters. Nothing derived from an earlier solve is reused
("cold"). With a spans path, the child installs the layer spans of
``tracing.py``, runs every solve untraced and then traced (the pair
gives the tracing overhead) and writes the spans there when its input
ends.

Each sample is an analog under its own vertex relabelling picked by
the seed, so an analog's median spans several labellings (start-vertex
ties move the BFS count of grid and road analogs by up to 2x). After
one sample of every analog, the analog with the least solve time so far
goes next: every analog gets an equal share of the time, so the cheap
ones are sampled more often.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from statistics import median

from lib import (
    HERE,
    ROOT,
    WORK,
    InvalidRun,
    expected_table,
    geomean,
    import_program,
    proc_peak_rss_mb,
    relabelled,
    write_input,
)

CONFIGS = ("plain", "auto")


class Solver:
    """Cold solves of ``names`` in a child process, run in slices of
    time by :meth:`run`; :meth:`close` stops the child."""

    def __init__(self, names, seed: int, *, trace_out=None):
        self.names, self.seed = tuple(names), seed
        self.expected = expected_table()
        self.walls = {kind: {name: [] for name in names} for kind in CONFIGS}
        self.untraced = {kind: {name: [] for name in names} for kind in CONFIGS}
        self.bfs = {kind: {name: [] for name in names} for kind in CONFIGS}
        self.reads = {name: [] for name in names}
        self.spent = {name: 0.0 for name in names}
        self.count = {name: 0 for name in names}
        self.attempted = self.failed = 0
        self.wrong: list[str] = []
        self.elapsed = 0.0
        self.peak_rss_mb = None
        logs = WORK / "logs"
        logs.mkdir(parents=True, exist_ok=True)
        self.stderr_path = logs / "solve.err"
        cmd = [sys.executable, str(HERE / "solve.py")]
        if trace_out is not None:
            cmd.append(str(trace_out))
        with open(self.stderr_path, "wb") as err:
            self.proc = subprocess.Popen(
                cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err,
                text=True, cwd=str(ROOT),
            )
        # Lazy imports and first-use allocations are paid once per
        # process, not per solve: warm them on the smallest analog.
        smallest = min(names, key=lambda name: self.expected[name]["vertices"])
        warm = write_input(relabelled(smallest, seed, -1), self._inputs(), smallest)
        self._request(smallest, warm)
        warm.unlink()

    def _inputs(self):
        return WORK / "inputs" / f"solve-{self.seed}"

    def _request(self, name, path) -> dict:
        """Both configs of one solve sample, from the child."""
        self.proc.stdin.write(json.dumps({"name": name, "path": str(path)}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise InvalidRun(f"solve process ended: {self.stderr_path.read_text()[-2000:]}")
        return json.loads(line)

    def run(self, seconds: float, *, finish: bool = False) -> None:
        """Solve for about ``seconds`` (none when it is not positive);
        with ``finish``, also until every analog has a sample."""
        t_start = time.perf_counter()
        while True:
            if time.perf_counter() - t_start >= seconds and (
                not finish or min(self.count.values()) > 0
            ):
                break
            name = min(self.names, key=lambda name: (self.count[name] > 0, self.spent[name]))
            path = write_input(relabelled(name, self.seed, self.count[name]), self._inputs(), name)
            answer = self._request(name, path)
            path.unlink()
            want = self.expected[name]
            for kind in CONFIGS:
                sample = answer[kind]
                self.attempted += 1
                if sample["diameter"] != want["diameter"] or sample["vertices"] != want["vertices"]:
                    self.failed += 1
                    self.wrong.append(
                        f"{name} {kind} sample {self.count[name]}: diameter {sample['diameter']}, "
                        f"expected {want['diameter']}"
                    )
                self.reads[name].append(sample["read_s"])
                self.walls[kind][name].append(sample["wall_s"])
                self.bfs[kind][name].append(sample["bfs"])
                if "untraced_s" in sample:
                    self.untraced[kind][name].append(sample["untraced_s"])
                self.spent[name] += sample["wall_s"]
            self.count[name] += 1
        self.elapsed += time.perf_counter() - t_start

    def close(self) -> None:
        """Take the child's peak RSS, end its input and wait for it."""
        if self.proc.poll() is None:
            self.peak_rss_mb = proc_peak_rss_mb(self.proc.pid)
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()

    def result(self) -> dict:
        n = {name: self.expected[name]["vertices"] for name in self.names}
        vps = {
            kind: geomean(n[name] / median(self.walls[kind][name]) for name in self.names)
            for kind in CONFIGS
        }
        return {
            "samples": self.count,
            "solve_vps": vps["plain"],
            "solve_auto_vps": vps["auto"],
            # Opening every analog once: the sum of per-analog medians.
            "setup_s": sum(median(self.reads[name]) for name in self.names),
            "read_s": self.reads,
            "walls": self.walls,
            "untraced_walls": self.untraced,
            "bfs": self.bfs,
            "attempted": self.attempted,
            "failed": self.failed,
            "wrong": self.wrong,
            "elapsed_s": self.elapsed,
            "peak_rss_mb": self.peak_rss_mb,
        }


# ----------------------------------------------------------------------
# The child process
# ----------------------------------------------------------------------
def serve_solves(trace_out: str | None) -> None:
    """Answer solve requests from standard input until it ends."""
    import_program()
    from repro import fdiam
    from repro.core.config import FDiamConfig
    from repro.graph.io import read_graph

    configs = {"plain": None, "auto": FDiamConfig(prep="auto")}
    tracer = None
    if trace_out is not None:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        tracer.enabled = False
    # Answers go to the real standard output; anything the program
    # prints goes to standard error.
    reply, sys.stdout = sys.stdout, sys.stderr

    def solve(path, name, kind, traced):
        if traced:
            tracer.enabled = True
        t0 = time.perf_counter()
        graph = read_graph(path)
        t1 = time.perf_counter()
        if traced:
            with tracer.root("op.solve", graph=name, config=kind):
                result = fdiam(graph, configs[kind])
            tracer.enabled = False
        else:
            result = fdiam(graph, configs[kind])
        return {
            "read_s": t1 - t0,
            "wall_s": time.perf_counter() - t1,
            "bfs": result.stats.bfs_traversals,
            "diameter": result.diameter,
            "vertices": graph.num_vertices,
        }

    try:
        for line in sys.stdin:
            request = json.loads(line)
            answer = {}
            for kind in CONFIGS:
                untraced = solve(request["path"], request["name"], kind, False)
                if tracer is None:
                    answer[kind] = untraced
                else:
                    answer[kind] = solve(request["path"], request["name"], kind, True)
                    answer[kind]["untraced_s"] = untraced["wall_s"]
            reply.write(json.dumps(answer) + "\n")
            reply.flush()
    finally:
        if tracer is not None:
            tracer.dump(trace_out)


if __name__ == "__main__":
    serve_solves(sys.argv[1] if len(sys.argv) > 1 else None)

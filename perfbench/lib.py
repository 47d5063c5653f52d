"""Shared pieces of the benchmark: inputs, statistics, environment.

Everything here runs in the benchmark's own process. The program under
test is imported from ``src/`` of the checkout the benchmark sits in.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import statistics
import sys
import zlib
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout (listed in the root .gitignore).
WORK = ROOT / ".bench_build" / "perfbench"


class InvalidRun(RuntimeError):
    """The measurement itself is unusable (not the program's fault)."""


def import_program():
    """Put the checkout's ``src/`` first on the path and import it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise InvalidRun(f"no program sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro  # noqa: F401

    return repro


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def geomean(values) -> float:
    values = list(values)
    if not values or min(values) <= 0:
        raise ValueError("geomean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def percentile(samples, q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0..100) of ``samples``."""
    data = sorted(samples)
    if not data:
        raise ValueError("percentile of no samples")
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


#: A reported percentile needs at least this many samples beyond it.
TAIL_SAMPLES = 10


def tail_percentile(samples, q: float) -> float:
    """``percentile`` that refuses a tail with fewer than TAIL_SAMPLES
    samples past it: p99 needs at least 1000 samples."""
    n = len(samples)
    if n * (100.0 - q) / 100.0 < TAIL_SAMPLES:
        raise InvalidRun(
            f"p{q:g} needs {TAIL_SAMPLES} samples beyond it; have {n} samples"
        )
    return percentile(samples, q)


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, as the acceptance check computes it."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def latency_from_due(due: float, done: float) -> float:
    """Open-loop latency: from when a request was due, not when sent."""
    return done - due


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def source_hash() -> str:
    """Digest of the program sources: keys every cached input."""
    h = hashlib.sha1()
    for path in sorted((SRC / "repro").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:12]


def sub_seed(seed: int, *labels) -> int:
    """A 32-bit seed derived from ``seed`` and string/int labels."""
    key = [seed] + [
        zlib.crc32(str(label).encode()) for label in labels
    ]
    import numpy as np

    return int(np.random.SeedSequence(key).generate_state(1)[0])


_BASE: dict[str, object] = {}


def base_analog(name: str):
    """The registry analog ``name``, cached as ``.npz`` in the checkout.

    Generating all 17 analogs takes ~10 s; that is the generator's cost,
    not the program's, so it is paid once per checkout.
    """
    if name in _BASE:
        return _BASE[name]
    from repro.generators.registry import build_analog
    from repro.graph.io import load_npz, save_npz

    path = WORK / "analogs" / source_hash() / f"{name}.npz"
    if path.exists():
        graph = load_npz(path).with_name(name)
    else:
        graph = build_analog(name)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.stem}.{os.getpid()}.tmp.npz")
        save_npz(graph, tmp)
        os.replace(tmp, path)
    _BASE[name] = graph
    return graph


def relabelled(name: str, seed: int, salt: int):
    """Analog ``name`` under the vertex relabelling picked by the seed.

    Seed 0 keeps the registry's own labels. Relabelling never changes
    the diameter, so one expected table serves every seed. The
    permutation is the one ``repro.generators.perturb.permute_vertices``
    draws, applied to the CSR arrays directly: several times faster
    than rebuilding the graph from its edge list, and the same graph.
    """
    graph = base_analog(name)
    if seed == 0:
        return graph
    import numpy as np
    from repro.graph.csr import CSRGraph

    n = graph.num_vertices
    perm = np.random.default_rng(sub_seed(seed, name, salt)).permutation(n).astype(np.int64)
    old = np.argsort(perm)  # new id -> old id
    degrees = np.diff(graph.indptr)[old]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    rows = np.repeat(np.arange(n, dtype=np.int64), degrees)
    arcs = np.arange(len(graph.indices), dtype=np.int64) + (graph.indptr[old] - indptr[:-1])[rows]
    keys = rows * n + perm[graph.indices[arcs]]
    keys.sort()
    return CSRGraph(indptr, (keys % n).astype(graph.indices.dtype), name=name)


def write_input(graph, directory: Path, name: str) -> Path:
    """Write ``graph`` as a ``.scsr`` file the program then opens."""
    from repro.store import save_scsr

    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{name}.scsr"
    save_scsr(graph, path)
    return path


def expected_table() -> dict:
    return json.loads((HERE / "expected.json").read_text())


# ----------------------------------------------------------------------
# Processes and environment
# ----------------------------------------------------------------------
def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, in MB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise InvalidRun(f"no VmHWM for pid {pid}")


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def fingerprint(seed: int) -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": nproc(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": _git_commit(),
        "source_hash": source_hash(),
        "seed": seed,
    }

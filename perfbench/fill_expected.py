"""Fill ``expected.json``: exact diameters of the paper analogs.

The table is filled once, by :func:`exact.exact_diameter`, which shares
no code with the program under test. A vertex relabelling does not
change the diameter, so the table holds for every benchmark seed.

Run from the repository root (takes a few minutes)::

    python3 perfbench/fill_expected.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from exact import exact_diameter  # noqa: E402
from repro.generators.registry import PAPER_ANALOGS, build_analog  # noqa: E402


def main() -> int:
    table = {}
    for name in PAPER_ANALOGS:
        graph = build_analog(name)
        table[name] = {
            "vertices": int(graph.num_vertices),
            "arcs": int(len(graph.indices)),
            "diameter": exact_diameter(graph.indptr, graph.indices),
        }
        print(name, table[name], flush=True)
    (HERE / "expected.json").write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

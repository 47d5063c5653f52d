"""Differential fuzzing and invariant-oracle subsystem.

Four PRs of independently-toggleable machinery — BFS engines, prep
stages, warm-cache seams, lane batching, the batched query engine —
multiply into a configuration lattice no hand-written test matrix
covers. This package turns cross-configuration agreement and the
paper's pruning theorems into machine-checked properties:

* :mod:`repro.verify.oracle` — the invariant oracle attached to a run
  via ``FDiamConfig(verify=True)``. It precomputes reference BFS
  distances and asserts, at every stage transition, that lower/upper
  bounds sandwich the true eccentricities, that Winnow stays inside
  the ``⌊bound/2⌋`` ball (Theorems 2–3), that Eliminate never writes
  past the ``bound - ecc`` radius (Theorem 1), that chain-tip
  dominance holds, and that a witness of the true diameter is never
  discarded.
* :mod:`repro.verify.differential` — one fuzz trial: sample a graph,
  run the full config lattice (engines × prep × cache warm/cold ×
  tip batching × QueryEngine) plus two baselines, and report any
  disagreement on diameter, connectivity flag, eccentricities, or
  per-query distances.
* :mod:`repro.verify.metamorphic` — relabeling invariance, edge
  additions never increasing (and deletions never decreasing) any
  distance, insert-then-delete identity through the dynamic overlay,
  and disjoint-union composition.
* :mod:`repro.verify.mutation` — the differential *mutation* fuzzer:
  random insert/delete/query interleavings over
  :mod:`repro.dynamic`, replayed against recompute-from-scratch after
  every batch, with ddmin trace shrinking (``repro fuzz --mutate``).
* :mod:`repro.verify.shrink` — ddmin failure minimization by vertex
  and edge deletion, plus the replayable ``.npz`` + seed artifacts.
* :mod:`repro.verify.runner` — the budgeted fuzz loop behind the
  ``repro fuzz`` CLI subcommand and the CI ``fuzz-smoke`` job.
* :mod:`repro.verify.faults` — deliberate fault injection used to
  prove the oracle actually catches the bug classes it claims to.

This package sits *above* :mod:`repro.core`: core modules only ever
reach it through call-time imports guarded by ``config.verify``.
"""

from repro.verify.differential import (
    CONFIG_LATTICE,
    Disagreement,
    reference_eccentricities,
    run_trial,
)
from repro.verify.faults import available_faults, inject_fault
from repro.verify.metamorphic import (
    check_disjoint_union,
    check_edge_addition_monotone,
    check_edge_deletion_monotone,
    check_insert_delete_identity,
    check_relabel_invariance,
)
from repro.verify.mutation import (
    MutationFailure,
    MutationStep,
    MutationTrace,
    fuzz_mutation,
    run_mutation_trace,
    sample_trace,
    shrink_trace,
    write_trace_artifact,
)
from repro.verify.oracle import InvariantOracle
from repro.verify.runner import FuzzFailure, FuzzResult, fuzz, replay
from repro.verify.shrink import (
    ddmin_edges,
    ddmin_vertices,
    load_artifact,
    shrink_failure,
    write_artifact,
)

__all__ = [
    "CONFIG_LATTICE",
    "Disagreement",
    "FuzzFailure",
    "FuzzResult",
    "InvariantOracle",
    "MutationFailure",
    "MutationStep",
    "MutationTrace",
    "available_faults",
    "check_disjoint_union",
    "check_edge_addition_monotone",
    "check_edge_deletion_monotone",
    "check_insert_delete_identity",
    "check_relabel_invariance",
    "ddmin_edges",
    "ddmin_vertices",
    "fuzz",
    "fuzz_mutation",
    "inject_fault",
    "load_artifact",
    "reference_eccentricities",
    "replay",
    "run_mutation_trace",
    "run_trial",
    "sample_trace",
    "shrink_failure",
    "shrink_trace",
    "write_artifact",
    "write_trace_artifact",
]

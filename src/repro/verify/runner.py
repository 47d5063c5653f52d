"""The budgeted fuzz loop: sample → battery → shrink → artifact.

:func:`fuzz` drives everything the rest of the package provides. Each
trial derives its own seed from the campaign seed, samples a graph
from :func:`repro.generators.registry.build_fuzz_graph`, and runs
:func:`repro.verify.differential.run_trial` (config lattice with the
invariant oracle attached, baselines, cache cold/warm, query engine,
metamorphic relations). A trial that reports disagreements is shrunk
with ddmin under a label-matched predicate — the minimized graph must
still produce a disagreement with the *same label*, so the shrinker
cannot wander onto an unrelated failure — and written out as a
replayable ``.npz`` + ``.json`` artifact.

Trials are fully determined by their integer seed: rerunning with the
same campaign seed replays the identical graph sequence, query
batches, and metamorphic mutations, which is what makes the CI
fuzz-smoke job and ``--replay`` debugging reliable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.graph.csr import CSRGraph
from repro.verify.differential import Disagreement, run_trial

__all__ = ["FuzzFailure", "FuzzResult", "fuzz", "replay"]

#: Offset mixed into the campaign seed so trial seeds never collide
#: with the raw campaign seeds users type (0, 1, 2, ...).
_TRIAL_STRIDE = 0x9E3779B1


@dataclass(frozen=True)
class FuzzFailure:
    """One failing trial, after (optional) minimization."""

    trial_seed: int
    graph_name: str
    family: str
    disagreements: tuple[Disagreement, ...]
    original_vertices: int
    shrunk_vertices: int
    shrunk_edges: int
    artifact: Path | None

    def __str__(self) -> str:
        first = self.disagreements[0]
        where = f" -> {self.artifact}" if self.artifact else ""
        return (
            f"seed={self.trial_seed} {self.graph_name} "
            f"({self.original_vertices} -> {self.shrunk_vertices} vertices, "
            f"{self.shrunk_edges} edges): {first}{where}"
        )


@dataclass
class FuzzResult:
    """Campaign summary returned by :func:`fuzz`."""

    seed: int
    trials: int = 0
    elapsed: float = 0.0
    families: dict[str, int] = field(default_factory=dict)
    failures: list[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def _trial_rng(trial_seed: int) -> np.random.Generator:
    # Distinct stream from the graph sampler, same determinism.
    return np.random.default_rng((trial_seed, 0xF02D))


def _labels(disagreements: list[Disagreement]) -> set[str]:
    return {d.label for d in disagreements}


def _make_predicate(trial_seed: int, labels: set[str]):
    """Candidate graph still fails with one of the original labels?

    Re-running the whole battery per candidate is affordable because
    shrinking only ever sees graphs at or below the fuzz size cap, and
    the label match keeps ddmin anchored to the original bug instead of
    hill-climbing onto a different (possibly spurious) disagreement.
    """

    def predicate(candidate: CSRGraph) -> bool:
        found = run_trial(candidate, _trial_rng(trial_seed))
        return bool(_labels(found) & labels)

    return predicate


def _shrink_and_record(
    graph: CSRGraph,
    family: str,
    trial_seed: int,
    disagreements: list[Disagreement],
    *,
    shrink: bool,
    artifact_dir: str | Path | None,
) -> FuzzFailure:
    from repro.verify.shrink import shrink_failure, write_artifact

    minimized = graph
    if shrink:
        predicate = _make_predicate(trial_seed, _labels(disagreements))
        try:
            minimized = shrink_failure(graph, predicate)
        except ValueError:
            # Flaky reproduction (should not happen with seeded trials);
            # fall back to the unshrunk graph rather than lose the report.
            minimized = graph
    artifact = None
    if artifact_dir is not None:
        first = disagreements[0]
        artifact = write_artifact(
            artifact_dir,
            minimized,
            seed=trial_seed,
            label=first.label,
            message=str(first),
            original_vertices=graph.num_vertices,
        )
    return FuzzFailure(
        trial_seed=trial_seed,
        graph_name=graph.name,
        family=family,
        disagreements=tuple(disagreements),
        original_vertices=graph.num_vertices,
        shrunk_vertices=minimized.num_vertices,
        shrunk_edges=minimized.num_edges,
        artifact=artifact,
    )


def fuzz(
    *,
    seed: int = 0,
    budget: float = 60.0,
    max_trials: int | None = None,
    max_vertices: int = 64,
    artifact_dir: str | Path | None = None,
    shrink: bool = True,
    max_failures: int = 5,
    progress=None,
) -> FuzzResult:
    """Run a differential fuzz campaign; stop on budget or trial count.

    ``budget`` is wall-clock seconds; the loop checks it between
    trials, so an in-flight trial may overshoot slightly. ``max_trials``
    (when given) caps the number of trials regardless of remaining
    budget. The campaign stops early once ``max_failures`` distinct
    failing trials have been minimized — by then the signal is "the
    build is broken", not "find more examples". ``progress`` is an
    optional callable receiving one status line per trial.
    """
    from repro.generators.registry import build_fuzz_graph

    started = time.monotonic()
    result = FuzzResult(seed=seed)
    trial = 0
    while True:
        result.elapsed = time.monotonic() - started
        if result.elapsed >= budget:
            break
        if max_trials is not None and trial >= max_trials:
            break
        if len(result.failures) >= max_failures:
            break
        trial_seed = seed + trial * _TRIAL_STRIDE
        graph, family = build_fuzz_graph(trial_seed, max_vertices=max_vertices)
        result.families[family] = result.families.get(family, 0) + 1
        disagreements = run_trial(graph, _trial_rng(trial_seed))
        if disagreements:
            failure = _shrink_and_record(
                graph,
                family,
                trial_seed,
                disagreements,
                shrink=shrink,
                artifact_dir=artifact_dir,
            )
            result.failures.append(failure)
            if progress is not None:
                progress(f"FAIL {failure}")
        elif progress is not None and trial % 25 == 0:
            progress(
                f"trial {trial} ok ({family}, "
                f"{time.monotonic() - started:.1f}s elapsed)"
            )
        trial += 1
    result.trials = trial
    result.elapsed = time.monotonic() - started
    return result


def replay(path: str | Path, *, seed: int | None = None) -> list[Disagreement]:
    """Re-run the full battery on a saved failure artifact.

    Uses the seed recorded in the ``.json`` sidecar unless overridden,
    so the replay exercises the exact query batch and metamorphic
    mutations of the original trial. Mutation-fuzz artifacts (whose
    sidecar embeds a ``trace``) replay the recorded insert/delete/query
    interleaving through :func:`repro.verify.mutation
    .run_mutation_trace` instead of the static battery.
    """
    from repro.verify.shrink import load_artifact

    graph, meta = load_artifact(path)
    if seed is None:
        seed = int(meta.get("seed", 0))
    if "trace" in meta:
        from repro.verify.mutation import (
            MutationTrace,
            run_mutation_trace,
            steps_from_json,
        )

        trace = MutationTrace(graph=graph, steps=steps_from_json(meta["trace"]))
        return run_mutation_trace(trace)
    return run_trial(graph, _trial_rng(seed))

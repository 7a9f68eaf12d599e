"""Episodic evaluation, ablation sweeps, and report emission.

Evaluation runs seeded episodes through the refinement classifier and
aggregates per-episode accuracies (mean and 95% confidence interval over
episodes), per-class recalls binned by that class's support shot, and a
histogram of refinement iteration counts.

Ablation grids report one evaluation per cell of a config product. Every
cell reuses the same episode seeds, so episode i is the identical task in
every cell and differences are attributable to the method config alone.
The min/max step bounds only decide where refinement stops, so each
(rule, query count, repeat, episode) is sampled and refined once, far
enough for every cell, and each cell reads its stopping point off that
trajectory. A call starts at most one worker pool, which receives the
dataset once per worker.

Reports serialize deterministically: fixed key order, floats rendered
with 17 significant digits. Identical inputs give byte-identical files
regardless of worker-pool width, because per-episode results come back
in job order and are reduced only after all episodes finish.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import itertools
import json
import math
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .classification import AssignmentRule
from .data import EmbeddingDataset
from .errors import MahashotError
from .numerics import _pin_single_blas_thread, _single_blas_thread
from .refinement import RefineConfig, _stops, refine
from .sampler import SamplerConfig, sample_task

REPORT_FORMATS = ("json", "csv")

# Shots above this share one ">N" recall bin.
SHOT_BIN_MAX = 10

GRID_CSV_HEADER = (
    "min_steps",
    "max_steps",
    "rule",
    "query_per_class",
    "mean_acc",
    "ci95",
    "episodes",
)


class EpisodeFailure(MahashotError):
    """A sampler or refinement error aborted the run; carries the episode index."""

    def __init__(self, index: int, cause: Exception | str):
        super().__init__(f"episode {index} failed: {cause}")
        self.index = index
        self.cause = str(cause)

    def __reduce__(self):
        # Rebuilt from the cause's text: a pool worker's failure must
        # unpickle in the parent even when the cause itself would not.
        return type(self), (self.index, self.cause)


@dataclass(frozen=True)
class EpisodeOutcome:
    """Per-episode measurements."""

    accuracy: float
    iterations_run: int
    converged_early: bool
    shot_recalls: tuple[tuple[int, float], ...]  # (class shot, class recall)


@dataclass(frozen=True)
class EvalReport:
    episodes: int
    per_episode_accuracy: tuple[float, ...]
    mean_accuracy: float
    ci95: float
    recall_bins: dict[str, tuple[float, int]]  # bin -> (mean recall, count)
    iteration_histogram: dict[int, int]
    converged_early_rate: float
    method: str
    config: dict


@dataclass(frozen=True)
class GridCell:
    min_steps: int
    max_steps: int
    rule: str
    query_per_class: int
    report: EvalReport


@dataclass(frozen=True)
class AblationSpec:
    """Axes and shared settings of an ablation grid.

    Cells with a nominal ``min_steps`` above ``max_steps`` run with the
    effective minimum clamped down to ``max_steps``, so the grid is always
    the full product of the axes.
    """

    min_steps: tuple[int, ...] = (2,)
    max_steps: tuple[int, ...] = (4,)
    rules: tuple[str, ...] = ("mahalanobis-softmax",)
    query_per_class: tuple[int, ...] = (10,)
    episodes: int = 100
    repeats: int = 5
    seed: int = 0
    beta: float = 1.0

    def __post_init__(self):
        if self.episodes < 1 or self.repeats < 1:
            raise ValueError("episodes and repeats must be >= 1")


@dataclass(frozen=True)
class AblationGrid:
    axes: dict
    cells: tuple[GridCell, ...]


def _trajectory(
    ds: EmbeddingDataset, sampler_cfg: SamplerConfig, refine_cfg: RefineConfig, index: int
) -> list[EpisodeOutcome]:
    """Per-iteration outcomes of one refinement run: item t-1 is the outcome
    had it stopped after iteration t, with ``converged_early`` True iff
    iteration t repeats the labels of t-1 (t = 1: iff no query rows)."""
    try:
        task = sample_task(ds, sampler_cfg, index)
        trace = refine(task, refine_cfg)
    except MahashotError as exc:
        raise EpisodeFailure(index, exc) from exc
    shots = task.class_counts()
    per_class = np.bincount(task.truth, minlength=task.way)
    history = trace.labels_per_iteration
    steps = []
    for t, labels in enumerate(history, 1):
        hits = labels == task.truth
        class_hits = np.bincount(task.truth, weights=hits, minlength=task.way)
        recalls = tuple(
            (int(shots[k]), float(class_hits[k] / per_class[k])) for k in np.flatnonzero(per_class)
        )
        stable = task.n_query == 0 or (t > 1 and np.array_equal(labels, history[t - 2]))
        steps.append(EpisodeOutcome(float(np.mean(hits)), t, stable, recalls))
    return steps


def _stop(steps: list[EpisodeOutcome], cfg: RefineConfig) -> EpisodeOutcome:
    """The outcome of ``refine`` under ``cfg``, read off the steps of a run
    that went at least as far, by ``refine``'s own stop rule."""
    reached = steps[: cfg.max_steps]
    for o in reached:
        if _stops(o.iterations_run, o.converged_early, cfg.min_steps):
            return o
    # Its labels do not repeat: at max_steps >= min_steps a repeat stops, and a
    # trajectory cut short stopped there under a min_steps no smaller than cfg's.
    return reached[-1]


# Set once per pool worker, so the dataset is not pickled into every job.
_worker_dataset: EmbeddingDataset | None = None


def _init_worker(ds: EmbeddingDataset) -> None:
    global _worker_dataset
    _worker_dataset = ds
    # A forked worker inherits the parent's single thread and sets nothing;
    # one started afresh (spawn, forkserver) begins at the default count.
    _pin_single_blas_thread()


def _episode_chunk(episodes) -> list[list[EpisodeOutcome]]:
    return [_trajectory(_worker_dataset, *episode) for episode in episodes]


def _trajectories(
    ds: EmbeddingDataset,
    runs: list[tuple[SamplerConfig, RefineConfig]],
    n_episodes: int,
    parallelism: int,
) -> list[list[EpisodeOutcome]]:
    """Steps of episodes ``0..n_episodes-1`` of every run, run-major."""
    if parallelism < 1:
        raise ValueError(f"parallelism must be >= 1, got {parallelism}")
    episodes = [(s, r, i) for s, r in runs for i in range(n_episodes)]
    if parallelism == 1 or len(episodes) < 2:
        return [_trajectory(ds, *episode) for episode in episodes]
    n = min(len(episodes), 4 * parallelism)
    chunks = [episodes[j * len(episodes) // n : (j + 1) * len(episodes) // n] for j in range(n)]
    # Forked workers all start at the first submit, so start no idle ones.
    workers = min(parallelism, len(chunks))
    # The pool is the parallelism: BLAS is pinned to one thread in the
    # parent, so forked workers inherit one thread.
    with _single_blas_thread(), ProcessPoolExecutor(
        workers, initializer=_init_worker, initargs=(ds,)
    ) as pool:
        # map yields in job order, whichever worker finishes first.
        return [steps for part in pool.map(_episode_chunk, chunks) for steps in part]


def _aggregate(outcomes: list[EpisodeOutcome], method: str, config: dict) -> EvalReport:
    acc = np.array([o.accuracy for o in outcomes])
    mean = float(acc.mean())
    ci95 = 0.0 if acc.size < 2 else float(1.96 * acc.std(ddof=1) / math.sqrt(acc.size))

    # Bin b holds shot b, and the last bin every larger shot. Recalls are
    # added one at a time in episode order: sum() compensates on Python
    # >= 3.12 and would change the report's bytes.
    totals = [0.0] * (SHOT_BIN_MAX + 2)
    counts = [0] * (SHOT_BIN_MAX + 2)
    for o in outcomes:
        for shot, recall in o.shot_recalls:
            b = min(shot, SHOT_BIN_MAX + 1)
            totals[b] += recall
            counts[b] += 1
    labels = [str(b) for b in range(SHOT_BIN_MAX + 1)] + [f">{SHOT_BIN_MAX}"]
    recall_bins = {
        labels[b]: (totals[b] / counts[b], counts[b]) for b in range(len(counts)) if counts[b]
    }
    histogram = dict(sorted(Counter(o.iterations_run for o in outcomes).items()))

    return EvalReport(
        episodes=len(outcomes),
        per_episode_accuracy=tuple(o.accuracy for o in outcomes),
        mean_accuracy=mean,
        ci95=ci95,
        recall_bins=recall_bins,
        iteration_histogram=histogram,
        converged_early_rate=float(np.mean([o.converged_early for o in outcomes])),
        method=method,
        config=config,
    )


def _cell(
    steps: list[list[EpisodeOutcome]],
    sampler_cfg: SamplerConfig,
    refine_cfg: RefineConfig,
    method: str,
    **echo,
) -> EvalReport:
    """The report of ``refine_cfg`` over episodes' steps. Its config echo
    holds the sampler, the refine config, then ``echo`` in order."""
    rule = refine_cfg.rule
    config = {
        "sampler": dataclasses.asdict(sampler_cfg),
        "refine": {
            "min_steps": refine_cfg.min_steps,
            "max_steps": refine_cfg.max_steps,
            "rule": rule.kind,
            "prior": list(rule.prior) if rule.prior is not None else None,
            "beta": refine_cfg.beta,
        },
        **echo,
        "shot_bin_max": SHOT_BIN_MAX,
    }
    return _aggregate([_stop(s, refine_cfg) for s in steps], method, config)


def evaluate(
    ds: EmbeddingDataset,
    sampler_cfg: SamplerConfig,
    refine_cfg: RefineConfig,
    n_episodes: int,
    *,
    parallelism: int = 1,
) -> EvalReport:
    """Evaluate the refinement classifier over ``n_episodes`` seeded episodes.

    Episode i is drawn from the sampler config's seed, so paired
    comparisons share their episode stream by sharing that seed. Reports
    are deterministic for fixed inputs at any ``parallelism``.
    """
    if n_episodes < 1:
        raise ValueError(f"n_episodes must be >= 1, got {n_episodes}")
    steps = _trajectories(ds, [(sampler_cfg, refine_cfg)], n_episodes, parallelism)
    method = f"{refine_cfg.rule.kind}(min={refine_cfg.min_steps},max={refine_cfg.max_steps})"
    return _cell(steps, sampler_cfg, refine_cfg, method, episodes=n_episodes)


def run_ablation(
    ds: EmbeddingDataset,
    sampler_cfg: SamplerConfig,
    spec: AblationSpec,
    *,
    parallelism: int = 1,
) -> AblationGrid:
    """One evaluation per cell of the axis product, on paired episode seeds.

    Each cell pools ``spec.repeats`` runs seeded ``spec.seed + r``; the
    same seeds are reused in every cell, so comparisons across cells are
    paired episode by episode. The step bounds only decide where a
    trajectory stops, so cells that differ only in them share one.
    """
    # Every cell's config is built, and so validated, before any episode runs.
    grid = [
        (mn, mx, kind, qpc, RefineConfig(min(mn, mx), mx, AssignmentRule(kind), spec.beta))
        for mn, mx, kind, qpc in itertools.product(
            spec.min_steps, spec.max_steps, spec.rules, spec.query_per_class
        )
    ]
    # One trajectory per (rule, query count, repeat, episode), long enough
    # for every cell: the largest clamped min is min(max(mins), max(maxes)).
    longest_max = max(spec.max_steps, default=1)
    longest = (min(max(spec.min_steps, default=0), longest_max), longest_max)
    streams = list(dict.fromkeys((rule_kind, qpc) for _, _, rule_kind, qpc, _ in grid))
    runs = [
        (
            dataclasses.replace(sampler_cfg, query_per_class=qpc, seed=spec.seed + r),
            RefineConfig(*longest, rule=AssignmentRule(kind=rule_kind), beta=spec.beta),
        )
        for rule_kind, qpc in streams
        for r in range(spec.repeats)
    ]
    steps = _trajectories(ds, runs, spec.episodes, parallelism)
    n = spec.repeats * spec.episodes
    pooled = {stream: steps[i * n : (i + 1) * n] for i, stream in enumerate(streams)}

    cells = []
    for mn, mx, rule_kind, qpc, refine_cfg in grid:
        report = _cell(
            pooled[rule_kind, qpc],
            dataclasses.replace(sampler_cfg, query_per_class=qpc),
            refine_cfg,
            f"{rule_kind}(min={mn},max={mx},q={qpc})",
            episodes=spec.episodes,
            repeats=spec.repeats,
            seed=spec.seed,
        )
        cells.append(GridCell(mn, mx, rule_kind, qpc, report))
    return AblationGrid(axes=dataclasses.asdict(spec), cells=tuple(cells))


# ---------------------------------------------------------------------------
# Deterministic serialization


def _float_repr(x: float) -> str:
    return format(float(x), ".17g")


def _to_json(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _float_repr(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_to_json(v) for v in value) + "]"
    if isinstance(value, dict):
        items = (f"{json.dumps(str(k))}:{_to_json(v)}" for k, v in value.items())
        return "{" + ",".join(items) + "}"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def report_to_dict(report: EvalReport) -> dict:
    """Fixed-key-order dict form of a report (the JSON schema)."""
    return {
        "episodes": report.episodes,
        "mean_accuracy": report.mean_accuracy,
        "ci95": report.ci95,
        "converged_early_rate": report.converged_early_rate,
        "method": report.method,
        "config": report.config,
        "iteration_histogram": {str(k): v for k, v in report.iteration_histogram.items()},
        "recall_bins": {
            k: {"mean": m, "count": c} for k, (m, c) in report.recall_bins.items()
        },
        "per_episode_accuracy": list(report.per_episode_accuracy),
    }


def grid_to_dict(grid: AblationGrid) -> dict:
    return {
        "axes": grid.axes,
        "cells": [
            {
                "min_steps": c.min_steps,
                "max_steps": c.max_steps,
                "rule": c.rule,
                "query_per_class": c.query_per_class,
                "report": report_to_dict(c.report),
            }
            for c in grid.cells
        ],
    }


def _cell_row(cell: GridCell) -> list[str]:
    return [
        str(cell.min_steps),
        str(cell.max_steps),
        cell.rule,
        str(cell.query_per_class),
        _float_repr(cell.report.mean_accuracy),
        _float_repr(cell.report.ci95),
        str(cell.report.episodes),
    ]


def _report_as_single_cell(report: EvalReport) -> GridCell:
    rc, sc = report.config["refine"], report.config["sampler"]
    return GridCell(rc["min_steps"], rc["max_steps"], rc["rule"], sc["query_per_class"], report)


def render_report(obj: EvalReport | AblationGrid, format: str) -> str:
    """Deterministic JSON or CSV text for a report or grid.

    JSON carries the full report schema; CSV is one row per grid cell
    (a lone report is treated as a single-cell grid).
    """
    if format not in REPORT_FORMATS:
        raise ValueError(f"unknown report format {format!r}; expected one of {REPORT_FORMATS}")
    if format == "json":
        payload = report_to_dict(obj) if isinstance(obj, EvalReport) else grid_to_dict(obj)
        return _to_json(payload) + "\n"
    cells = [_report_as_single_cell(obj)] if isinstance(obj, EvalReport) else list(obj.cells)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(GRID_CSV_HEADER)
    for cell in cells:
        writer.writerow(_cell_row(cell))
    return out.getvalue()


def emit_report(obj: EvalReport | AblationGrid, format: str, path) -> None:
    """Write :func:`render_report` output to ``path``."""
    text = render_report(obj, format)
    with open(path, "w", newline="") as fh:
        fh.write(text)

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
trajectory. Reports are reduced once per stream, one (rule, query count)
run of episodes: cells that stop every episode at the same step share one
aggregate, and each cell gets its own method and config echo.
``evaluate`` is the one-cell case of the same reduce.

At ``parallelism`` N a call runs its episodes in at most N
processes: its own, which runs the last share, and at most N - 1 worker
processes started for the call. Each worker runs one contiguous share of
the head of the job list, fixed when it starts, and sends its results back
over its own pipe. Workers follow multiprocessing's process-wide start
method: under fork nothing is pickled to a worker; under spawn or
forkserver the dataset and the share are pickled once per worker.

Reports serialize deterministically: fixed key order, floats rendered
with 17 significant digits. Identical inputs give byte-identical files
regardless of ``parallelism``, because per-episode results are joined
in job order and reduced only after all episodes finish.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import itertools
import json
import math
import multiprocessing
from collections import Counter

# Unused here. Only perfbench's traced run reads it, to install its pool
# hook, until that hook moves to the worker start (ROADMAP item 2).
from concurrent.futures import ProcessPoolExecutor  # noqa: F401
from dataclasses import dataclass

import numpy as np

from .classification import AssignmentRule
from .data import EmbeddingDataset
from .errors import MahashotError
from .numerics import _pin_single_blas_thread, _single_blas_thread
from .refinement import RefineConfig, _stop_at, refine
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
    """An episode's measurements had refinement stopped after ``iterations_run``."""

    accuracy: float
    iterations_run: int
    repeated: bool  # RefineTrace.repeated of iteration iterations_run
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
        self._cells()  # each cell's config checks its step bounds, rule and beta

    def _cells(self) -> list[tuple[int, int, str, int, RefineConfig]]:
        """Each cell's (min_steps, max_steps, rule, query count, refine config), in grid order."""
        return [
            (mn, mx, kind, qpc, RefineConfig(min(mn, mx), mx, AssignmentRule(kind), self.beta))
            for mn, mx, kind, qpc in itertools.product(
                self.min_steps, self.max_steps, self.rules, self.query_per_class
            )
        ]


@dataclass(frozen=True)
class AblationGrid:
    axes: dict
    cells: tuple[GridCell, ...]


def _trajectory(
    ds: EmbeddingDataset, sampler_cfg: SamplerConfig, refine_cfg: RefineConfig, index: int
) -> list[EpisodeOutcome]:
    """Per-iteration outcomes of one refinement run: item t-1 is the outcome
    had it stopped after iteration t, with the trace's repeat flag for t."""
    try:
        task = sample_task(ds, sampler_cfg, index)
        # Embeddings near the float64 limit overflow the class scatter, which
        # estimation reports as NonFiniteInput; numpy's warning would repeat it.
        with np.errstate(over="ignore", invalid="ignore"):
            trace = refine(task, refine_cfg)
    except MahashotError as exc:
        raise EpisodeFailure(index, exc) from exc
    shots = task.class_counts()
    per_class = np.bincount(task.truth, minlength=task.way)
    steps = []
    for t, (labels, repeated) in enumerate(zip(trace.labels_per_iteration, trace.repeated), 1):
        hits = labels == task.truth
        class_hits = np.bincount(task.truth, weights=hits, minlength=task.way)
        recalls = tuple(
            (int(shots[k]), float(class_hits[k] / per_class[k])) for k in np.flatnonzero(per_class)
        )
        steps.append(EpisodeOutcome(float(np.mean(hits)), t, repeated, recalls))
    return steps


def _episode_chunk(job) -> list[list[EpisodeOutcome]]:
    """Steps of each episode of a ``(dataset, episodes)`` pool job."""
    ds, episodes = job
    return [_trajectory(ds, *episode) for episode in episodes]


def _worker(ds: EmbeddingDataset, share, conn) -> None:
    """Body of a pool worker: its share's steps, or the exception that
    stopped them, go back to the caller over the worker's own pipe."""
    try:
        # A forked worker inherits the parent's single thread and sets
        # nothing; one started afresh (spawn, forkserver) begins at the
        # default count.
        _pin_single_blas_thread()
        result = _episode_chunk((ds, share))
    except Exception as exc:  # raised by the caller, in job order
        result = exc
    conn.send(result)
    conn.close()


def _worker_result(first: int, proc, recv):
    """What a worker sent, or the failure of the episode its share starts
    with if it exited without sending anything."""
    try:
        return recv.recv()
    except EOFError:
        proc.join()
        return EpisodeFailure(first, f"pool worker exited with code {proc.exitcode}")


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
    # The calling process is one of the workers. Each of the others runs one
    # contiguous share of the head of the job list, while the caller runs
    # the tail, a 1/workers share.
    workers = min(parallelism, len(episodes))
    split = len(episodes) * (workers - 1) // workers
    bounds = [j * split // (workers - 1) for j in range(workers)]
    ctx = multiprocessing.get_context()
    pool = []
    # BLAS is pinned to one thread in the caller, for its own share and so
    # that forked workers inherit one thread.
    with _single_blas_thread():
        try:
            for lo, hi in zip(bounds, bounds[1:]):
                recv, send = ctx.Pipe(duplex=False)
                with send:
                    proc = ctx.Process(target=_worker, args=(ds, episodes[lo:hi], send))
                    proc.start()
                pool.append((episodes[lo][2], proc, recv))
            try:
                tail = [_trajectory(ds, *episode) for episode in episodes[split:]]
            except Exception as exc:
                tail = exc
            # Every worker's result is read before any failure is raised, so
            # that no worker is left writing into a closed pipe.
            parts = [_worker_result(*worker) for worker in pool] + [tail]
        except BaseException:
            for _, proc, _ in pool:
                proc.terminate()
            raise
        finally:
            for _, proc, recv in pool:
                proc.join()
                recv.close()
    # The parts are in job order, so the first failure is the one a serial
    # run would raise.
    for part in parts:
        if isinstance(part, Exception):
            raise part
    return [steps for part in parts for steps in part]


def _aggregate(outcomes: list[EpisodeOutcome]) -> EvalReport:
    """The statistics of ``outcomes``, with a blank method and config echo."""
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
        converged_early_rate=float(np.mean([o.repeated for o in outcomes])),
        method="",
        config={},
    )


def _reporter(steps: list[list[EpisodeOutcome]], sampler_cfg: SamplerConfig, **echo):
    """Report maker for one stream: one sampler config's episodes' steps.

    ``report(refine_cfg, method)`` is the report of ``refine_cfg`` over the
    steps. Cells that stop every episode at the same step share one
    aggregate; each report still gets its own mutable parts, and a config
    echo of the sampler, the refine config, then ``echo`` in order.
    """
    sampler = dataclasses.asdict(sampler_cfg)
    flags = [[o.repeated for o in s] for s in steps]
    shared: dict[tuple[int, ...], EvalReport] = {}

    def report(refine_cfg: RefineConfig, method: str) -> EvalReport:
        stops = tuple(_stop_at(f, refine_cfg) for f in flags)
        if stops not in shared:
            picked = [s[t - 1] for s, t in zip(steps, stops)]
            shared[stops] = _aggregate(picked)
        stats = shared[stops]
        config = {
            "sampler": dict(sampler),
            "refine": {
                "min_steps": refine_cfg.min_steps,
                "max_steps": refine_cfg.max_steps,
                "rule": refine_cfg.rule.kind,
                "prior": None,  # gmm's prior is uniform; the key keeps the report schema
                "beta": refine_cfg.beta,
            },
            **echo,
            "shot_bin_max": SHOT_BIN_MAX,
        }
        return dataclasses.replace(
            stats,
            recall_bins=dict(stats.recall_bins),
            iteration_histogram=dict(stats.iteration_histogram),
            method=method,
            config=config,
        )

    return report


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
    return _reporter(steps, sampler_cfg, episodes=n_episodes)(refine_cfg, method)


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
    paired episode by episode. ``sampler_cfg.seed`` is not used: each
    cell's sampler echo carries ``spec.seed``, the first run's seed. The
    step bounds only decide where a trajectory stops, so cells that differ
    only in them share one.
    """
    grid = spec._cells()
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
    reporters = {
        (rule_kind, qpc): _reporter(
            steps[i * n : (i + 1) * n],
            dataclasses.replace(sampler_cfg, query_per_class=qpc, seed=spec.seed),
            episodes=spec.episodes,
            repeats=spec.repeats,
            seed=spec.seed,
        )
        for i, (rule_kind, qpc) in enumerate(streams)
    }
    cells = [
        GridCell(
            mn, mx, rule_kind, qpc,
            reporters[rule_kind, qpc](refine_cfg, f"{rule_kind}(min={mn},max={mx},q={qpc})"),
        )
        for mn, mx, rule_kind, qpc, refine_cfg in grid
    ]
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
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(text)

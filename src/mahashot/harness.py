"""Episodic evaluation, ablation sweeps, and report emission.

Evaluation runs seeded episodes through the refinement classifier and
aggregates per-episode accuracies (mean and 95% confidence interval over
episodes), per-class recalls binned by that class's support shot, and a
histogram of refinement iteration counts.

Ablation grids run one evaluation per cell of a config product. Every
cell reuses the same episode seeds, so episode i is the identical task in
every cell and differences are attributable to the method config alone.

Reports serialize deterministically: fixed key order, floats rendered
with 17 significant digits. Identical inputs give byte-identical files
regardless of worker-pool width, because per-episode results land in
index-addressed slots and are reduced only after all episodes finish.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import itertools
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .classification import AssignmentRule
from .data import EmbeddingDataset
from .errors import MahashotError
from .refinement import RefineConfig, refine
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

    def __init__(self, index: int, cause: Exception):
        super().__init__(f"episode {index} failed: {cause}")
        self.index = index


@dataclass(frozen=True)
class EpisodeOutcome:
    """Per-episode measurements, keyed by episode index."""

    index: int
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


def _run_episode(
    ds: EmbeddingDataset, sampler_cfg: SamplerConfig, refine_cfg: RefineConfig, index: int
) -> EpisodeOutcome:
    try:
        task = sample_task(ds, sampler_cfg, index)
        trace = refine(task, refine_cfg)
    except MahashotError as exc:
        raise EpisodeFailure(index, exc) from exc
    labels = trace.labels_per_iteration[-1]
    accuracy = float(np.mean(labels == task.truth))
    shots = task.class_counts()
    recalls = []
    for k in range(task.way):
        mask = task.truth == k
        if not mask.any():
            continue
        recalls.append((int(shots[k]), float(np.mean(labels[mask] == k))))
    return EpisodeOutcome(
        index=index,
        accuracy=accuracy,
        iterations_run=trace.iterations_run,
        converged_early=trace.converged_early,
        shot_recalls=tuple(recalls),
    )


def _episode_chunk(args) -> list[EpisodeOutcome]:
    ds, sampler_cfg, refine_cfg, indices = args
    return [_run_episode(ds, sampler_cfg, refine_cfg, i) for i in indices]


def _collect(
    ds: EmbeddingDataset,
    sampler_cfg: SamplerConfig,
    refine_cfg: RefineConfig,
    indices: list[int],
    parallelism: int,
) -> list[EpisodeOutcome]:
    if parallelism <= 1 or len(indices) < 2:
        outcomes = _episode_chunk((ds, sampler_cfg, refine_cfg, indices))
    else:
        n_chunks = min(len(indices), 4 * parallelism)
        chunks = [c.tolist() for c in np.array_split(indices, n_chunks)]
        jobs = [(ds, sampler_cfg, refine_cfg, c) for c in chunks if c]
        with ProcessPoolExecutor(max_workers=parallelism) as pool:
            outcomes = [o for part in pool.map(_episode_chunk, jobs) for o in part]
    # Index-addressed reduction: aggregation order never depends on
    # completion order.
    return sorted(outcomes, key=lambda o: o.index)


def _bin_label(shot: int) -> str:
    return str(shot) if shot <= SHOT_BIN_MAX else f">{SHOT_BIN_MAX}"


def _aggregate(outcomes: list[EpisodeOutcome], method: str, config: dict) -> EvalReport:
    acc = np.array([o.accuracy for o in outcomes])
    mean = float(acc.mean())
    ci95 = 0.0 if acc.size < 2 else float(1.96 * acc.std(ddof=1) / math.sqrt(acc.size))

    bin_sum: dict[str, float] = {}
    bin_count: dict[str, int] = {}
    for o in outcomes:
        for shot, recall in o.shot_recalls:
            label = _bin_label(shot)
            bin_sum[label] = bin_sum.get(label, 0.0) + recall
            bin_count[label] = bin_count.get(label, 0) + 1

    def bin_key(label: str):
        return (1, 0) if label.startswith(">") else (0, int(label))

    recall_bins = {
        label: (bin_sum[label] / bin_count[label], bin_count[label])
        for label in sorted(bin_sum, key=bin_key)
    }

    histogram: dict[int, int] = {}
    for o in outcomes:
        histogram[o.iterations_run] = histogram.get(o.iterations_run, 0) + 1
    histogram = {k: histogram[k] for k in sorted(histogram)}

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


def _refine_config_echo(cfg: RefineConfig) -> dict:
    return {
        "min_steps": cfg.min_steps,
        "max_steps": cfg.max_steps,
        "rule": cfg.rule.kind,
        "prior": list(cfg.rule.prior) if cfg.rule.prior is not None else None,
        "beta": cfg.beta,
    }


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
    outcomes = _collect(ds, sampler_cfg, refine_cfg, list(range(n_episodes)), parallelism)
    method = f"{refine_cfg.rule.kind}(min={refine_cfg.min_steps},max={refine_cfg.max_steps})"
    config = {
        "sampler": dataclasses.asdict(sampler_cfg),
        "refine": _refine_config_echo(refine_cfg),
        "episodes": n_episodes,
        "shot_bin_max": SHOT_BIN_MAX,
    }
    return _aggregate(outcomes, method, config)


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
    paired episode by episode.
    """
    cells = []
    for mn, mx, rule_kind, qpc in itertools.product(
        spec.min_steps, spec.max_steps, spec.rules, spec.query_per_class
    ):
        refine_cfg = RefineConfig(
            min_steps=min(mn, mx),
            max_steps=mx,
            rule=AssignmentRule(kind=rule_kind),
            beta=spec.beta,
        )
        cell_sampler = dataclasses.replace(sampler_cfg, query_per_class=qpc)
        outcomes = []
        for r in range(spec.repeats):
            run_sampler = dataclasses.replace(cell_sampler, seed=spec.seed + r)
            outcomes.extend(
                _collect(ds, run_sampler, refine_cfg, list(range(spec.episodes)), parallelism)
            )
        config = {
            "sampler": dataclasses.asdict(cell_sampler),
            "refine": _refine_config_echo(refine_cfg),
            "episodes": spec.episodes,
            "repeats": spec.repeats,
            "seed": spec.seed,
            "shot_bin_max": SHOT_BIN_MAX,
        }
        method = f"{rule_kind}(min={mn},max={mx},q={qpc})"
        report = _aggregate(outcomes, method, config)
        cells.append(
            GridCell(
                min_steps=mn, max_steps=mx, rule=rule_kind, query_per_class=qpc, report=report
            )
        )
    axes = {
        "min_steps": list(spec.min_steps),
        "max_steps": list(spec.max_steps),
        "rules": list(spec.rules),
        "query_per_class": list(spec.query_per_class),
        "episodes": spec.episodes,
        "repeats": spec.repeats,
        "seed": spec.seed,
        "beta": spec.beta,
    }
    return AblationGrid(axes=axes, cells=tuple(cells))


# ---------------------------------------------------------------------------
# Deterministic serialization


def _float_repr(x: float) -> str:
    return format(float(x), ".17g")


def _to_json(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
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
    rc = report.config.get("refine", {})
    sc = report.config.get("sampler", {})
    return GridCell(
        min_steps=rc.get("min_steps", -1),
        max_steps=rc.get("max_steps", -1),
        rule=rc.get("rule", ""),
        query_per_class=sc.get("query_per_class", -1),
        report=report,
    )


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

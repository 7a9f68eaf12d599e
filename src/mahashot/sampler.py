"""Episodic task sampling from an embedding dataset.

Two protocols:

* variable way/shot: the way is uniform on [way_min, way_max] (clamped to
  the class count), each class sets aside up to ``query_per_class`` query
  examples first, then draws a uniform shot from what remains, and the
  per-class shots are rescaled proportionally if their total exceeds
  ``support_cap``.
* fixed L-shot K-way: exactly K classes, L support and ``query_per_class``
  query examples each.

Episode ``index`` under seed ``s`` is generated from a Philox stream with
key ``s`` and counter block ``index``, so any episode can be produced
independently, in any order, on any worker, with no sequential state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import EmbeddingDataset, Task
from .errors import InsufficientClasses, InsufficientExamples, InvalidSpec


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise InvalidSpec("seed must be nonnegative")
    if seed >= 2**128:  # the width of a Philox key
        raise InvalidSpec(f"seed must be below 2**128, got {seed}")


@dataclass(frozen=True)
class VariableSamplerConfig:
    way_min: int = 5
    way_max: int = 50
    shot_min: int = 1
    shot_max: int = 100
    query_per_class: int = 10
    support_cap: int = 500
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.way_min <= self.way_max:
            raise InvalidSpec("need 1 <= way_min <= way_max")
        if not 1 <= self.shot_min <= self.shot_max:
            raise InvalidSpec("need 1 <= shot_min <= shot_max")
        if self.query_per_class < 1 or self.support_cap < 1:
            raise InvalidSpec("query_per_class and support_cap must be positive")
        if self.support_cap < self.way_min:
            raise InvalidSpec(
                f"support_cap {self.support_cap} cannot hold one example for each of"
                f" way_min {self.way_min} classes"
            )
        _check_seed(self.seed)


@dataclass(frozen=True)
class FixedSamplerConfig:
    way: int
    shot: int
    query_per_class: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.way < 2:
            raise InvalidSpec(f"way must be >= 2, got {self.way}")
        if self.shot < 1:
            raise InvalidSpec(f"shot must be >= 1, got {self.shot}")
        if self.query_per_class < 1:
            raise InvalidSpec("query_per_class must be >= 1")
        _check_seed(self.seed)


def episode_rng(seed: int, index: int) -> np.random.Generator:
    """Independent generator for episode ``index`` of stream ``seed``.

    Counter-based: same key for the whole stream, a disjoint 2**128 counter
    block per episode.
    """
    index = int(index)  # numpy ints overflow the 256-bit counter shift
    if index < 0:
        raise InvalidSpec("episode index must be nonnegative")
    return np.random.Generator(np.random.Philox(key=seed, counter=index << 128))


def _rescale_shots(shots: np.ndarray, cap: int) -> np.ndarray:
    """Shrink shots proportionally to fit ``cap``, keeping every class >= 1."""
    total = int(shots.sum())
    if total <= cap:
        return shots
    if cap < shots.size:
        raise InsufficientExamples(
            f"support cap {cap} cannot hold one example for each of {shots.size} classes"
        )
    scaled = np.maximum(1, (shots * cap) // total)
    # The >=1 floor can overshoot the cap; trim the largest shots first.
    while scaled.sum() > cap:
        scaled[np.argmax(scaled)] -= 1
    return scaled


def _task(blocks: list[tuple[np.ndarray, np.ndarray]], class_names: tuple[str, ...]) -> Task:
    """The task whose class k has support rows ``blocks[k][0]`` and query
    rows ``blocks[k][1]``, stacked class-major."""
    support, query = zip(*blocks)
    local = np.arange(len(blocks))
    return Task(
        support_z=np.vstack(support),
        support_y=np.repeat(local, [rows.shape[0] for rows in support]),
        query_z=np.vstack(query),
        truth=np.repeat(local, [rows.shape[0] for rows in query]),
        way=len(blocks),
        class_names=class_names,
    )


def sample_variable(
    ds: EmbeddingDataset, cfg: VariableSamplerConfig, index: int
) -> Task:
    """Draw the variable-way/shot episode ``index``."""
    names = ds.class_names
    if len(names) < cfg.way_min:
        raise InsufficientClasses(
            f"dataset has {len(names)} classes, sampler needs >= {cfg.way_min}"
        )
    rng = episode_rng(cfg.seed, index)

    way_cap = min(cfg.way_max, len(names))
    way = int(rng.integers(cfg.way_min, way_cap + 1))
    chosen = rng.choice(len(names), size=way, replace=False)

    avail = np.array([ds.classes[names[c]].shape[0] for c in chosen])
    # Query examples are reserved first; they shrink below query_per_class
    # only when the class is too small, and never below 1.
    n_query = np.minimum(cfg.query_per_class, avail - 1)
    if np.any(n_query < 1):
        starved = names[chosen[int(np.argmin(n_query))]]
        raise InsufficientExamples(
            f"class {starved!r} needs at least 2 examples (1 support + 1 query)"
        )
    remaining = avail - n_query
    highs = np.minimum(cfg.shot_max, remaining)
    lows = np.minimum(cfg.shot_min, highs)
    shots = np.array(
        [int(rng.integers(lo, hi + 1)) for lo, hi in zip(lows, highs)]
    )
    shots = _rescale_shots(shots, cfg.support_cap)

    blocks = []
    for c, q_c, s_c in zip(chosen, n_query, shots):
        rows = ds.classes[names[c]]
        perm = rng.permutation(rows.shape[0])
        blocks.append((rows[perm[q_c : q_c + s_c]], rows[perm[:q_c]]))
    return _task(blocks, tuple(names[c] for c in chosen))


def sample_fixed(ds: EmbeddingDataset, cfg: FixedSamplerConfig, index: int) -> Task:
    """Draw the fixed K-way L-shot episode ``index``."""
    names = ds.class_names
    if len(names) < cfg.way:
        raise InsufficientClasses(
            f"dataset has {len(names)} classes, sampler needs >= {cfg.way}"
        )
    need = cfg.shot + cfg.query_per_class
    rng = episode_rng(cfg.seed, index)
    chosen = rng.choice(len(names), size=cfg.way, replace=False)

    blocks = []
    for c in chosen:
        rows = ds.classes[names[c]]
        if rows.shape[0] < need:
            raise InsufficientExamples(
                f"class {names[c]!r} has {rows.shape[0]} examples, needs {need}"
            )
        perm = rng.permutation(rows.shape[0])
        blocks.append((rows[perm[: cfg.shot]], rows[perm[cfg.shot : need]]))
    return _task(blocks, tuple(names[c] for c in chosen))


SamplerConfig = VariableSamplerConfig | FixedSamplerConfig


def sample_task(ds: EmbeddingDataset, cfg: SamplerConfig, index: int) -> Task:
    """Dispatch on the config type."""
    if isinstance(cfg, VariableSamplerConfig):
        return sample_variable(ds, cfg, index)
    if isinstance(cfg, FixedSamplerConfig):
        return sample_fixed(ds, cfg, index)
    raise InvalidSpec(f"unknown sampler config type {type(cfg).__name__}")


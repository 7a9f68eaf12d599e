"""Independent reference for the benchmark's output checks.

A second, plain-numpy implementation of what the workloads compute:
episode sampling (same Philox streams and draw order as the library),
shrinkage estimation through ``np.cov`` weights, Mahalanobis distances
through ``np.linalg.solve``, and the refinement stop rule. It is used for
seeds with no recorded reference, and ``record.py`` checks it against the
library on every recorded seed.

Only the ``mahalanobis-softmax`` rule is implemented, which is the rule
every workload uses. Hard labels from here and from the library agree
unless two class distances tie to within rounding.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

EPS_COUNT = 1e-8


def _episode_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed, counter=int(index) << 128))


def _episode(picks):
    """Stack (support, support labels, query, truth) from per-class
    (rows, query_idx, support_idx) picks."""
    sz, sy, qz, qy = [], [], [], []
    for local, (rows, q_idx, s_idx) in enumerate(picks):
        sz.append(rows[s_idx])
        sy.append(np.full(len(s_idx), local))
        qz.append(rows[q_idx])
        qy.append(np.full(len(q_idx), local))
    return np.vstack(sz), np.concatenate(sy), np.vstack(qz), np.concatenate(qy)


def sample_fixed(blocks, way: int, shot: int, query: int, seed: int, index: int):
    rng = _episode_rng(seed, index)
    chosen = rng.choice(len(blocks), size=way, replace=False)
    picks = []
    for c in chosen:
        perm = rng.permutation(blocks[c].shape[0])
        picks.append((blocks[c], perm[shot : shot + query], perm[:shot]))
    return _episode(picks) + (way,)


def sample_variable(blocks, *, way_min, way_max, shot_min, shot_max, query, cap, seed, index):
    rng = _episode_rng(seed, index)
    way = int(rng.integers(way_min, min(way_max, len(blocks)) + 1))
    chosen = rng.choice(len(blocks), size=way, replace=False)
    avail = np.array([blocks[c].shape[0] for c in chosen])
    n_query = np.minimum(query, avail - 1)
    highs = np.minimum(shot_max, avail - n_query)
    lows = np.minimum(shot_min, highs)
    shots = np.array([int(rng.integers(lo, hi + 1)) for lo, hi in zip(lows, highs)])
    total = int(shots.sum())
    if total > cap:
        shots = np.maximum(1, (shots * cap) // total)
        while shots.sum() > cap:
            shots[np.argmax(shots)] -= 1
    picks = []
    for c, q_c, s_c in zip(chosen, n_query, shots):
        perm = rng.permutation(blocks[c].shape[0])
        picks.append((blocks[c], perm[:q_c], perm[q_c : q_c + s_c]))
    return _episode(picks) + (way,)


def _class_params(z: np.ndarray, w: np.ndarray, beta: float):
    """Means and blended covariances from weighted rows ``z`` (rows x d)."""
    counts = w.sum(axis=0)
    if counts.min() < EPS_COUNT:
        raise ArithmeticError("degenerate soft count")
    sigma = np.cov(z.T, aweights=w.sum(axis=1), bias=True)
    eye = np.eye(z.shape[1])
    params = []
    for k in range(w.shape[1]):
        mu = np.average(z, axis=0, weights=w[:, k])
        sigma_k = np.cov(z.T, aweights=w[:, k], bias=True)
        lam = counts[k] / (counts[k] + 1.0)
        params.append((mu, lam * sigma_k + (1.0 - lam) * sigma + beta * eye))
    return params


def _soft_labels(params, x: np.ndarray):
    d2 = np.empty((x.shape[0], len(params)))
    for k, (mu, q) in enumerate(params):
        diff = (x - mu).T
        d2[:, k] = np.sum(diff * np.linalg.solve(q, diff), axis=0)
    e = np.exp(-d2 + d2.min(axis=1, keepdims=True))
    probs = e / e.sum(axis=1, keepdims=True)
    return probs, np.argmax(probs, axis=1)


def trajectory(episode, steps: int, beta: float = 1.0) -> list[np.ndarray]:
    """Hard query labels after each of ``steps`` refinement iterations,
    with no early stop."""
    support_z, support_y, query_z, _truth, way = episode
    onehot = np.eye(way)[support_y]
    probs, labels = _soft_labels(_class_params(support_z, onehot, beta), query_z)
    history = [labels]
    z = np.vstack([support_z, query_z])
    for _ in range(steps - 1):
        w = np.vstack([onehot, probs])
        probs, labels = _soft_labels(_class_params(z, w, beta), query_z)
        history.append(labels)
    return history


def stop(history: list[np.ndarray], min_steps: int, max_steps: int):
    """(iterations run, converged early) under the refinement stop rule."""
    it = 1
    while it < max_steps:
        it += 1
        if np.array_equal(history[it - 1], history[it - 2]) and it >= min_steps:
            return it, True
    return it, False


def accuracy(labels: np.ndarray, truth: np.ndarray) -> float:
    return float(np.mean(labels == truth))


def mean_ci95(acc: list[float]) -> tuple[float, float]:
    a = np.array(acc)
    ci95 = 0.0 if a.size < 2 else float(1.96 * a.std(ddof=1) / math.sqrt(a.size))
    return float(a.mean()), ci95


def grid_csv(rows: list[tuple]) -> bytes:
    """CSV bytes of (min, max, rule, q, accuracies) grid rows."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(
        ("min_steps", "max_steps", "rule", "query_per_class", "mean_acc", "ci95", "episodes")
    )
    for mn, mx, rule, q, acc in rows:
        mean, ci95 = mean_ci95(acc)
        writer.writerow(
            [mn, mx, rule, q, format(mean, ".17g"), format(ci95, ".17g"), len(acc)]
        )
    return out.getvalue().encode("utf-8")

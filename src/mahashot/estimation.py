"""Class-parameter estimation, plain and responsibility-weighted.

Both estimators are one kernel over rows and a (rows, K) weight matrix.
The support-only estimate weights the support rows one-hot by label; the
weighted one stacks support and query rows under the responsibilities, so
it reduces exactly to the former on an empty query set. Each class sums
only over the rows it gives nonzero weight: O(n d^2) support-only,
O((n + K m) d^2) weighted, plus padding to each block's longest class.
Classes are estimated and factorized in stacked blocks of bounded size;
a block in which some class needs jitter falls back one class at a time.
Covariance divisors are population-style (n, not n - 1) throughout.

The shrinkage blend for class k with (soft) count c is
``Q_k = lam * Sigma_k + (1 - lam) * Sigma + beta * I`` with
``lam = c / (c + 1)``: singleton classes lean on the task covariance,
example-rich classes on their own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Task
from .errors import DegenerateClass, DimensionMismatch
# The jitter fallback looks ``spd_factorize`` up here at call time: perfbench's traced run wraps it.
from .numerics import SpdFactor, _factorize_stack, spd_factorize

# Soft class counts below this are useless as divisors; estimation raises
# DegenerateClass. Refinement never meets it: support rows are one-hot, so
# every soft count there is at least 1.
EPS_COUNT = 1e-8

# Floats a block of classes may gather (classes x widest class rows x d):
# one or two classes a block at d = 128, a whole low-shot task at d = 16.
_BLOCK_FLOATS = 1 << 16


@dataclass(frozen=True)
class ClassParams:
    """Per-class mean, regularized covariance, its SPD factor, and the
    (possibly soft) example count behind them.

    ``sigma_k`` is the class-conditional sample covariance before the
    shrinkage blend; kept for inspection and oracle comparison.
    """

    mu: np.ndarray  # (d,)
    q: np.ndarray  # (d, d)
    q_factor: SpdFactor
    count: float
    sigma_k: np.ndarray  # (d, d)


@dataclass(frozen=True)
class TaskStats:
    """Task-level mean and covariance that the shrinkage blend pulls toward."""

    mu: np.ndarray  # (d,)
    sigma: np.ndarray  # (d, d)


@dataclass(frozen=True)
class Responsibilities:
    """Row-stochastic (n + m) x K weight matrix over support then query rows.

    Rows 0..n-1 are support examples in task order and are one-hot on the
    true label; rows n..n+m-1 are query examples in task order. Build
    instances through :meth:`build` so the support one-hot invariant holds
    by construction.
    """

    w: np.ndarray  # (n + m, K)
    n_support: int

    def __post_init__(self):
        w = np.ascontiguousarray(self.w, dtype=np.float64)
        object.__setattr__(self, "w", w)
        if w.ndim != 2:
            raise DimensionMismatch("responsibilities must be a 2-d matrix")
        if not 0 <= self.n_support <= w.shape[0]:
            raise DimensionMismatch("n_support out of range")
        # The comparisons are written so that NaN fails them.
        if not np.all((w >= 0.0) & (w <= 1.0)):
            raise ValueError("responsibilities must lie in [0, 1]")
        if not np.all(np.abs(w.sum(axis=1) - 1.0) <= 1e-9):
            raise ValueError("responsibility rows must sum to 1 within 1e-9")

    @classmethod
    def build(cls, task: Task, query_probs: np.ndarray) -> "Responsibilities":
        """One-hot support rows from the task labels, given query rows."""
        query_probs = np.asarray(query_probs, dtype=np.float64)
        if query_probs.shape != (task.n_query, task.way):
            raise DimensionMismatch(
                f"query_probs shape {query_probs.shape} != ({task.n_query}, {task.way})"
            )
        w = np.zeros((task.n_support + task.n_query, task.way))
        w[np.arange(task.n_support), task.support_y] = 1.0
        w[task.n_support :] = query_probs
        return cls(w=w, n_support=task.n_support)

    @property
    def way(self) -> int:
        return self.w.shape[1]

    @property
    def support(self) -> np.ndarray:
        return self.w[: self.n_support]

    @property
    def query(self) -> np.ndarray:
        return self.w[self.n_support :]


def _blocks(nnz: list[int], d: int):
    """Split classes, in label order, into runs ``(k0, k1, width)`` that
    gather at most ``_BLOCK_FLOATS`` floats each; ``width`` is the run's
    largest row count. A class over the limit runs alone."""
    k0 = 0
    while k0 < len(nnz):
        k1, width = k0 + 1, nnz[k0]
        while k1 < len(nnz) and (k1 + 1 - k0) * max(width, nnz[k1]) * d <= _BLOCK_FLOATS:
            width = max(width, nnz[k1])
            k1 += 1
        yield k0, k1, width
        k0 = k1


def _estimate(z: np.ndarray, w: np.ndarray, beta: float) -> tuple[list[ClassParams], TaskStats]:
    """Class parameters and task statistics of rows ``z`` under weights ``w``."""
    if beta < 0:
        raise ValueError(f"beta must be >= 0, got {beta}")
    counts = w.sum(axis=0)  # soft count per class
    low = np.flatnonzero(counts < EPS_COUNT)
    if low.size:
        raise DegenerateClass(int(low[0]), float(counts[low[0]]))
    total = counts.sum()

    # Task mean and covariance, weighted by each row's total responsibility
    # (1 for stochastic rows, but the literal double sum is kept).
    row_weight = w.sum(axis=1)
    mu_task = (row_weight @ z) / total
    centered = z - mu_task
    sigma = (centered * row_weight[:, None]).T @ centered / total
    sigma = 0.5 * (sigma + sigma.T)

    ridge = beta * np.eye(z.shape[1])
    # Rows a class gives zero weight would only add exact zeros, so each class
    # gathers its nonzero-weight rows: class k's are rows[start[k]:][:nnz[k]].
    classes, rows = np.nonzero(w.T)
    nnz = np.bincount(classes, minlength=w.shape[1])
    start = np.cumsum(nnz) - nnz
    params = []
    for k0, k1, width in _blocks(nnz.tolist(), z.shape[1]):
        # Pad each class to the block's widest with weight-0 copies of its
        # first row, which add exact zeros to every sum.
        slot = np.arange(width)
        real = slot < nnz[k0:k1, None]
        idx = rows[start[k0:k1, None] + np.where(real, slot, 0)]  # (B, width)
        wb = np.where(real, w[idx, np.arange(k0, k1)[:, None]], 0.0)
        zb = z[idx]  # (B, width, d)
        count = counts[k0:k1, None]
        mu = (wb[:, None, :] @ zb)[:, 0] / count
        centered_b = zb - mu[:, None, :]
        sigma_k = (centered_b * wb[..., None]).transpose(0, 2, 1) @ centered_b / count[..., None]
        lam = (count / (count + 1.0))[..., None]
        q = lam * sigma_k + (1.0 - lam) * sigma + ridge
        q = 0.5 * (q + q.transpose(0, 2, 1))  # kill rounding asymmetry from the matmuls
        stacked = _factorize_stack(q)
        if stacked is None:  # some class needs jitter, or q is not finite
            factors = [spd_factorize(qk) for qk in q]
        else:
            factors = [SpdFactor(lower=f, logdet=float(g), jitter=0.0) for f, g in zip(*stacked)]
        params += [
            ClassParams(mu=mu[b], q=q[b], q_factor=f, count=float(count[b, 0]), sigma_k=sigma_k[b])
            for b, f in enumerate(factors)
        ]
    return params, TaskStats(mu=mu_task, sigma=sigma)


def estimate_unweighted(task: Task, beta: float = 1.0) -> tuple[list[ClassParams], TaskStats]:
    """Support-only estimates of class means and regularized covariances.

    Returns one :class:`ClassParams` per class (in label order) and the
    task-level :class:`TaskStats` the shrinkage pulled toward.
    """
    return _estimate(task.support_z, np.eye(task.way)[task.support_y], beta)


def estimate_weighted(
    task: Task, resp: Responsibilities, beta: float = 1.0
) -> tuple[list[ClassParams], TaskStats]:
    """Responsibility-weighted estimates over support and query rows jointly.

    The rows are the support rows then the query rows, and the soft counts
    are column sums of the responsibility matrix. With an empty query set
    and one-hot support rows this reproduces :func:`estimate_unweighted`.

    Raises
    ------
    DegenerateClass
        If any soft count falls below ``EPS_COUNT``.
    """
    n_rows = task.n_support + task.n_query
    if resp.w.shape != (n_rows, task.way):
        raise DimensionMismatch(
            f"responsibilities shape {resp.w.shape} != ({n_rows}, {task.way})"
        )
    if resp.n_support != task.n_support:
        raise DimensionMismatch(
            f"responsibilities split at {resp.n_support} rows, task has {task.n_support} support"
        )
    return _estimate(np.vstack([task.support_z, task.query_z]), resp.w, beta)

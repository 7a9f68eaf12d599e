"""Class-parameter estimation, plain and responsibility-weighted.

Both estimators are one kernel over rows and a (rows, K) weight matrix.
The support-only estimate weights the support rows one-hot by label; the
weighted one stacks support and query rows under the responsibilities, so
it reduces exactly to the former on an empty query set. Each class sums
only over the rows it gives nonzero weight: O(n d^2) support-only,
O((n + K m) d^2) weighted. Covariance divisors are population-style
(n, not n - 1) throughout.

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
# Unchecked (``_estimate`` symmetrizes q), under the name the kernel looks up.
from .numerics import SpdFactor, _factorize as spd_factorize

# Soft class counts below this are useless as divisors; estimation raises
# DegenerateClass. Refinement never meets it: support rows are one-hot, so
# every soft count there is at least 1.
EPS_COUNT = 1e-8


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
        support = np.zeros((task.n_support, task.way))
        support[np.arange(task.n_support), task.support_y] = 1.0
        return cls(w=np.vstack([support, query_probs]), n_support=task.n_support)

    @property
    def way(self) -> int:
        return self.w.shape[1]

    @property
    def support(self) -> np.ndarray:
        return self.w[: self.n_support]

    @property
    def query(self) -> np.ndarray:
        return self.w[self.n_support :]


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

    eye = np.eye(z.shape[1])
    ridge = beta * eye
    params = []
    for k in range(w.shape[1]):
        # Rows the class gives zero weight would only add exact zeros.
        rows = np.flatnonzero(w[:, k])
        wk, zk = w[rows, k], z[rows]
        count = float(counts[k])
        mu_k = (wk @ zk) / count
        centered_k = zk - mu_k
        sigma_k = (centered_k * wk[:, None]).T @ centered_k / count
        lam = count / (count + 1.0)
        q = lam * sigma_k + (1.0 - lam) * sigma + ridge
        q = 0.5 * (q + q.T)  # kill rounding asymmetry from the matmuls
        params.append(
            ClassParams(mu=mu_k, q=q, q_factor=spd_factorize(q, eye), count=count, sigma_k=sigma_k)
        )
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

"""Dense fixed-dimension linear algebra and numerically stable primitives.

Everything operates on float64 numpy arrays. Inverse matrices are never
formed explicitly: applications of ``Q**-1`` go through the Cholesky
factor held in :class:`SpdFactor` (triangular solves only). This matters
because few-shot covariance estimates are routinely near-singular.

All functions are pure; values are safe to share across workers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .errors import (
    DimensionMismatch,
    EmptyInput,
    FactorizationFailed,
    NonFiniteInput,
    NotSymmetric,
)

# The beta=1 ridge normally guarantees positive definiteness; the tail of
# the schedule exists for beta=0 runs on degenerate tasks.
DEFAULT_JITTER = (0.0, 1e-8, 1e-6, 1e-4)

SYMMETRY_ATOL = 1e-8


@dataclass(frozen=True)
class SpdFactor:
    """Cholesky factorization Q = L @ L.T of a symmetric positive-definite matrix.

    Attributes
    ----------
    lower : ndarray of shape (d, d)
        Lower-triangular factor with strictly positive diagonal.
    logdet : float
        log|Q|, cached as 2 * sum(log(diag(lower))).
    jitter : float
        The ridge epsilon that was added to the diagonal before
        factorization succeeded (0.0 in the common case).
    """

    lower: np.ndarray
    logdet: float
    jitter: float

    @property
    def dim(self) -> int:
        return self.lower.shape[0]


def spd_factorize(q: np.ndarray, jitter_schedule=DEFAULT_JITTER) -> SpdFactor:
    """Factorize a symmetric matrix, escalating through a jitter schedule.

    Tries Cholesky on ``q + eps * I`` for each ``eps`` in the schedule in
    order and returns the factor for the first success.

    Raises
    ------
    NotSymmetric
        If ``q`` deviates from symmetry by more than 1e-8 absolute.
    FactorizationFailed
        If every jitter value is exhausted.
    """
    q = np.asarray(q, dtype=np.float64)
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {q.shape}")
    if not np.all(np.isfinite(q)):
        raise NonFiniteInput("matrix contains NaN or Inf")
    if np.max(np.abs(q - q.T), initial=0.0) > SYMMETRY_ATOL:
        raise NotSymmetric(
            f"matrix is asymmetric beyond {SYMMETRY_ATOL:g} absolute tolerance"
        )

    eye = np.eye(q.shape[0])
    for eps in jitter_schedule:
        try:
            lower = np.linalg.cholesky(q + eps * eye)
        except np.linalg.LinAlgError:
            continue
        logdet = 2.0 * float(np.sum(np.log(np.diagonal(lower))))
        return SpdFactor(lower=lower, logdet=logdet, jitter=float(eps))
    raise FactorizationFailed(
        f"Cholesky failed for all jitter values {tuple(jitter_schedule)}"
    )


def _check_vector(f: SpdFactor, v: np.ndarray, name: str) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1 or v.shape[0] != f.dim:
        raise DimensionMismatch(
            f"{name} has shape {v.shape}, expected ({f.dim},)"
        )
    return v


def mahalanobis_sq(f: SpdFactor, a: np.ndarray, b: np.ndarray) -> float:
    """Squared Mahalanobis distance (a - b)^T Q^-1 (a - b).

    Computed as ||L^-1 (a - b)||^2 via a forward triangular solve, which
    is algebraically the same inner product the two-solve route would
    produce but is nonnegative by construction.
    """
    a = _check_vector(f, a, "a")
    b = _check_vector(f, b, "b")
    y = solve_triangular(f.lower, a - b, lower=True, check_finite=False)
    return float(y @ y)


def mahalanobis_sq_many(f: SpdFactor, points: np.ndarray, center: np.ndarray) -> np.ndarray:
    """Squared Mahalanobis distances of each row of ``points`` to ``center``."""
    points = np.asarray(points, dtype=np.float64)
    center = _check_vector(f, center, "center")
    if points.ndim != 2 or points.shape[1] != f.dim:
        raise DimensionMismatch(
            f"points have shape {points.shape}, expected (m, {f.dim})"
        )
    if points.shape[0] == 0:
        return np.zeros(0)
    y = solve_triangular(f.lower, (points - center).T, lower=True, check_finite=False)
    return np.einsum("ij,ij->j", y, y)


def solve_spd(f: SpdFactor, rhs: np.ndarray) -> np.ndarray:
    """Apply Q^-1 to a vector through the two triangular solves."""
    rhs = _check_vector(f, rhs, "rhs")
    y = solve_triangular(f.lower, rhs, lower=True, check_finite=False)
    return solve_triangular(f.lower.T, y, lower=False, check_finite=False)


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax for an (m, K) logit matrix."""
    x = np.asarray(logits, dtype=np.float64)
    if x.ndim != 2:
        raise DimensionMismatch(f"expected a 2-d logit matrix, got shape {x.shape}")
    if x.shape[0] == 0:
        return x.copy()
    if x.shape[1] == 0:
        raise EmptyInput("softmax over zero classes")
    if not np.all(np.isfinite(x)):
        raise NonFiniteInput("logits contain NaN or Inf")
    shifted = np.exp(x - np.max(x, axis=1, keepdims=True))
    return shifted / np.sum(shifted, axis=1, keepdims=True)

"""Assignment rules over fitted class parameters.

Two rules are provided:

* ``mahalanobis-softmax``: softmax over negated squared Mahalanobis
  distances to each class.
* ``gmm``: Gaussian-mixture posterior under the uniform class prior, which
  adds a ``-0.5 * log|Q_k|`` volume term and halves the distance term.

When every class shares the same covariance the two rules agree on the
argmax for every input (the extra terms are constant across classes and
the 0.5 factor is monotone), while the probabilities themselves differ.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .estimation import ClassParams
from .numerics import SpdFactor, mahalanobis_sq_many, softmax_rows, solve_spd

MAHALANOBIS_SOFTMAX = "mahalanobis-softmax"
GMM = "gmm"
RULE_KINDS = (MAHALANOBIS_SOFTMAX, GMM)


@dataclass(frozen=True)
class AssignmentRule:
    """Which logit construction to use. ``gmm`` uses the uniform prior 1/K."""

    kind: str = MAHALANOBIS_SOFTMAX

    def __post_init__(self):
        if self.kind not in RULE_KINDS:
            raise ValueError(f"unknown rule kind {self.kind!r}; expected one of {RULE_KINDS}")


def classify_many(
    rule: AssignmentRule, params: list[ClassParams], points: np.ndarray
) -> np.ndarray:
    """Class probabilities for each row of ``points``; shape (m, K).

    Rows sum to 1; computation is softmax with max-subtraction over the
    rule's logits.
    """
    if not params:
        raise DimensionMismatch("need at least one class")
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise DimensionMismatch(f"points must be 2-d, got shape {points.shape}")
    k = len(params)
    d2 = np.empty((points.shape[0], k))
    for j, p in enumerate(params):
        d2[:, j] = mahalanobis_sq_many(p.q_factor, points, p.mu)

    if rule.kind == MAHALANOBIS_SOFTMAX:
        logits = -d2
    else:
        # Constant across classes, but it sets the logits' rounding.
        log_prior = np.full(k, -np.log(k))
        logdets = np.array([p.q_factor.logdet for p in params])
        logits = log_prior - 0.5 * d2 - 0.5 * logdets
    return softmax_rows(logits)


def argmax_labels(probs: np.ndarray) -> np.ndarray:
    """Row argmax with the lowest class index winning ties."""
    probs = np.asarray(probs)
    if probs.shape[0] == 0:
        return np.zeros(0, dtype=np.int64)
    return np.argmax(probs, axis=1).astype(np.int64)  # np.argmax takes the first maximum


def bregman_divergence(f: SpdFactor, z: np.ndarray, z_prime: np.ndarray) -> float:
    """Divergence generated by F(z) = z^T Q^-1 z between ``z`` and ``z_prime``.

    Evaluates F(z) - F(z') - grad F(z')^T (z - z') with grad F(z') applied
    through triangular solves. Algebraically this equals the squared
    Mahalanobis distance between the two points, which makes the soft
    assignment updates a Bregman soft-clustering step; the identity is
    asserted in the test suite rather than assumed here.
    """
    z = np.asarray(z, dtype=np.float64)
    z_prime = np.asarray(z_prime, dtype=np.float64)
    if z.shape != (f.dim,) or z_prime.shape != (f.dim,):
        raise DimensionMismatch(
            f"expected vectors of shape ({f.dim},), got {z.shape} and {z_prime.shape}"
        )
    f_z = float(z @ solve_spd(f, z))
    q_inv_zp = solve_spd(f, z_prime)
    f_zp = float(z_prime @ q_inv_zp)
    grad = 2.0 * q_inv_zp
    return f_z - f_zp - float(grad @ (z - z_prime))

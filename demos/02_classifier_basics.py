"""The shrinkage-regularized Mahalanobis classifier on a single task.

Class k gets a mean and a covariance blend
``Q_k = lam * Sigma_k + (1 - lam) * Sigma + beta * I`` with
``lam = n_k / (n_k + 1)``: a 1-shot class leans half on the task-level
covariance, a 100-shot class almost entirely on its own. Queries are
assigned by a softmax over negated squared Mahalanobis distances.
"""

import numpy as np

from mahashot import (
    AssignmentRule,
    Task,
    bregman_divergence,
    classify_many,
    estimate_unweighted,
    mahalanobis_sq,
)

rng = np.random.default_rng(3)

# A 3-way task with very different shots per class: 1, 4 and 25.
means = np.array([[4.0, 0.0], [-4.0, 0.0], [0.0, 5.0]])
shots = [1, 4, 25]
support = np.vstack([means[k] + rng.standard_normal((shots[k], 2)) for k in range(3)])
labels = np.concatenate([np.full(s, k) for k, s in enumerate(shots)])
task = Task(
    support_z=support,
    support_y=labels,
    query_z=means + 0.5 * rng.standard_normal((3, 2)),
    truth=np.array([0, 1, 2]),
    way=3,
)

params, stats = estimate_unweighted(task, beta=1.0)
print("shot -> shrinkage weight lam (toward the class's own covariance):")
for k, p in enumerate(params):
    lam = p.count / (p.count + 1)
    print(f"  class {k}: n_k={int(p.count):3d}  lam={lam:.3f}  jitter={p.q_factor.jitter}")

rule = AssignmentRule("mahalanobis-softmax")
for probs, want in zip(classify_many(rule, params, task.query_z), task.truth):
    print(f"query near class {want}: probs={np.round(probs, 3)} -> argmax {probs.argmax()}")

# The GMM variant adds a volume term under a uniform class prior. With
# unequal covariances it can disagree with the plain rule.
gmm = AssignmentRule("gmm")
z = np.array([[2.0, 2.5]])
print("plain rule:", np.round(classify_many(rule, params, z)[0], 3))
print("gmm rule:  ", np.round(classify_many(gmm, params, z)[0], 3))

# The divergence generated by F(z) = z^T Q^-1 z is exactly the squared
# Mahalanobis distance, which is why the soft assignment updates are a
# Bregman soft-clustering step.
f = params[2].q_factor
a, b = rng.standard_normal(2), rng.standard_normal(2)
print(
    f"bregman={bregman_divergence(f, a, b):.12f}  "
    f"mahalanobis^2={mahalanobis_sq(f, a, b):.12f}"
)

"""Independent brute-force reference implementations used as test oracles.

Everything here is deliberately written the slow, obvious way: explicit
Python loops over examples, explicit outer products, and explicit matrix
inverses via ``np.linalg.inv`` / ``np.linalg.slogdet``. The library under
test never forms an inverse, so agreement between the two paths is a
meaningful check rather than the same code evaluated twice.
"""

import numpy as np


def naive_unweighted(task, beta=1.0):
    """Loop-and-outer-product version of the support-only estimators.

    Returns (mus, sigma_task, sigma_ks, qs, mu_task).
    """
    z = np.asarray(task.support_z, dtype=float)
    y = np.asarray(task.support_y)
    n, d = z.shape
    mu_task = sum(z[i] for i in range(n)) / n
    sigma = np.zeros((d, d))
    for i in range(n):
        diff = z[i] - mu_task
        sigma += np.outer(diff, diff)
    sigma /= n

    mus, sigma_ks, qs = [], [], []
    for k in range(task.way):
        idx = [i for i in range(n) if y[i] == k]
        n_k = len(idx)
        mu_k = sum(z[i] for i in idx) / n_k
        sigma_k = np.zeros((d, d))
        for i in idx:
            diff = z[i] - mu_k
            sigma_k += np.outer(diff, diff)
        sigma_k /= n_k
        lam = n_k / (n_k + 1)
        qs.append(lam * sigma_k + (1 - lam) * sigma + beta * np.eye(d))
        mus.append(mu_k)
        sigma_ks.append(sigma_k)
    return mus, sigma, sigma_ks, qs, mu_task


def naive_weighted(task, w, beta=1.0):
    """Loop version of the responsibility-weighted estimators.

    ``w`` is the (n+m) x K weight matrix over support rows then query rows.
    Returns (mus, sigma_task, sigma_ks, qs, mu_task).
    """
    z = np.vstack([task.support_z, task.query_z]).astype(float)
    w = np.asarray(w, dtype=float)
    rows, d = z.shape
    k_count = w.shape[1]

    counts = [sum(w[j, k] for j in range(rows)) for k in range(k_count)]
    total = sum(counts)

    mu_task = np.zeros(d)
    for j in range(rows):
        for k in range(k_count):
            mu_task += w[j, k] * z[j]
    mu_task /= total

    sigma = np.zeros((d, d))
    for j in range(rows):
        for k in range(k_count):
            diff = z[j] - mu_task
            sigma += w[j, k] * np.outer(diff, diff)
    sigma /= total

    mus, sigma_ks, qs = [], [], []
    for k in range(k_count):
        mu_k = np.zeros(d)
        for j in range(rows):
            mu_k += w[j, k] * z[j]
        mu_k /= counts[k]
        sigma_k = np.zeros((d, d))
        for j in range(rows):
            diff = z[j] - mu_k
            sigma_k += w[j, k] * np.outer(diff, diff)
        sigma_k /= counts[k]
        lam = counts[k] / (counts[k] + 1)
        qs.append(lam * sigma_k + (1 - lam) * sigma + beta * np.eye(d))
        mus.append(mu_k)
        sigma_ks.append(sigma_k)
    return mus, sigma, sigma_ks, qs, mu_task


def naive_probs(mus, qs, z, rule="mahalanobis-softmax"):
    """Assignment probabilities via explicit inverses and determinants;
    ``gmm`` under the uniform prior."""
    k_count = len(mus)
    d2 = np.array(
        [(z - mus[k]) @ np.linalg.inv(qs[k]) @ (z - mus[k]) for k in range(k_count)]
    )
    if rule == "mahalanobis-softmax":
        logits = -d2
    else:
        logdets = np.array([np.linalg.slogdet(qs[k])[1] for k in range(k_count)])
        logits = np.log(1.0 / k_count) - 0.5 * d2 - 0.5 * logdets
    e = np.exp(logits - logits.max())
    return e / e.sum()


def straight_line_refine(task, min_steps, max_steps, beta=1.0, rule="mahalanobis-softmax"):
    """Flat reimplementation of the refinement loop, on the oracle estimators.

    Returns (labels, iterations_run). Independent of the library: naive
    estimators, explicit inverses, and its own bookkeeping.
    """
    n, m, k_count = task.n_support, task.n_query, task.way

    mus, _, _, qs, _ = naive_unweighted(task, beta)
    probs = np.vstack([naive_probs(mus, qs, q, rule) for q in task.query_z])
    labels = probs.argmax(axis=1)
    iterations = 1

    support_onehot = np.zeros((n, k_count))
    for i in range(n):
        support_onehot[i, task.support_y[i]] = 1.0

    while iterations < max_steps:
        w = np.vstack([support_onehot, probs])
        if min(w.sum(axis=0)) < 1e-8:
            break
        mus, _, _, qs, _ = naive_weighted(task, w, beta)
        probs = np.vstack([naive_probs(mus, qs, q, rule) for q in task.query_z])
        new_labels = probs.argmax(axis=1)
        iterations += 1
        stable = bool(np.array_equal(new_labels, labels))
        labels = new_labels
        if stable and iterations >= min_steps:
            break
    return labels, iterations

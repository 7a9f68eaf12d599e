"""Fast self-contained invariant checks, exposed as the ``selftest`` CLI command.

A small subset of the full test suite that runs in a couple of seconds
and needs no data files: numerical identities, the empty-query and
single-iteration reductions, and sampler determinism.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .classification import AssignmentRule, bregman_divergence, classify_many
from .data import SyntheticSpec, Task, generate_synthetic
from .estimation import Responsibilities, estimate_unweighted, estimate_weighted
from .numerics import mahalanobis_sq, softmax_rows, spd_factorize
from .refinement import RefineConfig, refine
from .sampler import FixedSamplerConfig, sample_fixed


def _random_spd(rng, d):
    """A random SPD matrix and its factor; checks call it, so a failing
    factorization fails the check rather than the selftest."""
    a = rng.standard_normal((d, d))
    q = a @ a.T + 0.5 * np.eye(d)
    return q, spd_factorize(q)


def _random_task(rng, way=3, shot=4, queries=6, d=5) -> Task:
    means = rng.standard_normal((way, d)) * 3.0
    support = np.vstack([means[k] + rng.standard_normal((shot, d)) for k in range(way)])
    labels = np.repeat(np.arange(way), shot)
    truth = rng.integers(0, way, size=queries)
    query = means[truth] + rng.standard_normal((queries, d))
    return Task(support_z=support, support_y=labels, query_z=query, truth=truth, way=way)


def _checks():
    rng = np.random.default_rng(2024)

    def softmax_shift():
        x = rng.standard_normal((1, 7)) * 10
        return np.allclose(softmax_rows(x), softmax_rows(x + 123.456), atol=1e-12)

    def factor_round_trip():
        q, f = _random_spd(rng, 6)
        return f.jitter == 0.0 and np.allclose(f.lower @ f.lower.T, q, rtol=1e-8)

    def mahalanobis_sign():
        _, f = _random_spd(rng, 4)
        a, b = rng.standard_normal(4), rng.standard_normal(4)
        return mahalanobis_sq(f, a, b) > 0 and mahalanobis_sq(f, a, a) == 0.0

    def bregman_identity():
        _, f = _random_spd(rng, 5)
        z, zp = rng.standard_normal(5), rng.standard_normal(5)
        return abs(bregman_divergence(f, z, zp) - mahalanobis_sq(f, z, zp)) < 1e-9

    def empty_query_reduction():
        task = _random_task(rng)
        bare = dataclasses.replace(
            task, query_z=np.zeros((0, task.dim)), truth=np.zeros(0, dtype=int)
        )
        resp = Responsibilities.build(bare, np.zeros((0, task.way)))
        pw, sw = estimate_weighted(bare, resp)
        pu, su = estimate_unweighted(bare)
        ok = np.allclose(sw.sigma, su.sigma, atol=1e-12)
        for a, b in zip(pw, pu):
            ok = ok and np.allclose(a.mu, b.mu, atol=1e-12)
            ok = ok and np.allclose(a.q, b.q, atol=1e-12)
        return ok

    def single_step_reduction():
        task = _random_task(rng)
        cfg = RefineConfig(min_steps=0, max_steps=1)
        trace = refine(task, cfg)
        params, _ = estimate_unweighted(task, cfg.beta)
        direct = classify_many(cfg.rule, params, task.query_z)
        return trace.iterations_run == 1 and np.allclose(
            trace.final_resp.query, direct, atol=1e-12
        )

    def gmm_argmax_reduction():
        q, f = _random_spd(rng, 4)
        params, _ = estimate_unweighted(_random_task(rng, d=4))
        shared = [
            type(p)(mu=p.mu, q=q, q_factor=f, count=p.count, sigma_k=p.sigma_k)
            for p in params
        ]
        soft = AssignmentRule("mahalanobis-softmax")
        gmm = AssignmentRule("gmm")
        z = rng.standard_normal((50, 4)) * 4
        return np.array_equal(
            classify_many(soft, shared, z).argmax(axis=1),
            classify_many(gmm, shared, z).argmax(axis=1),
        )

    def sampler_determinism():
        ds = generate_synthetic(SyntheticSpec(n_classes=6, dim=4, per_class=20, seed=7))
        cfg = FixedSamplerConfig(way=3, shot=2, query_per_class=4, seed=11)
        t1, t2 = sample_fixed(ds, cfg, 5), sample_fixed(ds, cfg, 5)
        return (
            np.array_equal(t1.support_z, t2.support_z)
            and np.array_equal(t1.query_z, t2.query_z)
            and t1.class_names == t2.class_names
        )

    return [
        ("softmax shift invariance", softmax_shift),
        ("SPD factor round trip", factor_round_trip),
        ("mahalanobis nonnegative / zero at identity", mahalanobis_sign),
        ("bregman divergence equals squared mahalanobis", bregman_identity),
        ("weighted estimator empty-query reduction", empty_query_reduction),
        ("single-iteration refinement equals baseline", single_step_reduction),
        ("gmm argmax reduction under shared covariance", gmm_argmax_reduction),
        ("sampler determinism", sampler_determinism),
    ]


def run_selftest() -> bool:
    """Run every check; print one PASS/FAIL line each; True iff all passed."""
    all_ok = True
    for name, check in _checks():
        try:
            ok = bool(check())
            detail = ""
        except Exception as exc:  # a crash is a failure, not an abort
            ok = False
            detail = f" ({type(exc).__name__}: {exc})"
        all_ok &= ok
        print(f"{'PASS' if ok else 'FAIL'}  {name}{detail}")
    return all_ok

import tracemalloc

import numpy as np
import pytest

import mahashot.estimation as estimation
from mahashot import (
    DegenerateClass,
    DimensionMismatch,
    NonFiniteInput,
    RefineConfig,
    Responsibilities,
    Task,
    estimate_unweighted,
    estimate_weighted,
    refine,
    spd_factorize,
)
from conftest import make_task, without_query
from oracles import naive_unweighted, naive_weighted


def uniform_resp(task):
    probs = np.full((task.n_query, task.way), 1.0 / task.way)
    return Responsibilities.build(task, probs)


class TestUnweighted:
    def test_singleton_class_shrinks_halfway(self, rng):
        # a 1-shot class: mu_k is the point itself, its own covariance is
        # zero, and the blend weight is exactly 1/2
        task = make_task(rng, way=3, shots=[1, 4, 4], d=3)
        beta = 1.0
        params, stats = estimate_unweighted(task, beta)
        z0 = task.support_z[task.support_y == 0][0]
        np.testing.assert_allclose(params[0].mu, z0, atol=1e-15)
        assert params[0].count == 1.0
        expected_q = 0.5 * stats.sigma + beta * np.eye(3)
        np.testing.assert_allclose(params[0].q, expected_q, atol=1e-12)

    def test_identical_support_gives_pure_ridge(self):
        z = np.tile([2.0, -1.0], (6, 1))
        task = Task(
            support_z=z,
            support_y=np.array([0, 0, 0, 1, 1, 1]),
            query_z=np.zeros((1, 2)),
            truth=np.array([0]),
            way=2,
        )
        params, stats = estimate_unweighted(task, beta=1.5)
        np.testing.assert_allclose(stats.sigma, 0.0, atol=1e-15)
        for p in params:
            np.testing.assert_allclose(p.q, 1.5 * np.eye(2), atol=1e-15)

    def test_matches_bruteforce_oracle(self, rng):
        for _ in range(20):
            task = make_task(rng, way=3, d=4, queries=5)
            params, stats = estimate_unweighted(task, beta=1.0)
            mus, sigma, sigma_ks, qs, mu_task = naive_unweighted(task, beta=1.0)
            np.testing.assert_allclose(stats.mu, mu_task, atol=1e-12)
            np.testing.assert_allclose(stats.sigma, sigma, atol=1e-12)
            for k in range(3):
                np.testing.assert_allclose(params[k].mu, mus[k], atol=1e-12)
                np.testing.assert_allclose(params[k].q, qs[k], atol=1e-12)

    def test_beta_positive_needs_no_jitter(self, rng):
        for _ in range(20):
            task = make_task(rng, way=2, shots=1, d=5)
            params, _ = estimate_unweighted(task, beta=1.0)
            assert all(p.q_factor.jitter == 0.0 for p in params)


class TestWeighted:
    def test_empty_query_reduces_to_unweighted(self, rng):
        for _ in range(20):
            task = without_query(make_task(rng, way=3, d=4))
            resp = Responsibilities.build(task, np.zeros((0, 3)))
            pw, sw = estimate_weighted(task, resp, beta=1.0)
            pu, su = estimate_unweighted(task, beta=1.0)
            np.testing.assert_allclose(sw.mu, su.mu, atol=1e-12)
            np.testing.assert_allclose(sw.sigma, su.sigma, atol=1e-12)
            for a, b in zip(pw, pu):
                np.testing.assert_allclose(a.mu, b.mu, atol=1e-12)
                np.testing.assert_allclose(a.q, b.q, atol=1e-12)
                assert a.count == pytest.approx(b.count, abs=1e-12)

    def test_uniform_query_rows_shift_symmetric_classes_equally(self):
        task = Task(
            support_z=np.array([[-2.0, 0.0], [2.0, 0.0]]),
            support_y=np.array([0, 1]),
            query_z=np.array([[0.0, 1.0], [0.0, -1.0]]),
            truth=np.array([0, 1]),
            way=2,
        )
        params, _ = estimate_weighted(task, uniform_resp(task), beta=1.0)
        # each mean moves from +/-2 to +/-1: same pull toward the query centroid
        np.testing.assert_allclose(params[0].mu, [-1.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(params[1].mu, [1.0, 0.0], atol=1e-14)

    def test_matches_bruteforce_oracle(self, rng):
        for _ in range(20):
            task = make_task(rng, way=3, d=4, queries=6)
            raw = rng.uniform(0.1, 1.0, size=(task.n_query, 3))
            soft = raw / raw.sum(axis=1, keepdims=True)
            # exact zeros, as softmax underflow produces at high dimension
            hard = np.eye(3)[rng.integers(0, 3, size=task.n_query)]
            hard[0] = [0.5, 0.5, 0.0]
            for probs in (soft, hard):
                resp = Responsibilities.build(task, probs)
                params, stats = estimate_weighted(task, resp, beta=1.0)
                mus, sigma, sigma_ks, qs, mu_task = naive_weighted(task, resp.w, beta=1.0)
                np.testing.assert_allclose(stats.mu, mu_task, atol=1e-12)
                np.testing.assert_allclose(stats.sigma, sigma, atol=1e-12)
                for k in range(3):
                    np.testing.assert_allclose(params[k].mu, mus[k], atol=1e-12)
                    np.testing.assert_allclose(params[k].q, qs[k], atol=1e-12)

    def test_soft_count_near_zero_approaches_task_blend(self, rng):
        # limit behavior: a class whose soft count is tiny (but above the
        # degeneracy cutoff) gets essentially the task covariance plus ridge
        task = make_task(rng, way=2, shots=[3, 3], d=3, queries=4)
        eps = 1e-6
        probs = np.column_stack(
            [np.full(task.n_query, 1 - eps / 4), np.full(task.n_query, eps / 4)]
        )
        support = np.zeros((task.n_support, 2))
        support[:, 0] = 1.0  # drain class 1 below a single hard example
        w = np.vstack([support, probs])
        resp = Responsibilities(w=w, n_support=task.n_support)
        params, stats = estimate_weighted(task, resp, beta=1.0)
        assert params[1].count == pytest.approx(eps, rel=1e-6)
        np.testing.assert_allclose(
            params[1].q, stats.sigma + np.eye(3), rtol=1e-5, atol=1e-5
        )

    def test_degenerate_class_raises(self, rng):
        task = make_task(rng, way=2, shots=[2, 2], d=3, queries=3)
        w = np.zeros((task.n_support + task.n_query, 2))
        w[:, 0] = 1.0  # class 1 receives nothing anywhere
        resp = Responsibilities(w=w, n_support=task.n_support)
        with pytest.raises(DegenerateClass) as info:
            estimate_weighted(task, resp, beta=1.0)
        assert info.value.class_index == 1

    def test_shape_mismatch_rejected(self, rng):
        task = make_task(rng, way=2, shots=[2, 2], d=3, queries=3)
        bad = Responsibilities(w=np.full((4, 2), 0.5), n_support=4)
        with pytest.raises(DimensionMismatch):
            estimate_weighted(task, bad, beta=1.0)
        misplit = Responsibilities(w=uniform_resp(task).w, n_support=task.n_support + 1)
        with pytest.raises(DimensionMismatch, match="split at 5 rows, task has 4 support"):
            estimate_weighted(task, misplit, beta=1.0)

    def test_negative_beta_rejected(self, rng):
        task = make_task(rng, way=2, shots=[2, 2], d=3, queries=3)
        with pytest.raises(ValueError, match="beta must be >= 0"):
            estimate_weighted(task, uniform_resp(task), beta=-0.5)
        with pytest.raises(ValueError, match="beta must be >= 0"):
            estimate_unweighted(task, beta=-0.5)


class TestShrinkageBlend:
    def test_lambda_increases_with_shot(self, rng):
        lams = []
        for shot in (1, 2, 5, 20, 100):
            task = make_task(rng, way=2, shots=[shot, 2], d=3, queries=2)
            params, _ = estimate_unweighted(task)
            lams.append(params[0].count / (params[0].count + 1))
        assert all(a < b for a, b in zip(lams, lams[1:]))
        assert lams[-1] > 0.99

    def test_blend_is_convex_combination(self, rng):
        task = make_task(rng, way=2, shots=[4, 7], d=3, queries=2)
        params, stats = estimate_unweighted(task, beta=2.0)
        mus, sigma, sigma_ks, qs, _ = naive_unweighted(task, beta=2.0)
        for k, p in enumerate(params):
            lam = p.count / (p.count + 1)
            expected = lam * sigma_ks[k] + (1 - lam) * sigma + 2.0 * np.eye(3)
            np.testing.assert_allclose(p.q, expected, atol=1e-12)


class TestPermutationInvariance:
    def test_support_and_query_order_do_not_matter(self, rng):
        task = make_task(rng, way=3, d=4, queries=6)
        perm_s = rng.permutation(task.n_support)
        perm_q = rng.permutation(task.n_query)
        shuffled = Task(
            support_z=task.support_z[perm_s],
            support_y=task.support_y[perm_s],
            query_z=task.query_z[perm_q],
            truth=task.truth[perm_q],
            way=task.way,
        )
        p1, s1 = estimate_unweighted(task)
        p2, s2 = estimate_unweighted(shuffled)
        np.testing.assert_allclose(s1.sigma, s2.sigma, atol=1e-12)
        for a, b in zip(p1, p2):
            np.testing.assert_allclose(a.mu, b.mu, atol=1e-12)
            np.testing.assert_allclose(a.q, b.q, atol=1e-12)

        r1 = estimate_weighted(task, uniform_resp(task))[0]
        r2 = estimate_weighted(shuffled, uniform_resp(shuffled))[0]
        for a, b in zip(r1, r2):
            np.testing.assert_allclose(a.mu, b.mu, atol=1e-12)
            np.testing.assert_allclose(a.q, b.q, atol=1e-12)

    def test_class_relabel_permutes_params(self, rng):
        for _ in range(10):
            task = make_task(rng, way=4, d=3, queries=6)
            raw = rng.uniform(0.1, 1.0, size=(task.n_query, 4))
            probs = raw / raw.sum(axis=1, keepdims=True)
            perm = rng.permutation(4)  # class k becomes class perm[k]
            relabeled = Task(
                support_z=task.support_z,
                support_y=perm[task.support_y],
                query_z=task.query_z,
                truth=perm[task.truth],
                way=task.way,
            )
            runs = [
                (estimate_unweighted(task), estimate_unweighted(relabeled)),
                (
                    estimate_weighted(task, Responsibilities.build(task, probs)),
                    estimate_weighted(
                        relabeled, Responsibilities.build(relabeled, probs[:, np.argsort(perm)])
                    ),
                ),
            ]
            for (p1, s1), (p2, s2) in runs:
                np.testing.assert_allclose(s2.mu, s1.mu, atol=1e-12)
                np.testing.assert_allclose(s2.sigma, s1.sigma, atol=1e-12)
                for k in range(4):
                    np.testing.assert_allclose(p2[perm[k]].mu, p1[k].mu, atol=1e-12)
                    np.testing.assert_allclose(p2[perm[k]].q, p1[k].q, atol=1e-12)
                    assert p2[perm[k]].count == pytest.approx(p1[k].count, abs=1e-12)


class TestAffineEquivariance:
    def test_beta_zero_transforms_covariantly(self, rng):
        d = 3
        for _ in range(10):
            task = make_task(rng, way=2, shots=[d + 2, d + 3], d=d, queries=2)
            q_mat, _ = np.linalg.qr(rng.standard_normal((d, d)))
            a = q_mat @ np.diag(rng.uniform(0.5, 2.0, size=d))
            b = rng.standard_normal(d)
            moved = Task(
                support_z=task.support_z @ a.T + b,
                support_y=task.support_y,
                query_z=task.query_z @ a.T + b,
                truth=task.truth,
                way=task.way,
            )
            p1, _ = estimate_unweighted(task, beta=0.0)
            p2, _ = estimate_unweighted(moved, beta=0.0)
            for orig, mvd in zip(p1, p2):
                np.testing.assert_allclose(mvd.mu, a @ orig.mu + b, rtol=1e-8, atol=1e-10)
                np.testing.assert_allclose(mvd.q, a @ orig.q @ a.T, rtol=1e-8, atol=1e-10)

    def test_weighted_and_large_offsets(self, rng):
        # A 1e6 translation leaves about 10 significant digits for the
        # centred rows; the weighted estimator must follow A and b as well.
        d = 3
        for _ in range(10):
            task = make_task(rng, way=2, shots=[d + 2, d + 3], d=d, queries=4)
            raw = rng.uniform(0.1, 1.0, size=(task.n_query, 2))
            probs = raw / raw.sum(axis=1, keepdims=True)
            q_mat, _ = np.linalg.qr(rng.standard_normal((d, d)))
            a = q_mat @ np.diag(rng.uniform(0.5, 2.0, size=d))
            for b in (rng.standard_normal(d), np.full(d, 1e6)):
                moved = Task(
                    support_z=task.support_z @ a.T + b,
                    support_y=task.support_y,
                    query_z=task.query_z @ a.T + b,
                    truth=task.truth,
                    way=task.way,
                )
                for estimate in (
                    lambda t: estimate_unweighted(t, beta=0.0),
                    lambda t: estimate_weighted(t, Responsibilities.build(t, probs), beta=0.0),
                ):
                    for orig, mvd in zip(estimate(task)[0], estimate(moved)[0]):
                        np.testing.assert_allclose(mvd.mu, a @ orig.mu + b, rtol=0, atol=1e-8)
                        q = a @ orig.q @ a.T
                        assert np.linalg.norm(mvd.q - q) <= 1e-8 * np.linalg.norm(q)


class TestResponsibilities:
    def test_build_pins_support_one_hot(self, rng):
        task = make_task(rng, way=3, d=3, queries=4)
        resp = Responsibilities.build(task, np.full((4, 3), 1 / 3))
        expected = np.zeros((task.n_support, 3))
        expected[np.arange(task.n_support), task.support_y] = 1.0
        np.testing.assert_array_equal(resp.support, expected)
        assert resp.query.shape == (4, 3)

    def test_rows_must_be_stochastic(self):
        with pytest.raises(ValueError):
            Responsibilities(w=np.array([[0.5, 0.4]]), n_support=0)
        with pytest.raises(ValueError):
            Responsibilities(w=np.array([[1.2, -0.2]]), n_support=0)
        for w in ([[1.0, 0.0], [np.nan, np.nan]], [[np.nan, 1.0]], [[0.5, 0.5], [np.nan, 0.5]]):
            with pytest.raises(ValueError):  # NaN must fail the checks
                Responsibilities(w=np.array(w), n_support=1)

    @pytest.mark.parametrize(
        "w, n_support, match",
        [
            (np.ones(3), 0, "2-d matrix"),
            (np.ones((2, 1, 1)), 0, "2-d matrix"),
            (np.ones((2, 1)), 3, "n_support out of range"),
            (np.ones((2, 1)), -1, "n_support out of range"),
        ],
        ids=["1d", "3d", "split-high", "split-negative"],
    )
    def test_shape_rejected(self, w, n_support, match):
        with pytest.raises(DimensionMismatch, match=match):
            Responsibilities(w=w, n_support=n_support)

    def test_build_shape_mismatch(self, rng):
        task = make_task(rng, way=3, d=3, queries=4)
        for probs in (np.full((3, 3), 1 / 3), np.full((4, 2), 1 / 2)):
            with pytest.raises(DimensionMismatch, match="query_probs shape"):
                Responsibilities.build(task, probs)

    def test_rows_without_columns_rejected(self):
        with pytest.raises(ValueError):  # an empty row cannot sum to 1
            Responsibilities(w=np.zeros((3, 0)), n_support=1)
        assert Responsibilities(w=np.zeros((0, 3)), n_support=0).w.shape == (0, 3)


def random_resp(rng, task):
    raw = rng.uniform(0.05, 1.0, size=(task.n_query, task.way))
    return Responsibilities.build(task, raw / raw.sum(axis=1, keepdims=True))


def per_class_reference(z, w, beta):
    """(mu, q, sigma_k, count) of each class, one class at a time over the
    rows it gives nonzero weight."""
    row_weight = w.sum(axis=1)
    mu = row_weight @ z / row_weight.sum()
    sigma = (z - mu).T * row_weight @ (z - mu) / row_weight.sum()
    out = []
    for k in range(w.shape[1]):
        rows = np.flatnonzero(w[:, k])
        wk, zk = w[rows, k], z[rows]
        count = wk.sum()
        mu_k = wk @ zk / count
        sigma_k = (zk - mu_k).T * wk @ (zk - mu_k) / count
        lam = count / (count + 1.0)
        q = lam * sigma_k + (1.0 - lam) * sigma + beta * np.eye(z.shape[1])
        out.append((mu_k, q, sigma_k, count))
    return out


class TestKernelFactorization:
    """The kernel estimates and factorizes classes in stacked blocks. Each
    class must match a per-class reference, and the checked public
    ``spd_factorize`` must give its factor bit for bit."""

    @staticmethod
    def check_params(params, z, w, beta):
        reference = per_class_reference(z, w, beta)
        for p, (mu, q, sigma_k, count) in zip(params, reference, strict=True):
            for got, want in ((p.mu, mu), (p.q, q), (p.sigma_k, sigma_k)):
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
            assert np.array_equal(p.sigma_k, p.sigma_k.T)
            assert np.array_equal(p.q, p.q.T)
            assert p.count == pytest.approx(count, rel=1e-12, abs=1e-12)
            f = spd_factorize(p.q)
            assert f.lower.tobytes() == p.q_factor.lower.tobytes()
            assert f.logdet == p.q_factor.logdet and f.jitter == p.q_factor.jitter
        return [p.q_factor.jitter for p in params]

    def both_estimators(self, rng, task, beta, resp=None):
        """Jitters of each estimate's classes: support-only, then weighted."""
        params, _ = estimate_unweighted(task, beta)
        one_hot = np.eye(task.way)[task.support_y]
        jitters = [self.check_params(params, task.support_z, one_hot, beta)]
        if task.n_query:
            if resp is None:
                resp = random_resp(rng, task)
            params, _ = estimate_weighted(task, resp, beta)
            z = np.vstack([task.support_z, task.query_z])
            jitters.append(self.check_params(params, z, resp.w, beta))
        return jitters

    @pytest.mark.parametrize("beta", [1.0, 0.0])
    def test_low_shot_tasks(self, rng, beta):
        for _ in range(20):
            self.both_estimators(rng, make_task(rng, way=5, shots=1, queries=50, d=16), beta)

    def test_d_above_n_at_beta_zero_needs_jitter(self, rng):
        jitters = []
        for _ in range(20):
            task = make_task(rng, way=3, shots=[1, 2, 3], queries=int(rng.integers(0, 4)), d=12)
            jitters += self.both_estimators(rng, task, 0.0)
        assert any(max(js) > 0.0 for js in jitters)

    def test_beta_zero_block_with_one_jittered_class(self, rng):
        # With d equal to the support size the task covariance is singular
        # in one direction, and rounding decides which classes factorize
        # without jitter: within one block, only those that fail get a ridge.
        jitters = []
        for _ in range(10):
            shots = [int(s) for s in rng.integers(1, 4, size=4)]
            task = make_task(rng, way=4, shots=shots, queries=0, d=sum(shots))
            jitters += self.both_estimators(rng, task, 0.0)
        assert any(min(js) == 0.0 < max(js) for js in jitters)

    def test_d128_task_spans_several_blocks(self, rng):
        task = make_task(rng, way=12, shots=[int(s) for s in rng.integers(1, 30, size=12)],
                         queries=120, d=128)
        nnz = [int((task.support_y == k).sum()) for k in range(task.way)]
        assert len(list(estimation._blocks([n + task.n_query for n in nnz], task.dim))) > 1
        for beta in (1.0, 0.0):
            self.both_estimators(rng, task, beta)

    @pytest.mark.parametrize("beta", [1.0, 0.0])
    def test_d128_fractional_weights_in_padded_and_one_class_blocks(self, rng, beta):
        # Every query row weighs each class fractionally. Classes 0 and 1
        # share a block, class 0 padded to class 1's rows; class 2 runs alone.
        task = make_task(rng, way=3, shots=[20, 60, 200], queries=100, d=128)
        nnz = [20 + task.n_query, 60 + task.n_query, 200 + task.n_query]
        assert list(estimation._blocks(nnz, task.dim)) == [(0, 2, 160), (2, 3, 300)]
        jitters = self.both_estimators(rng, task, beta)
        # Every class factorized in its stack, bit-equal to spd_factorize's factor.
        assert jitters == [[0.0] * 3] * 2

    @pytest.mark.parametrize("beta", [1.0, 0.0])
    def test_unequal_rows_and_zero_weights(self, rng, beta):
        for _ in range(10):
            task = make_task(rng, way=4, shots=[1, 5, 2, 8], queries=12, d=6)
            probs = rng.uniform(0.05, 1.0, size=(task.n_query, task.way))
            probs[0] = [0.5, 0.5, 0.0, 0.0]  # exact zeros, as softmax underflow gives
            probs[1:4] = np.eye(task.way)[rng.integers(0, task.way, size=3)]
            probs /= probs.sum(axis=1, keepdims=True)
            self.both_estimators(rng, task, beta, Responsibilities.build(task, probs))

    @pytest.mark.parametrize("beta", [1.0, 0.0])
    def test_duplicate_support_rows(self, rng, beta):
        for _ in range(10):
            task = make_task(rng, way=3, shots=2, queries=6, d=5)
            doubled = Task(
                support_z=np.vstack([task.support_z, task.support_z[:3]]),
                support_y=np.concatenate([task.support_y, task.support_y[:3]]),
                query_z=task.query_z,
                truth=task.truth,
                way=task.way,
            )
            self.both_estimators(rng, doubled, beta)

    def test_overflowing_embeddings_raise_non_finite(self, rng):
        task = make_task(rng, way=3, shots=2, queries=6, d=4)
        huge = Task(
            support_z=task.support_z * 1e200,
            support_y=task.support_y,
            query_z=task.query_z * 1e200,
            truth=task.truth,
            way=task.way,
        )
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteInput):
                estimate_unweighted(huge)
            with pytest.raises(NonFiniteInput):
                refine(huge, RefineConfig())

    @pytest.mark.filterwarnings("error")
    def test_beta_above_half_the_float64_max_is_finite(self, rng):
        # The ridge goes on last, onto an exactly symmetric blend.
        task = make_task(rng, way=3, shots=2, queries=6, d=4)
        for estimate in (lambda beta: estimate_unweighted(task, beta=beta),
                         lambda beta: estimate_weighted(task, uniform_resp(task), beta=beta)):
            for small, big in zip(estimate(0.0)[0], estimate(9e307)[0]):
                assert np.array_equal(big.q, small.q + 9e307 * np.eye(4))
                assert big.q_factor.jitter == 0.0
                assert np.isfinite(big.q_factor.logdet)


class TestBlockMemory:
    def test_peak_of_a_50_way_d128_estimate(self, rng):
        # The returned parameters are about 20 MB; gathering every class at
        # once, padded to the widest, would take the peak past 80 MB.
        task = make_task(rng, way=50, shots=10, queries=500, d=128)
        resp = random_resp(rng, task)
        tracemalloc.start()
        try:
            estimate_weighted(task, resp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_refine_holds_one_generation(self, rng):
        # Every iteration after the first replaces the class parameters; the
        # old set must be gone before the new one is built.
        task = make_task(rng, way=50, shots=10, queries=500, d=128)
        resp = random_resp(rng, task)
        tracemalloc.start()
        try:
            kept = estimate_weighted(task, resp)
            one_generation = tracemalloc.get_traced_memory()[0]
            del kept
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            trace = refine(task, RefineConfig())
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert trace.iterations_run >= 2
        assert peak < 1.5 * one_generation

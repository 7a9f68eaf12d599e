import math

import numpy as np
import pytest

from mahashot import (
    AssignmentRule,
    ClassParams,
    DimensionMismatch,
    argmax_labels,
    bregman_divergence,
    classify_many,
    mahalanobis_sq,
    spd_factorize,
)
from conftest import random_spd

SOFT = AssignmentRule("mahalanobis-softmax")
GMM_UNIFORM = AssignmentRule("gmm")


def params_at(mus, qs):
    return [
        ClassParams(
            mu=np.asarray(mu, float), q=q, q_factor=spd_factorize(q), count=1.0,
            sigma_k=np.zeros_like(q),
        )
        for mu, q in zip(mus, qs)
    ]


class TestMahalanobisSoftmaxRule:
    def test_single_class(self):
        params = params_at([[0.0, 0.0]], [np.eye(2)])
        np.testing.assert_array_equal(classify_many(SOFT, params, [[5.0, 5.0]]), [[1.0]])

    def test_equidistant_symmetry(self):
        params = params_at([[0.0, 0.0], [4.0, 0.0]], [np.eye(2)] * 2)
        np.testing.assert_allclose(
            classify_many(SOFT, params, [[2.0, 0.0]]), [[0.5, 0.5]], atol=1e-15
        )

    def test_closer_class_closed_form(self):
        params = params_at([[0.0, 0.0], [4.0, 0.0]], [np.eye(2)] * 2)
        probs = classify_many(SOFT, params, [[1.0, 0.0]])[0]
        expected = math.exp(-1) / (math.exp(-1) + math.exp(-9))
        assert probs[0] == pytest.approx(expected, abs=1e-12)
        assert probs[0] == pytest.approx(0.999665, abs=5e-7)

    def test_probability_vector(self, rng):
        for _ in range(100):
            k, d = int(rng.integers(1, 6)), int(rng.integers(2, 5))
            params = params_at(
                rng.standard_normal((k, d)) * 3, [random_spd(rng, d) for _ in range(k)]
            )
            probs = classify_many(SOFT, params, rng.standard_normal((4, d)) * 3)
            assert np.all(probs >= 0)
            assert np.max(np.abs(probs.sum(axis=1) - 1.0)) < 1e-12

    def test_translation_equivariance(self, rng):
        d = 3
        params = params_at(
            rng.standard_normal((3, d)), [random_spd(rng, d) for _ in range(3)]
        )
        z = rng.standard_normal((5, d))
        shift = rng.standard_normal(d) * 10
        moved = params_at([p.mu + shift for p in params], [p.q for p in params])
        np.testing.assert_allclose(
            classify_many(SOFT, params, z), classify_many(SOFT, moved, z + shift), atol=1e-12
        )

    def test_dimension_mismatch(self):
        params = params_at([[0.0, 0.0]], [np.eye(2)])
        with pytest.raises(DimensionMismatch):
            classify_many(SOFT, params, np.zeros((1, 3)))
        with pytest.raises(DimensionMismatch, match="points must be 2-d"):
            classify_many(SOFT, params, np.zeros(2))
        with pytest.raises(DimensionMismatch, match="at least one class"):
            classify_many(SOFT, [], np.zeros((1, 2)))


class TestGmmRule:
    def test_matches_direct_inverse_oracle(self, rng):
        from oracles import naive_probs

        for _ in range(30):
            k, d = int(rng.integers(2, 5)), 4
            mus = rng.standard_normal((k, d)) * 2
            qs = [random_spd(rng, d) for _ in range(k)]
            params = params_at(mus, qs)
            z = rng.standard_normal(d) * 2
            np.testing.assert_allclose(
                classify_many(GMM_UNIFORM, params, z[None])[0],
                naive_probs(list(mus), qs, z, rule="gmm"),
                atol=1e-10,
            )

    def test_nonuniform_prior(self, rng):
        from oracles import naive_probs

        mus = [[0.0, 0.0], [1.0, 1.0]]
        qs = [np.eye(2), np.eye(2)]
        prior = (0.9, 0.1)
        rule = AssignmentRule("gmm", prior=prior)
        z = np.array([0.5, 0.5])
        np.testing.assert_allclose(
            classify_many(rule, params_at(mus, qs), z[None])[0],
            naive_probs([np.array(m) for m in mus], qs, z, rule="gmm", prior=np.array(prior)),
            atol=1e-12,
        )

    def test_argmax_reduction_under_shared_covariance(self, rng):
        # equal covariances + uniform prior: log-dets and priors cancel and
        # the 0.5 factor is monotone, so the argmax matches the softmax rule
        # even though the probabilities do not
        d, k = 4, 5
        q = random_spd(rng, d)
        mus = rng.standard_normal((k, d)) * 2
        params = params_at(mus, [q] * k)
        z = rng.standard_normal((500, d)) * 3
        p_soft = classify_many(SOFT, params, z)
        p_gmm = classify_many(GMM_UNIFORM, params, z)
        np.testing.assert_array_equal(p_soft.argmax(axis=1), p_gmm.argmax(axis=1))
        differ_probs = sum(not np.allclose(a, b) for a, b in zip(p_soft, p_gmm))
        assert differ_probs > 400  # probabilities genuinely differ

    def test_invalid_prior(self):
        with pytest.raises(ValueError):
            AssignmentRule("gmm", prior=(0.5, 0.6))
        with pytest.raises(ValueError):
            AssignmentRule("nearest")
        with pytest.raises(ValueError, match="1-d simplex"):
            AssignmentRule("gmm", prior=[[0.5, 0.5]])
        for prior in ((np.nan, 0.5), (np.nan, np.nan), (np.inf, 0.5), (1.5, -np.inf)):
            with pytest.raises(ValueError):
                AssignmentRule("gmm", prior=prior)

    def test_prior_length_checked(self):
        params = params_at([[0.0], [1.0]], [np.eye(1), np.eye(1)])
        rule = AssignmentRule("gmm", prior=(0.2, 0.3, 0.5))
        with pytest.raises(DimensionMismatch):
            classify_many(rule, params, np.zeros((1, 1)))


class TestArgmaxTieBreak:
    def test_lowest_index_wins(self):
        probs = np.array([[0.4, 0.4, 0.2], [0.1, 0.45, 0.45]])
        np.testing.assert_array_equal(argmax_labels(probs), [0, 1])

    def test_empty(self):
        assert argmax_labels(np.zeros((0, 3))).shape == (0,)


class TestBregmanDivergence:
    def test_point_against_itself(self, rng):
        f = spd_factorize(random_spd(rng, 3))
        z = rng.standard_normal(3)
        assert bregman_divergence(f, z, z) == pytest.approx(0.0, abs=1e-12)

    def test_euclidean_case(self):
        f = spd_factorize(np.eye(2))
        assert bregman_divergence(f, np.array([1.0, 0.0]), np.zeros(2)) == pytest.approx(1.0)

    def test_equals_squared_mahalanobis(self, rng):
        for _ in range(500):
            d = int(rng.integers(2, 7))
            f = spd_factorize(random_spd(rng, d))
            z, zp = rng.standard_normal(d) * 3, rng.standard_normal(d) * 3
            assert bregman_divergence(f, z, zp) == pytest.approx(
                mahalanobis_sq(f, z, zp), abs=1e-9
            )

    def test_dimension_mismatch(self):
        f = spd_factorize(np.eye(2))
        with pytest.raises(DimensionMismatch):
            bregman_divergence(f, np.zeros(3), np.zeros(2))


class TestBatchedClassify:
    def test_matches_single(self, rng):
        params = params_at(
            rng.standard_normal((3, 4)), [random_spd(rng, 4) for _ in range(3)]
        )
        pts = rng.standard_normal((8, 4))
        batch = classify_many(SOFT, params, pts)
        for i in range(8):
            single = classify_many(SOFT, params, pts[i : i + 1])[0]
            np.testing.assert_allclose(batch[i], single, atol=1e-15)

    def test_empty_block(self, rng):
        params = params_at([[0.0, 0.0]], [np.eye(2)])
        assert classify_many(SOFT, params, np.zeros((0, 2))).shape == (0, 1)

import math

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from mahashot import (
    DimensionMismatch,
    EmptyInput,
    FactorizationFailed,
    NonFiniteInput,
    NotSymmetric,
    SpdFactor,
    mahalanobis_sq,
    mahalanobis_sq_many,
    solve_spd,
    spd_factorize,
)
from mahashot.numerics import softmax_rows
from conftest import random_spd


class TestSpdFactorize:
    def test_identity(self):
        f = spd_factorize(np.eye(3), [0.0])
        np.testing.assert_array_equal(f.lower, np.eye(3))
        assert f.logdet == 0.0
        assert f.jitter == 0.0

    def test_diagonal_closed_form(self):
        f = spd_factorize(np.diag([4.0, 9.0]), [0.0])
        np.testing.assert_allclose(f.lower, np.diag([2.0, 3.0]))
        assert f.logdet == pytest.approx(math.log(36.0), abs=1e-14)

    def test_indefinite_needs_jitter_past_negative_eigenvalue(self):
        q = np.array([[1.0, 2.0], [2.0, 1.0]])
        # Oracle: direct eigendecomposition says q + eps*I is PD iff
        # eps exceeds the magnitude of the most negative eigenvalue.
        min_eig = np.linalg.eigvalsh(q).min()
        assert min_eig == pytest.approx(-1.0)
        schedule = [0.0, 1e-6, 1e-4, 1.5]
        f = spd_factorize(q, schedule)
        assert f.jitter == 1.5
        assert f.jitter > -min_eig
        # all smaller schedule entries fail outright
        with pytest.raises(FactorizationFailed):
            spd_factorize(q, [0.0, 1e-6, 1e-4])

    def test_default_schedule_fails_on_indefinite(self):
        with pytest.raises(FactorizationFailed):
            spd_factorize(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_not_symmetric(self):
        with pytest.raises(NotSymmetric):
            spd_factorize(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_reconstruction_within_tolerance(self, rng):
        for d in (2, 3, 5, 8):
            q = random_spd(rng, d)
            f = spd_factorize(q)
            rebuilt = f.lower @ f.lower.T
            target = q + f.jitter * np.eye(d)
            err = np.linalg.norm(rebuilt - target) / np.linalg.norm(target)
            assert err < 1e-8
            assert np.all(np.diag(f.lower) > 0)

    def test_logdet_cache_matches_diagonal_sum(self, rng):
        f = spd_factorize(random_spd(rng, 6))
        assert f.logdet == 2.0 * float(np.sum(np.log(np.diagonal(f.lower))))

    def test_rejects_nonsquare_and_nonfinite(self):
        with pytest.raises(DimensionMismatch):
            spd_factorize(np.ones((2, 3)))
        with pytest.raises(NonFiniteInput):
            spd_factorize(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestMahalanobis:
    def test_euclidean_case(self):
        f = spd_factorize(np.eye(2))
        assert mahalanobis_sq(f, np.array([1.0, 0.0]), np.zeros(2)) == pytest.approx(1.0)

    def test_coincident_points(self, rng):
        f = spd_factorize(random_spd(rng, 3))
        v = rng.standard_normal(3)
        assert mahalanobis_sq(f, v, v) == 0.0

    def test_diagonal_metric_direct_inverse(self):
        f = spd_factorize(np.diag([4.0, 1.0]))
        # direct inverse oracle: 2^2 / 4 = 1
        assert mahalanobis_sq(f, np.array([2.0, 0.0]), np.zeros(2)) == pytest.approx(1.0)

    def test_nonnegative_and_definite(self, rng):
        for _ in range(200):
            d = int(rng.integers(2, 7))
            f = spd_factorize(random_spd(rng, d))
            a, b = rng.standard_normal(d), rng.standard_normal(d)
            val = mahalanobis_sq(f, a, b)
            assert val >= 0.0
            assert val > 1e-10  # a == b has probability zero
            assert mahalanobis_sq(f, a, a) <= 1e-10

    def test_matches_explicit_inverse(self, rng):
        for _ in range(50):
            q = random_spd(rng, 5)
            f = spd_factorize(q)
            a, b = rng.standard_normal(5), rng.standard_normal(5)
            expected = (a - b) @ np.linalg.inv(q) @ (a - b)
            assert mahalanobis_sq(f, a, b) == pytest.approx(expected, rel=1e-9)

    def test_batched_matches_scalar(self, rng):
        q = random_spd(rng, 4)
        f = spd_factorize(q)
        pts = rng.standard_normal((10, 4))
        center = rng.standard_normal(4)
        batched = mahalanobis_sq_many(f, pts, center)
        for i in range(10):
            assert batched[i] == pytest.approx(mahalanobis_sq(f, pts[i], center), rel=1e-12)

    def test_dimension_mismatch(self, rng):
        f = spd_factorize(np.eye(3))
        with pytest.raises(DimensionMismatch):
            mahalanobis_sq(f, np.zeros(2), np.zeros(3))

    def test_solve_spd_applies_inverse(self, rng):
        q = random_spd(rng, 5)
        f = spd_factorize(q)
        v = rng.standard_normal(5)
        np.testing.assert_allclose(q @ solve_spd(f, v), v, atol=1e-9)


class TestTriangularSolves:
    """The solves call LAPACK directly; scipy's ``solve_triangular`` is the
    reference route they must match bit for bit."""

    @staticmethod
    def factors(rng, d):
        f = spd_factorize(random_spd(rng, d))
        fortran = np.asfortranarray(f.lower)
        assert f.lower.flags.c_contiguous and (d == 1 or not fortran.flags.c_contiguous)
        return f, SpdFactor(lower=fortran, logdet=f.logdet, jitter=f.jitter)

    def test_bitwise_equal_to_solve_triangular(self, rng):
        # The last size is the benchmark's d = 128 episode with 500 rows.
        for d, m in ((1, 7), (2, 7), (5, 7), (16, 7), (33, 7), (128, 500)):
            for f in self.factors(rng, d):
                pts, center = rng.standard_normal((m, d)), rng.standard_normal(d)
                y = solve_triangular(f.lower, (pts - center).T, lower=True, check_finite=False)
                assert np.array_equal(mahalanobis_sq_many(f, pts, center),
                                      np.einsum("ij,ij->j", y, y))
                y = solve_triangular(f.lower, pts[0] - center, lower=True, check_finite=False)
                assert mahalanobis_sq(f, pts[0], center) == float(y @ y)
                y = solve_triangular(f.lower, center, lower=True, check_finite=False)
                x = solve_triangular(f.lower.T, y, lower=False, check_finite=False)
                assert np.array_equal(solve_spd(f, center), x)

    def test_zero_rows(self, rng):
        for f in self.factors(rng, 4):
            out = mahalanobis_sq_many(f, np.zeros((0, 4)), np.zeros(4))
            assert out.shape == (0,) and out.dtype == np.float64

    def test_zero_diagonal_raises_factorization_failed(self):
        f = SpdFactor(lower=np.diag([1.0, 0.0]), logdet=-np.inf, jitter=0.0)
        v = np.ones(2)
        with pytest.raises(FactorizationFailed):
            mahalanobis_sq_many(f, v[None, :], np.zeros(2))
        with pytest.raises(FactorizationFailed):
            mahalanobis_sq(f, v, np.zeros(2))
        with pytest.raises(FactorizationFailed):
            solve_spd(f, v)


class TestStableSoftmax:
    """Row-wise softmax with max-subtraction (``softmax_rows``)."""

    def test_symmetry(self):
        np.testing.assert_allclose(softmax_rows([[0.0, 0.0]]), [[0.5, 0.5]])

    def test_huge_logits_no_overflow(self):
        out = softmax_rows([[1000.0, 1000.0], [-1000.0, -1000.0]])
        np.testing.assert_allclose(out, [[0.5, 0.5], [0.5, 0.5]])
        assert np.all(np.isfinite(out))

    def test_two_logit_closed_form(self):
        np.testing.assert_allclose(
            softmax_rows([[0.0, math.log(3.0)]]), [[0.25, 0.75]], atol=1e-15
        )

    def test_shift_invariance(self, rng):
        for _ in range(100):
            x = rng.standard_normal((3, int(rng.integers(1, 9)))) * 50
            c = rng.standard_normal((3, 1)) * 1000
            np.testing.assert_allclose(softmax_rows(x), softmax_rows(x + c), atol=1e-12)

    def test_sums_to_one(self, rng):
        for _ in range(100):
            x = rng.standard_normal((4, 5)) * 30
            assert np.max(np.abs(softmax_rows(x).sum(axis=1) - 1.0)) < 1e-12

    def test_empty_and_nonfinite(self):
        assert softmax_rows(np.zeros((0, 3))).shape == (0, 3)
        with pytest.raises(EmptyInput):
            softmax_rows(np.zeros((2, 0)))
        with pytest.raises(NonFiniteInput):
            softmax_rows([[0.0, np.inf]])
        with pytest.raises(NonFiniteInput):
            softmax_rows([[0.0, 1.0], [np.nan, 0.0]])
        with pytest.raises(DimensionMismatch):
            softmax_rows([0.0, 1.0])

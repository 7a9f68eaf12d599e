import numpy as np
import pytest

import mahashot.estimation as estimation

from mahashot import (
    AssignmentRule,
    RefineConfig,
    Task,
    classify_many,
    classify_task,
    estimate_unweighted,
    generate_synthetic,
    mahalanobis_sq_many,
    refine,
    sample_fixed,
)
from mahashot.refinement import _stop_at
from conftest import make_task, without_query
from oracles import straight_line_refine
from test_acceptance import BENCH_SAMPLER, BENCH_SPEC  # c07's dataset and sampler

BASELINE = RefineConfig(min_steps=0, max_steps=1)


def separated_task(rng, spread=5.0, queries=10):
    means = np.array([[-spread, 0.0], [spread, 0.0]])
    support = np.vstack([means[k] + rng.standard_normal((3, 2)) for k in range(2)])
    truth = rng.integers(0, 2, size=queries)
    query = means[truth] + rng.standard_normal((queries, 2))
    return Task(
        support_z=support,
        support_y=np.repeat([0, 1], 3),
        query_z=query,
        truth=truth,
        way=2,
    )


class TestSingleIterationBaseline:
    def test_equals_direct_classification(self, rng):
        for _ in range(50):
            task = make_task(rng, way=3, d=4, queries=6)
            trace = refine(task, BASELINE)
            params, _ = estimate_unweighted(task, BASELINE.beta)
            direct = classify_many(BASELINE.rule, params, task.query_z)
            assert trace.iterations_run == 1
            assert not trace.converged_early
            np.testing.assert_allclose(trace.final_resp.query, direct, atol=1e-12)

    def test_holds_for_gmm_rule_too(self, rng):
        cfg = RefineConfig(min_steps=0, max_steps=1, rule=AssignmentRule("gmm"))
        task = make_task(rng, way=3, d=4, queries=6)
        trace = refine(task, cfg)
        params, _ = estimate_unweighted(task, cfg.beta)
        np.testing.assert_allclose(
            trace.final_resp.query, classify_many(cfg.rule, params, task.query_z), atol=1e-12
        )


class TestEmptyQuery:
    # With no query rows refine stops after one iteration whatever the
    # bounds: a min_steps above 1, a cap of 1, or a min_steps at the cap.
    @pytest.mark.parametrize(("min_steps", "max_steps"), [(2, 6), (0, 1), (5, 5)])
    def test_single_iteration_with_unweighted_params(self, rng, min_steps, max_steps):
        task = without_query(make_task(rng, way=3, d=4))
        trace = refine(task, RefineConfig(min_steps=min_steps, max_steps=max_steps))
        assert trace.iterations_run == 1
        assert trace.converged_early
        params, _ = estimate_unweighted(task, 1.0)
        for a, b in zip(trace.final_params, params):
            np.testing.assert_array_equal(a.mu, b.mu)
            np.testing.assert_array_equal(a.q, b.q)


class TestConvergence:
    def test_well_separated_task_stabilizes_at_two(self, rng):
        for _ in range(20):
            task = separated_task(rng)
            trace = refine(task, RefineConfig(min_steps=0, max_steps=10))
            assert trace.converged_early
            assert trace.iterations_run == 2  # labels already stable after one pass
            np.testing.assert_array_equal(
                trace.labels_per_iteration[0], trace.labels_per_iteration[1]
            )

    def test_min_steps_forces_extra_iterations(self, rng):
        task = separated_task(rng)
        trace = refine(task, RefineConfig(min_steps=4, max_steps=10))
        assert trace.iterations_run == 4
        assert trace.converged_early

    def test_exact_iteration_count_when_min_equals_max(self, rng):
        for s in (1, 2, 3, 5):
            task = make_task(rng, way=3, d=4, queries=6)
            trace = refine(task, RefineConfig(min_steps=s, max_steps=s))
            assert trace.iterations_run == s
            assert len(trace.labels_per_iteration) == s

    def test_iterations_never_exceed_max(self, rng):
        for _ in range(30):
            task = make_task(rng, way=3, d=4, queries=6, spread=0.5)
            mx = int(rng.integers(1, 7))
            trace = refine(task, RefineConfig(min_steps=0, max_steps=mx))
            assert 1 <= trace.iterations_run <= mx
            assert len(trace.labels_per_iteration) == trace.iterations_run


class TestSupportRowsPinned:
    def test_one_hot_on_true_labels_at_every_iteration(self, rng):
        task = make_task(rng, way=3, d=4, queries=8, spread=1.0)
        trace = refine(task, RefineConfig(min_steps=2, max_steps=5))
        expected = np.zeros((task.n_support, task.way))
        expected[np.arange(task.n_support), task.support_y] = 1.0
        np.testing.assert_array_equal(trace.final_resp.support, expected)


class TestDeterminism:
    def test_identical_inputs_identical_traces(self, rng):
        task = make_task(rng, way=4, d=5, queries=10, spread=1.5)
        cfg = RefineConfig(min_steps=2, max_steps=6)
        t1, t2 = refine(task, cfg), refine(task, cfg)
        assert t1.iterations_run == t2.iterations_run
        assert t1.converged_early == t2.converged_early
        np.testing.assert_array_equal(t1.final_resp.w, t2.final_resp.w)
        for a, b in zip(t1.final_params, t2.final_params):
            np.testing.assert_array_equal(a.mu, b.mu)
            np.testing.assert_array_equal(a.q, b.q)

    def test_refine_does_not_mutate_task(self, rng):
        task = make_task(rng, way=2, d=3, queries=4)
        before = (task.support_z.copy(), task.query_z.copy())
        refine(task, RefineConfig(min_steps=2, max_steps=4))
        np.testing.assert_array_equal(task.support_z, before[0])
        np.testing.assert_array_equal(task.query_z, before[1])


class TestQueryOrderEquivariance:
    @pytest.mark.parametrize("rule", [AssignmentRule(), AssignmentRule("gmm")])
    def test_permuting_queries_permutes_labels(self, rng, rule):
        cfg = RefineConfig(min_steps=2, max_steps=6, rule=rule)
        stops = set()
        for _ in range(30):
            task = make_task(rng, way=4, d=5, queries=16, spread=1.5)
            perm = rng.permutation(task.n_query)
            permuted = Task(
                support_z=task.support_z,
                support_y=task.support_y,
                query_z=task.query_z[perm],
                truth=task.truth[perm],
                way=task.way,
            )
            t1, t2 = refine(task, cfg), refine(permuted, cfg)
            assert t2.iterations_run == t1.iterations_run
            assert t2.converged_early == t1.converged_early
            assert len(t2.labels_per_iteration) == len(t1.labels_per_iteration)
            for a, b in zip(t1.labels_per_iteration, t2.labels_per_iteration):
                np.testing.assert_array_equal(b, a[perm])
            stops.add((t1.iterations_run, t1.converged_early))
        assert len(stops) > 1  # the tasks do not all stop the same way


def _smallest_margin(task, cfg):
    """Smallest gap between a query's two likeliest classes, over the first
    ``cfg.max_steps`` iterations of refinement."""
    gaps = []
    for t in range(1, cfg.max_steps + 1):
        probs = refine(task, RefineConfig(t, t, cfg.rule, cfg.beta)).final_resp.query
        top = np.sort(probs, axis=1)
        gaps.append(np.min(top[:, -1] - top[:, -2]))
    return min(gaps)


class TestClassRelabelEquivariance:
    @pytest.mark.parametrize("rule", [AssignmentRule(), AssignmentRule("gmm")])
    def test_relabelling_classes_permutes_every_iterations_labels(self, rule):
        cfg = RefineConfig(min_steps=2, max_steps=6, rule=rule)
        checked, stops = 0, set()
        for seed in range(30):
            rng = np.random.default_rng(seed)
            task = make_task(rng, way=4, d=5, queries=16, spread=1.5)
            # Below this margin a relabelled argmax may turn on rounding.
            if _smallest_margin(task, cfg) < 1e-6:
                continue
            perm = rng.permutation(task.way)  # class k becomes class perm[k]
            relabelled = Task(
                support_z=task.support_z,
                support_y=perm[task.support_y],
                query_z=task.query_z,
                truth=perm[task.truth],
                way=task.way,
            )
            t1, t2 = refine(task, cfg), refine(relabelled, cfg)
            assert t2.iterations_run == t1.iterations_run
            assert t2.converged_early == t1.converged_early
            assert len(t2.labels_per_iteration) == len(t1.labels_per_iteration)
            for a, b in zip(t1.labels_per_iteration, t2.labels_per_iteration):
                np.testing.assert_array_equal(b, perm[a])
            checked += 1
            stops.add((t1.iterations_run, t1.converged_early))
        assert checked >= 20
        assert len(stops) > 1  # the tasks do not all stop the same way


def recomputed_repeats(task, labels_per_iteration):
    """Each iteration's repeat flag recomputed from the labels: its labels
    equal those of the iteration before, or the task has no query rows."""
    return [
        task.n_query == 0 or (t > 1 and np.array_equal(labels, labels_per_iteration[t - 2]))
        for t, labels in enumerate(labels_per_iteration, 1)
    ]


# c09's step grid, each min clamped to its max as ablation cells clamp it.
C09_GRID = list(dict.fromkeys((min(mn, mx), mx) for mn in range(5) for mx in range(1, 11)))


class TestStopReplay:
    @pytest.mark.parametrize("beta", [1.0, 0.0])
    @pytest.mark.parametrize("rule", [AssignmentRule(), AssignmentRule("gmm")])
    def test_stop_at_picks_the_stop_of_refine_at_every_grid_cell(self, rule, beta):
        tasks = [
            make_task(np.random.default_rng(seed), way=4, d=5, queries=16, spread=1.5)
            for seed in range(12)
        ]
        tasks.append(without_query(tasks[0]))
        longest = RefineConfig(4, 10, rule, beta)
        stops = set()
        for task in tasks:
            run = refine(task, longest)
            assert run.repeated == recomputed_repeats(task, run.labels_per_iteration)
            for mn, mx in C09_GRID:
                cfg = RefineConfig(mn, mx, rule, beta)
                trace = refine(task, cfg)
                assert trace.repeated == recomputed_repeats(task, trace.labels_per_iteration)
                t = _stop_at(run.repeated, cfg)
                assert trace.iterations_run == t
                assert trace.converged_early == run.repeated[t - 1]
                np.testing.assert_array_equal(
                    trace.labels_per_iteration[-1], run.labels_per_iteration[t - 1]
                )
                stops.add((t, trace.converged_early))
        # Runs stop on a repeat and at the cap, at more than one iteration.
        assert {converged for _, converged in stops} == {True, False}
        assert len({t for t, _ in stops}) > 2


def shifted(task, offset):
    return Task(
        support_z=task.support_z + offset,
        support_y=task.support_y,
        query_z=task.query_z + offset,
        truth=task.truth,
        way=task.way,
    )


def query_distances(trace, task):
    """(queries, classes) squared Mahalanobis distances under the final parameters."""
    return np.stack(
        [mahalanobis_sq_many(p.q_factor, task.query_z, p.mu) for p in trace.final_params], axis=1
    )


class TestTranslationInvariance:
    # Shifted means are exact only to the offset's rounding, so the check is
    # not bitwise. At beta = 0 the first iteration factorizes singular 1-shot
    # class covariances with jitter, which turns that rounding into a relative
    # error of up to about 1e-4 in the distances at any offset.
    @pytest.mark.parametrize(("beta", "rtol"), [(1.0, 1e-6), (0.0, 1e-3)])
    def test_shifting_every_row_keeps_labels_and_distances(self, beta, rtol):
        ds = generate_synthetic(BENCH_SPEC)
        cfg = RefineConfig(2, 4, beta=beta)
        direction = np.random.default_rng(1).standard_normal(BENCH_SPEC.dim)
        direction /= np.linalg.norm(direction)
        tasks = [sample_fixed(ds, BENCH_SAMPLER, i) for i in range(100)]
        # Below this margin a shifted argmax may turn on rounding.
        checked = [task for task in tasks if _smallest_margin(task, cfg) >= 1e-4]
        assert len(checked) >= 0.9 * len(tasks)
        for task in checked:
            base = refine(task, cfg)
            for offset in (1e2, 1e4, 1e6):
                moved = shifted(task, offset * direction)
                trace = refine(moved, cfg)
                assert trace.iterations_run == base.iterations_run
                for a, b in zip(base.labels_per_iteration, trace.labels_per_iteration):
                    np.testing.assert_array_equal(b, a)
                np.testing.assert_allclose(
                    query_distances(trace, moved), query_distances(base, task), rtol=rtol
                )


def mapped(task, a, b):
    """The task with every row z replaced by a z + b."""
    return Task(
        support_z=task.support_z @ a.T + b,
        support_y=task.support_y,
        query_z=task.query_z @ a.T + b,
        truth=task.truth,
        way=task.way,
    )


@pytest.fixture
def jitters(monkeypatch):
    """The nonzero jitter of every class factor the estimator made."""
    seen = []
    real = estimation._factorize_stack

    def spy(q):
        factors = real(q)
        seen.extend(f.jitter for f in factors if f.jitter != 0.0)
        return factors

    monkeypatch.setattr(estimation, "_factorize_stack", spy)
    return seen


class TestAffineEquivariance:
    @pytest.mark.parametrize("rule", [AssignmentRule(), AssignmentRule("gmm")])
    def test_full_rank_classes_are_equivariant_under_affine_maps(self, rule, jitters):
        # With more shots than dimensions, every class covariance is full
        # rank, so at beta = 0 nothing jitters and a z + b maps each Q_k to
        # a Q_k a^T: distances, and so every iteration, are unchanged.
        cfg = RefineConfig(min_steps=2, max_steps=6, rule=rule, beta=0.0)
        checked, stops = 0, set()
        for seed in range(30):
            rng = np.random.default_rng(seed)
            d = 5
            shots = [int(s) for s in rng.integers(d + 1, d + 4, size=4)]
            task = make_task(rng, way=4, shots=shots, d=d, queries=16, spread=1.5)
            q_mat, _ = np.linalg.qr(rng.standard_normal((d, d)))
            a = q_mat @ np.diag(rng.uniform(0.5, 2.0, size=d))
            b = 3.0 * rng.standard_normal(d)
            # Below this margin a mapped argmax may turn on rounding.
            if _smallest_margin(task, cfg) < 1e-6:
                continue
            t1, t2 = refine(task, cfg), refine(mapped(task, a, b), cfg)
            assert t2.iterations_run == t1.iterations_run
            assert t2.converged_early == t1.converged_early
            for x, y in zip(t1.labels_per_iteration, t2.labels_per_iteration):
                np.testing.assert_array_equal(y, x)
            # Measured: at most 8e-14.
            np.testing.assert_allclose(t2.final_resp.query, t1.final_resp.query, rtol=0, atol=1e-9)
            checked += 1
            stops.add(t1.iterations_run)
        assert checked >= 27
        assert len(stops) > 1
        assert jitters == []

    @pytest.mark.parametrize("rule", [AssignmentRule(), AssignmentRule("gmm")])
    def test_one_shot_labels_are_equivariant_under_similarity_maps(self, rule, jitters):
        # c07's 1-shot tasks: every class covariance is singular, so the
        # first iteration factorizes Q_k + 1e-8 I. An isotropic jitter maps
        # onto itself, rescaled, only under rotations, uniform scalings and
        # shifts; under a general affine map it weighs the null directions
        # of the mapped Q_k differently, and on these tasks the first
        # iteration's labels then differ in all of them. Later iterations
        # fold the queries in, are full rank and do not jitter.
        ds = generate_synthetic(BENCH_SPEC)
        cfg = RefineConfig(2, 4, rule, beta=0.0)
        tasks = [sample_fixed(ds, BENCH_SAMPLER, i) for i in range(60)]
        # Below this margin the rescaled jitter may turn an argmax.
        checked = [task for task in tasks if _smallest_margin(task, cfg) >= 1e-4]
        assert len(checked) >= 0.9 * len(tasks)
        rng = np.random.default_rng(7)
        for task in checked:
            q_mat, _ = np.linalg.qr(rng.standard_normal((task.dim, task.dim)))
            a = rng.uniform(0.5, 2.0) * q_mat
            b = 3.0 * rng.standard_normal(task.dim)
            t1, t2 = refine(task, cfg), refine(mapped(task, a, b), cfg)
            assert t2.iterations_run == t1.iterations_run
            for x, y in zip(t1.labels_per_iteration, t2.labels_per_iteration):
                np.testing.assert_array_equal(y, x)
        assert set(jitters) == {1e-8}


class TestBetaZeroLimit:
    @pytest.mark.parametrize("rule", [AssignmentRule(), AssignmentRule("gmm")])
    def test_singular_classes_at_beta_zero_match_beta_1e8(self, rule):
        # c07's 1-shot classes are singular at iteration 1. At beta = 0 each is
        # factorized with DEFAULT_JITTER's first nonzero step, as Q_k + 1e-8 I,
        # which is Q_k at beta = 1e-8 bit for bit: beta = 0 is the beta -> 0+
        # limit there. Later iterations are full rank and take no jitter.
        ds = generate_synthetic(BENCH_SPEC)
        for i in range(200):
            task = sample_fixed(ds, BENCH_SAMPLER, i)
            zero, small = (refine(task, RefineConfig(0, 1, rule, beta)) for beta in (0.0, 1e-8))
            assert [p.q_factor.jitter for p in zero.final_params] == [1e-8] * task.way
            assert [p.q_factor.jitter for p in small.final_params] == [0.0] * task.way
            assert zero.final_resp.w.tobytes() == small.final_resp.w.tobytes()
            zero, small = (refine(task, RefineConfig(2, 4, rule, beta)) for beta in (0.0, 1e-8))
            assert zero.iterations_run == small.iterations_run
            for a, b in zip(zero.labels_per_iteration, small.labels_per_iteration):
                np.testing.assert_array_equal(b, a)


class TestClassifyTask:
    def test_single_class_single_query(self):
        task = Task(
            support_z=np.array([[0.0, 0.0], [0.1, 0.1]]),
            support_y=np.array([0, 0]),
            query_z=np.array([[5.0, 5.0]]),
            truth=np.array([0]),
            way=1,
        )
        np.testing.assert_array_equal(classify_task(task, BASELINE), [0])

    def test_query_at_second_centroid(self, rng):
        task = separated_task(rng)
        probe = Task(
            support_z=task.support_z,
            support_y=task.support_y,
            query_z=np.array([[5.0, 0.0]]),
            truth=np.array([1]),
            way=2,
        )
        np.testing.assert_array_equal(
            classify_task(probe, RefineConfig(min_steps=2, max_steps=4)), [1]
        )

    def test_matches_straight_line_reimplementation(self, rng):
        # second implementation as oracle over 100 seeded tasks with a mix
        # of step bounds
        agreements = 0
        for i in range(100):
            task_rng = np.random.default_rng(1000 + i)
            task = make_task(task_rng, way=3, d=4, queries=9, spread=1.2)
            mn = int(task_rng.integers(0, 4))
            mx = int(task_rng.integers(max(1, mn), 7))
            cfg = RefineConfig(min_steps=mn, max_steps=mx)
            got = classify_task(task, cfg)
            want, want_iters = straight_line_refine(task, mn, mx)
            trace = refine(task, cfg)
            assert trace.iterations_run == want_iters
            np.testing.assert_array_equal(got, want)
            agreements += 1
        assert agreements == 100


class TestConfigValidation:
    def test_bounds(self):
        with pytest.raises(ValueError):
            RefineConfig(min_steps=-1, max_steps=2)
        with pytest.raises(ValueError):
            RefineConfig(min_steps=3, max_steps=2)
        with pytest.raises(ValueError):
            RefineConfig(min_steps=0, max_steps=0)
        with pytest.raises(ValueError):
            RefineConfig(min_steps=0, max_steps=1, beta=-0.5)

    @pytest.mark.parametrize("beta", [float("inf"), float("nan")])
    def test_beta_must_be_finite(self, beta):
        with pytest.raises(ValueError, match="finite"):
            RefineConfig(beta=beta)

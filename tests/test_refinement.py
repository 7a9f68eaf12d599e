import numpy as np
import pytest

from mahashot import (
    AssignmentRule,
    RefineConfig,
    Task,
    classify_many,
    classify_task,
    estimate_unweighted,
    refine,
)
from conftest import make_task, without_query
from oracles import straight_line_refine

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

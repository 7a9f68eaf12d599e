from types import SimpleNamespace

import numpy as np
import pytest
from scipy import stats

from mahashot import (
    EmbeddingDataset,
    FixedSamplerConfig,
    InsufficientClasses,
    InsufficientExamples,
    InvalidSpec,
    SyntheticSpec,
    VariableSamplerConfig,
    generate_synthetic,
    sample_fixed,
    sample_task,
    sample_variable,
)


@pytest.fixture(scope="module")
def big_ds():
    # 60 classes x 130 examples: enough for shot draws up to 100 plus 10
    # query examples everywhere
    return generate_synthetic(
        SyntheticSpec(n_classes=60, dim=4, per_class=130, seed=99)
    )


def tagged_dataset(n_classes=8, per_class=30, d=3):
    """Every embedding globally unique, so instances can be tracked by value."""
    classes = {}
    counter = 0.0
    for c in range(n_classes):
        rows = np.zeros((per_class, d))
        rows[:, 0] = np.arange(per_class) + counter
        rows[:, 1] = c
        counter += per_class
        classes[f"c{c}"] = rows
    return EmbeddingDataset(classes=classes)


def assert_rows_carry_their_class(task):
    """Rows labelled k carry the tag of ``class_names[k]``; labels run class-major."""
    tags = np.array([int(name[1:]) for name in task.class_names])
    np.testing.assert_array_equal(task.support_z[:, 1], tags[task.support_y])
    np.testing.assert_array_equal(task.query_z[:, 1], tags[task.truth])
    for labels in (task.support_y, task.truth):
        np.testing.assert_array_equal(labels, np.sort(labels))


class TestFixedSampler:
    def test_five_way_one_shot_sizes(self, big_ds):
        cfg = FixedSamplerConfig(way=5, shot=1, query_per_class=10, seed=0)
        task = sample_fixed(big_ds, cfg, 0)
        assert task.n_support == 5
        assert task.n_query == 50
        assert task.way == 5
        np.testing.assert_array_equal(task.class_counts(), np.ones(5))

    def test_two_class_dataset_forces_both(self):
        ds = tagged_dataset(n_classes=2)
        cfg = FixedSamplerConfig(way=2, shot=1, query_per_class=3, seed=1)
        for i in range(10):
            task = sample_fixed(ds, cfg, i)
            assert sorted(task.class_names) == ["c0", "c1"]

    def test_bitwise_determinism(self, big_ds):
        cfg = FixedSamplerConfig(way=4, shot=3, query_per_class=5, seed=7)
        a, b = sample_fixed(big_ds, cfg, 123), sample_fixed(big_ds, cfg, 123)
        np.testing.assert_array_equal(a.support_z, b.support_z)
        np.testing.assert_array_equal(a.query_z, b.query_z)
        np.testing.assert_array_equal(a.truth, b.truth)
        assert a.class_names == b.class_names

    def test_different_indices_differ(self, big_ds):
        cfg = FixedSamplerConfig(way=4, shot=3, query_per_class=5, seed=7)
        a, b = sample_fixed(big_ds, cfg, 0), sample_fixed(big_ds, cfg, 1)
        assert not np.array_equal(a.support_z, b.support_z)

    def test_insufficient_examples(self):
        ds = tagged_dataset(n_classes=3, per_class=5)
        cfg = FixedSamplerConfig(way=3, shot=4, query_per_class=10, seed=0)
        with pytest.raises(InsufficientExamples):
            sample_fixed(ds, cfg, 0)

    def test_insufficient_classes(self):
        ds = tagged_dataset(n_classes=3)
        with pytest.raises(InsufficientClasses):
            sample_fixed(ds, FixedSamplerConfig(way=5, shot=1, seed=0), 0)

    def test_support_query_disjoint(self):
        ds = tagged_dataset()
        cfg = FixedSamplerConfig(way=4, shot=5, query_per_class=10, seed=3)
        for i in range(20):
            task = sample_fixed(ds, cfg, i)
            support = {tuple(z) for z in task.support_z}
            query = {tuple(z) for z in task.query_z}
            assert not support & query
            assert_rows_carry_their_class(task)


class TestVariableSampler:
    def test_way_and_cap_bounds(self, big_ds):
        cfg = VariableSamplerConfig(seed=5)
        for i in range(200):
            task = sample_variable(big_ds, cfg, i)
            assert 5 <= task.way <= 50
            assert task.n_support <= 500
            counts = task.class_counts()
            assert counts.min() >= 1
            query_counts = np.bincount(task.truth, minlength=task.way)
            assert query_counts.min() >= 1
            assert query_counts.max() <= 10

    def test_way_clamped_to_class_count(self):
        ds = tagged_dataset(n_classes=5, per_class=30)
        cfg = VariableSamplerConfig(way_min=5, way_max=50, seed=1)
        for i in range(10):
            assert sample_variable(ds, cfg, i).way == 5

    def test_way_histogram_uniform(self, big_ds):
        cfg = VariableSamplerConfig(seed=11)
        ways = [sample_variable(big_ds, cfg, i).way for i in range(3000)]
        counts = np.bincount(ways, minlength=51)[5:51]
        assert counts.sum() == 3000
        result = stats.chisquare(counts)
        assert result.pvalue > 0.01

    def test_shot_marginal_uniform_before_cap(self, big_ds):
        # with the cap effectively disabled the drawn shots are exactly the
        # clamped uniform draws; every class here clamps to [1, 100]
        cfg = VariableSamplerConfig(support_cap=10**9, seed=13)
        shots = []
        for i in range(400):
            task = sample_variable(big_ds, cfg, i)
            shots.extend(task.class_counts().tolist())
        counts = np.bincount(shots, minlength=101)[1:101]
        result = stats.chisquare(counts)
        assert result.pvalue > 0.01

    def test_rescale_triggers_and_respects_floor(self, big_ds):
        # force tiny cap so rescaling happens constantly
        cfg = VariableSamplerConfig(support_cap=60, seed=17)
        rescaled = 0
        for i in range(100):
            task = sample_variable(big_ds, cfg, i)
            counts = task.class_counts()
            assert counts.sum() <= 60
            assert counts.min() >= 1
            rescaled += int(counts.sum() >= 50)
        assert rescaled > 0

    def test_cap_smaller_than_way_rejected(self):
        ds = tagged_dataset(n_classes=8, per_class=30)
        cfg = VariableSamplerConfig(way_min=8, way_max=8, support_cap=5, seed=0)
        with pytest.raises(InsufficientExamples):
            sample_variable(ds, cfg, 0)

    def test_query_shrinks_only_under_scarcity(self):
        # a class with exactly 4 examples yields 3 query + 1 support
        classes = {"rich": np.random.default_rng(0).standard_normal((40, 2))}
        classes["poor"] = np.random.default_rng(1).standard_normal((4, 2))
        ds = EmbeddingDataset(classes=classes)
        cfg = VariableSamplerConfig(way_min=2, way_max=2, query_per_class=10, seed=2)
        task = sample_variable(ds, cfg, 0)
        poor_local = task.class_names.index("poor")
        rich_local = task.class_names.index("rich")
        query_counts = np.bincount(task.truth, minlength=2)
        assert query_counts[poor_local] == 3
        assert query_counts[rich_local] == 10
        assert task.class_counts()[poor_local] == 1

    def test_single_example_class_rejected(self):
        ds = EmbeddingDataset(
            classes={
                "ok": np.zeros((10, 2)) + np.arange(10)[:, None],
                "lonely": np.ones((1, 2)),
            }
        )
        cfg = VariableSamplerConfig(way_min=2, way_max=2, seed=0)
        with pytest.raises(InsufficientExamples):
            sample_variable(ds, cfg, 0)

    def test_insufficient_classes(self):
        ds = tagged_dataset(n_classes=3)
        with pytest.raises(InsufficientClasses):
            sample_variable(ds, VariableSamplerConfig(way_min=5, seed=0), 0)

    def test_support_query_disjoint(self):
        ds = tagged_dataset(n_classes=10, per_class=25)
        cfg = VariableSamplerConfig(way_min=5, way_max=10, shot_max=12, seed=23)
        for i in range(30):
            task = sample_variable(ds, cfg, i)
            support = {tuple(z) for z in task.support_z}
            query = {tuple(z) for z in task.query_z}
            assert not support & query
            assert_rows_carry_their_class(task)

    def test_config_validation(self):
        with pytest.raises(InvalidSpec):
            VariableSamplerConfig(way_min=0)
        with pytest.raises(InvalidSpec):
            VariableSamplerConfig(way_min=10, way_max=5)
        with pytest.raises(InvalidSpec):
            VariableSamplerConfig(shot_min=5, shot_max=2)
        with pytest.raises(InvalidSpec):
            FixedSamplerConfig(way=1, shot=1)
        for cls, fields, match in [
            (VariableSamplerConfig, {"query_per_class": 0}, "must be positive"),
            (VariableSamplerConfig, {"support_cap": 0}, "must be positive"),
            (VariableSamplerConfig, {"seed": -1}, "seed must be nonnegative"),
            (FixedSamplerConfig, {"way": 5, "shot": 0}, "shot must be >= 1"),
            (FixedSamplerConfig, {"way": 5, "shot": 1, "query_per_class": 0}, "query_per_class"),
            (FixedSamplerConfig, {"way": 5, "shot": 1, "seed": -1}, "seed must be nonnegative"),
        ]:
            with pytest.raises(InvalidSpec, match=match):
                cls(**fields)

    @pytest.mark.parametrize(
        "cfg", [VariableSamplerConfig(), FixedSamplerConfig(way=5, shot=1)], ids=["variable", "fixed"]
    )
    def test_negative_episode_index(self, big_ds, cfg):
        sample_task(big_ds, cfg, 0)
        with pytest.raises(InvalidSpec, match="episode index must be nonnegative"):
            sample_task(big_ds, cfg, -1)

    def test_unknown_config_type(self, big_ds):
        with pytest.raises(InvalidSpec, match="unknown sampler config type SimpleNamespace"):
            sample_task(big_ds, SimpleNamespace(seed=0), 0)


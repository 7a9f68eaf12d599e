from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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


def tagged_dataset(n_classes=8, per_class=30, d=3, counts=None):
    """Every embedding globally unique, so instances can be tracked by value.
    ``counts``, if given, is each class's example count in place of the
    first two arguments."""
    if counts is None:
        counts = [per_class] * n_classes
    classes = {}
    counter = 0.0
    for c, n in enumerate(counts):
        rows = np.zeros((n, d))
        rows[:, 0] = np.arange(n) + counter
        rows[:, 1] = c
        counter += n
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
        # A cap below way_min can hold no episode: the config rejects it.
        with pytest.raises(InvalidSpec, match="support_cap 5 cannot hold one example for each"
                                              " of way_min 8 classes"):
            VariableSamplerConfig(way_min=8, way_max=8, support_cap=5, seed=0)
        # A cap at way_min holds some episodes; one whose drawn way is above it fails.
        ds = tagged_dataset(n_classes=8, per_class=30)
        cfg = VariableSamplerConfig(way_min=5, way_max=8, support_cap=5, seed=0)
        ways = []
        for index in range(12):
            try:
                ways.append(sample_variable(ds, cfg, index).way)
            except InsufficientExamples as exc:
                assert str(exc).startswith("support cap 5 cannot hold one example for each of ")
                ways.append(None)
        assert None in ways and 5 in ways

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
        "cls, fields",
        [(VariableSamplerConfig, {}), (FixedSamplerConfig, {"way": 5, "shot": 1})],
        ids=["variable", "fixed"],
    )
    def test_seed_must_fit_a_philox_key(self, big_ds, cls, fields):
        # Philox takes a 128-bit key: the largest seed draws episodes, and
        # the next is a config error, not numpy's error inside an episode.
        sample_task(big_ds, cls(**fields, seed=2**128 - 1), 0)
        for seed in (2**128, 2**200):
            with pytest.raises(InvalidSpec, match=r"seed must be below 2\*\*128"):
                cls(**fields, seed=seed)

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



# Derandomized and without an example database: the same examples every run.
PROPERTY_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)
CLASS_COUNTS = st.lists(st.integers(1, 40), min_size=1, max_size=12)
SEEDS = st.integers(0, 2**63)
INDICES = st.integers(0, 10**9)


@st.composite
def variable_configs(draw):
    way_min = draw(st.integers(1, 8))
    shot_min = draw(st.integers(1, 10))
    return VariableSamplerConfig(
        way_min=way_min,
        way_max=draw(st.integers(way_min, 16)),
        shot_min=shot_min,
        shot_max=draw(st.integers(shot_min, 60)),
        query_per_class=draw(st.integers(1, 15)),
        # Caps near the way make the rescale floor every class at one shot.
        support_cap=draw(st.integers(way_min, 120) | st.integers(way_min, 16)),
        seed=draw(SEEDS),
    )


@st.composite
def fixed_configs(draw):
    return FixedSamplerConfig(
        way=draw(st.integers(2, 6)),
        shot=draw(st.integers(1, 5)),
        query_per_class=draw(st.integers(1, 10)),
        seed=draw(SEEDS),
    )


def assert_disjoint_and_redrawn(ds, cfg, index, task):
    """Every row is drawn once, support and query share none, rows carry
    their class, and the same (seed, index) redraws the task bitwise."""
    tags = np.concatenate([task.support_z[:, 0], task.query_z[:, 0]])
    assert np.unique(tags).size == tags.size
    assert_rows_carry_their_class(task)
    again = sample_task(ds, cfg, index)
    for name in ("support_z", "support_y", "query_z", "truth"):
        assert getattr(again, name).tobytes() == getattr(task, name).tobytes()
    assert again.class_names == task.class_names


class TestSamplerProperties:
    @PROPERTY_SETTINGS
    @given(counts=CLASS_COUNTS, cfg=variable_configs(), index=INDICES)
    def test_variable_episode_bounds(self, counts, cfg, index):
        ds = tagged_dataset(counts=counts)
        try:
            task = sample_variable(ds, cfg, index)
        except InsufficientClasses:
            assert len(counts) < cfg.way_min
            return
        except InsufficientExamples:
            # A drawn class has one example, or the cap cannot hold one a class.
            assert min(counts) < 2 or cfg.support_cap < min(cfg.way_max, len(counts))
            return
        assert cfg.way_min <= task.way <= min(cfg.way_max, len(counts))
        shots = task.class_counts()
        assert shots.min() >= 1
        assert shots.sum() <= cfg.support_cap
        queries = np.bincount(task.truth, minlength=task.way)
        assert 1 <= queries.min() and queries.max() <= cfg.query_per_class
        assert_disjoint_and_redrawn(ds, cfg, index, task)

    @PROPERTY_SETTINGS
    @given(counts=CLASS_COUNTS, cfg=fixed_configs(), index=INDICES)
    def test_fixed_episode_bounds(self, counts, cfg, index):
        ds = tagged_dataset(counts=counts)
        try:
            task = sample_fixed(ds, cfg, index)
        except InsufficientClasses:
            assert len(counts) < cfg.way
            return
        except InsufficientExamples:
            assert min(counts) < cfg.shot + cfg.query_per_class
            return
        assert task.way == cfg.way
        np.testing.assert_array_equal(task.class_counts(), np.full(cfg.way, cfg.shot))
        queries = np.bincount(task.truth, minlength=task.way)
        np.testing.assert_array_equal(queries, np.full(cfg.way, cfg.query_per_class))
        assert_disjoint_and_redrawn(ds, cfg, index, task)

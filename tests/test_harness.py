import dataclasses
import functools
import itertools
import json
import multiprocessing
import pickle
from multiprocessing.reduction import ForkingPickler

import numpy as np
import pytest

import mahashot.cli as cli
import mahashot.estimation as estimation
import mahashot.harness as harness
from mahashot import (
    AblationSpec,
    AssignmentRule,
    DegenerateClass,
    EmbeddingDataset,
    FixedSamplerConfig,
    RefineConfig,
    SyntheticSpec,
    emit_report,
    evaluate,
    generate_synthetic,
    refine,
    render_report,
    run_ablation,
    sample_task,
    write_dataset,
)
from mahashot.harness import EpisodeFailure, EpisodeOutcome, _aggregate
from conftest import without_query


@pytest.fixture(scope="module")
def small_ds():
    return generate_synthetic(
        SyntheticSpec(n_classes=8, dim=4, mean_scale=2.0, per_class=30, seed=77)
    )


FIXED = FixedSamplerConfig(way=3, shot=2, query_per_class=5, seed=0)
REFINE = RefineConfig(min_steps=2, max_steps=4)


class TestAggregation:
    def test_hand_computed_ci(self):
        outcomes = [
            EpisodeOutcome(acc, 1, False, ())
            for acc in [1.0, 0.0, 1.0, 1.0]
        ]
        report = _aggregate(outcomes, "m", {})
        assert report.mean_accuracy == pytest.approx(0.75)
        # sample standard deviation is 0.5, so 1.96 * 0.5 / sqrt(4) = 0.49
        assert report.ci95 == pytest.approx(0.49)

    def test_single_episode_has_zero_ci(self):
        report = _aggregate([EpisodeOutcome(0.5, 1, True, ())], "m", {})
        assert report.ci95 == 0.0

    def test_recalls_add_one_at_a_time_in_episode_order(self):
        # Added left to right, 1.0 absorbs each 1e-16; a compensated sum,
        # such as sum() on Python >= 3.12, would not.
        outcomes = [EpisodeOutcome(1.0, 1, False, ((2, r),)) for r in (1.0, 1e-16, 1e-16)]
        report = _aggregate(outcomes, "m", {})
        assert report.recall_bins == {"2": ((1.0 + 1e-16 + 1e-16) / 3, 3)}

    def test_recall_bins_and_histogram(self):
        outcomes = [
            EpisodeOutcome(1.0, 2, True, ((1, 1.0), (3, 0.5))),
            EpisodeOutcome(0.5, 4, False, ((1, 0.0), (12, 1.0))),
        ]
        report = _aggregate(outcomes, "m", {})
        assert report.recall_bins["1"] == (0.5, 2)
        assert report.recall_bins["3"] == (0.5, 1)
        assert report.recall_bins[">10"] == (1.0, 1)
        assert report.iteration_histogram == {2: 1, 4: 1}
        assert report.converged_early_rate == pytest.approx(0.5)


class TestEvaluate:
    def test_perfectly_separable_dataset(self):
        # classes are single distinct repeated points: nothing to confuse
        classes = {
            f"p{i}": np.tile(np.eye(4)[i] * 10, (20, 1)) for i in range(4)
        }
        ds = EmbeddingDataset(classes=classes)
        cfg = FixedSamplerConfig(way=3, shot=2, query_per_class=4, seed=1)
        report = evaluate(ds, cfg, REFINE, n_episodes=10)
        assert report.mean_accuracy == 1.0
        assert report.ci95 == 0.0

    def test_histogram_accounts_every_episode(self, small_ds):
        report = evaluate(small_ds, FIXED, REFINE, n_episodes=25)
        assert sum(report.iteration_histogram.values()) == 25
        assert report.episodes == 25
        assert len(report.per_episode_accuracy) == 25
        assert 0.0 <= report.converged_early_rate <= 1.0

    def test_recall_bins_reconcile_with_predictions(self, small_ds):
        # fixed sampler: every (episode, class) contributes exactly
        # query_per_class predictions
        report = evaluate(small_ds, FIXED, REFINE, n_episodes=12)
        pair_count = sum(c for _, c in report.recall_bins.values())
        assert pair_count == 12 * FIXED.way
        assert pair_count * FIXED.query_per_class == 12 * FIXED.way * FIXED.query_per_class
        for mean_recall, _ in report.recall_bins.values():
            assert 0.0 <= mean_recall <= 1.0

    def test_seed_override_changes_episodes(self, small_ds):
        s100, s101 = (dataclasses.replace(FIXED, seed=s) for s in (100, 101))
        r0 = evaluate(small_ds, s100, REFINE, n_episodes=6)
        r1 = evaluate(small_ds, s101, REFINE, n_episodes=6)
        r0_again = evaluate(small_ds, s100, REFINE, n_episodes=6)
        assert r0.per_episode_accuracy == r0_again.per_episode_accuracy
        assert r0.per_episode_accuracy != r1.per_episode_accuracy

    def test_parallel_equals_serial(self, small_ds):
        serial = evaluate(small_ds, FIXED, REFINE, n_episodes=16, parallelism=1)
        parallel = evaluate(small_ds, FIXED, REFINE, n_episodes=16, parallelism=2)
        assert render_report(serial, "json") == render_report(parallel, "json")

    def test_failing_episode_reports_index(self):
        ds = EmbeddingDataset(classes={"a": np.zeros((3, 2)), "b": np.ones((3, 2))})
        cfg = FixedSamplerConfig(way=2, shot=2, query_per_class=10, seed=0)
        with pytest.raises(EpisodeFailure) as info:
            evaluate(ds, cfg, REFINE, n_episodes=3)
        assert info.value.index == 0

    def test_failing_episode_in_pool_reports_index(self):
        ds = EmbeddingDataset(classes={"a": np.zeros((3, 2)), "b": np.ones((3, 2))})
        cfg = FixedSamplerConfig(way=2, shot=2, query_per_class=10, seed=0)
        with pytest.raises(EpisodeFailure) as info:
            evaluate(ds, cfg, REFINE, n_episodes=3, parallelism=2)
        assert info.value.index == 0

    def test_episode_failure_pickles_even_when_its_cause_does_not(self):
        failure = EpisodeFailure(4, DegenerateClass(1, 0.0))
        again = pickle.loads(pickle.dumps(failure))
        assert type(again) is EpisodeFailure
        assert again.index == 4
        assert str(again) == str(failure)

    def test_rejects_zero_episodes(self, small_ds):
        with pytest.raises(ValueError):
            evaluate(small_ds, FIXED, REFINE, n_episodes=0)


@pytest.fixture
def refine_calls(monkeypatch):
    """One entry per call of the harness's ``refine``."""
    calls = []
    real = harness.refine
    monkeypatch.setattr(harness, "refine", lambda *args: calls.append(args) or real(*args))
    return calls


class TestAblation:
    def test_single_cell_equals_direct_evaluate(self, small_ds):
        spec = AblationSpec(
            min_steps=(2,), max_steps=(4,), rules=("mahalanobis-softmax",),
            query_per_class=(5,), episodes=8, repeats=1, seed=9,
        )
        grid = run_ablation(small_ds, FIXED, spec)
        assert len(grid.cells) == 1
        direct = evaluate(small_ds, dataclasses.replace(FIXED, seed=9), REFINE, n_episodes=8)
        assert grid.cells[0].report.per_episode_accuracy == direct.per_episode_accuracy

    def test_cells_share_episode_seeds(self, small_ds):
        spec = AblationSpec(
            min_steps=(0, 2), max_steps=(1, 4), rules=("mahalanobis-softmax",),
            query_per_class=(5,), episodes=6, repeats=1, seed=3,
        )
        grid = run_ablation(small_ds, FIXED, spec)
        assert len(grid.cells) == 4
        # the baseline cell must equal a direct baseline run on the same seed
        base = next(c for c in grid.cells if c.min_steps == 0 and c.max_steps == 1)
        direct = evaluate(
            small_ds,
            dataclasses.replace(FIXED, seed=3),
            RefineConfig(min_steps=0, max_steps=1),
            n_episodes=6,
        )
        assert base.report.per_episode_accuracy == direct.per_episode_accuracy

    def test_min_above_max_cell_clamps(self, small_ds):
        spec = AblationSpec(
            min_steps=(4,), max_steps=(1,), rules=("mahalanobis-softmax",),
            query_per_class=(5,), episodes=4, repeats=1, seed=0,
        )
        grid = run_ablation(small_ds, FIXED, spec)
        cell = grid.cells[0]
        assert cell.min_steps == 4 and cell.max_steps == 1  # nominal axes echoed
        assert cell.report.iteration_histogram == {1: 4}  # effectively one step

    def test_repeats_pool_episodes(self, small_ds):
        spec = AblationSpec(
            min_steps=(2,), max_steps=(4,), rules=("mahalanobis-softmax",),
            query_per_class=(5,), episodes=5, repeats=3, seed=0,
        )
        grid = run_ablation(small_ds, FIXED, spec)
        assert grid.cells[0].report.episodes == 15

    @pytest.mark.parametrize("counts", [{"episodes": 0}, {"repeats": 0}])
    def test_episodes_and_repeats_below_one_rejected(self, counts):
        with pytest.raises(ValueError, match="episodes and repeats must be >= 1"):
            AblationSpec(**counts)

    @pytest.mark.parametrize("axes", [{"min_steps": (-1, 2)}, {"max_steps": (0, 4)}])
    def test_invalid_step_axis_fails_before_any_episode(self, small_ds, refine_calls, axes):
        spec = AblationSpec(**axes, query_per_class=(5,), episodes=20, repeats=2)
        with pytest.raises(ValueError):
            run_ablation(small_ds, FIXED, spec)
        assert refine_calls == []

    def test_cli_rejects_invalid_step_axis_as_config_error(
        self, small_ds, refine_calls, tmp_path, capsys
    ):
        path = tmp_path / "ds.emb"
        write_dataset(small_ds, path, "packed-binary")
        # A list that starts with a minus sign is a value in either spelling.
        for flags, message in [
            (["--min-steps=-1,2"], "min_steps must be >= 0"),
            (["--min-steps", "-1,2"], "min_steps must be >= 0"),
            # A cell's min_steps clamps down to its max_steps of -1.
            (["--max-steps", "-1,4"], "min_steps must be >= 0"),
            (["--query-per-class", "-1,5"], "query_per_class must be >= 1"),
        ]:
            rc = cli.main(["ablate", "--dataset", str(path), "--sampler", "fixed", "--way", "3",
                           *flags, "--episodes", "2", "--repeats", "1"])
            assert rc == 2
            assert message in capsys.readouterr().err
        assert refine_calls == []


def direct_grid(ds, sampler_cfg, spec):
    """Every cell of ``spec`` from one ``refine`` run per (cell, repeat,
    episode) at the cell's own config: the per-cell path the shared
    trajectory replaces, kept as its reference."""
    reports = []
    for mn, mx, rule, qpc in itertools.product(
        spec.min_steps, spec.max_steps, spec.rules, spec.query_per_class
    ):
        cfg = RefineConfig(min(mn, mx), mx, AssignmentRule(rule), spec.beta)
        outcomes = []
        for r, i in itertools.product(range(spec.repeats), range(spec.episodes)):
            run = dataclasses.replace(sampler_cfg, query_per_class=qpc, seed=spec.seed + r)
            task = sample_task(ds, run, i)
            trace = refine(task, cfg)
            labels = trace.labels_per_iteration[-1]
            shots = task.class_counts()
            recalls = tuple(
                (int(shots[k]), float(np.mean(labels[task.truth == k] == k)))
                for k in range(task.way)
                if (task.truth == k).any()
            )
            accuracy = float(np.mean(labels == task.truth))
            outcomes.append(
                EpisodeOutcome(accuracy, trace.iterations_run, trace.converged_early, recalls)
            )
        reports.append(_aggregate(outcomes, "", {}))
    return reports


def assert_cells_match(grid, reports):
    assert len(grid.cells) == len(reports)
    for cell, want in zip(grid.cells, reports):
        got = cell.report
        assert got.per_episode_accuracy == want.per_episode_accuracy
        assert got.iteration_histogram == want.iteration_histogram
        assert got.converged_early_rate == want.converged_early_rate
        assert got.recall_bins == want.recall_bins


# Both rules, two query counts, two repeats, clamped min > max cells and a
# max_steps=1 cell.
DERIVATION_SPEC = AblationSpec(
    min_steps=(0, 2, 5), max_steps=(1, 3, 7), rules=("mahalanobis-softmax", "gmm"),
    query_per_class=(5, 9), episodes=4, repeats=2, seed=21,
)


class TestTrajectoryDerivation:
    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_every_cell_matches_refine_at_its_own_config(self, small_ds, parallelism):
        grid = run_ablation(small_ds, FIXED, DERIVATION_SPEC, parallelism=parallelism)
        reports = direct_grid(small_ds, FIXED, DERIVATION_SPEC)
        assert_cells_match(grid, reports)

    # An episode with no query rows has accuracy nan, the mean of nothing.
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_empty_query_set_stops_at_once_converged(self, small_ds, monkeypatch):
        # The samplers always draw query rows; refine's empty-query stop is
        # reached here through the harness's sample_task lookup.
        real = harness.sample_task
        monkeypatch.setattr(harness, "sample_task", lambda *args: without_query(real(*args)))
        grid = run_ablation(small_ds, FIXED, DERIVATION_SPEC)
        n = DERIVATION_SPEC.episodes * DERIVATION_SPEC.repeats
        for cell in grid.cells:
            assert cell.report.iteration_histogram == {1: n}
            assert cell.report.converged_early_rate == 1.0


@pytest.fixture
def pool_log(monkeypatch):
    """Count pool starts, and record each pool's worker count and the
    function and the pickled bytes of the jobs every pool maps."""
    log = {"starts": 0, "workers": [], "job_bytes": 0, "mapped": []}

    class CountingPool(harness.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            log["starts"] += 1
            super().__init__(*args, **kwargs)
            log["workers"].append(self._max_workers)

        def map(self, fn, *iterables, **kwargs):
            jobs = list(zip(*iterables))
            log["mapped"].append(fn)
            log["job_bytes"] += sum(len(ForkingPickler.dumps((fn, job))) for job in jobs)
            return super().map(fn, *zip(*jobs), **kwargs)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", CountingPool)
    return log


class TestPool:
    def test_one_pool_per_call(self, small_ds, pool_log):
        run_ablation(small_ds, FIXED, DERIVATION_SPEC, parallelism=2)
        assert pool_log["starts"] == 1
        evaluate(small_ds, FIXED, REFINE, n_episodes=8, parallelism=2)
        assert pool_log["starts"] == 2

    def test_no_more_workers_than_jobs(self, small_ds, pool_log):
        evaluate(small_ds, FIXED, REFINE, n_episodes=3, parallelism=4)
        assert pool_log["workers"] == [3]

    def test_job_bytes_do_not_grow_with_dataset_rows(self, pool_log):
        shipped = []
        for per_class in (30, 600):
            ds = generate_synthetic(
                SyntheticSpec(n_classes=8, dim=4, mean_scale=2.0, per_class=per_class, seed=77)
            )
            pool_log["job_bytes"] = 0
            run_ablation(ds, FIXED, DERIVATION_SPEC, parallelism=2)
            shipped.append(pool_log["job_bytes"])
        assert shipped[0] > 0
        assert shipped[0] == shipped[1]

    @pytest.mark.parametrize("method", ["spawn", "forkserver"])
    def test_fresh_start_workers_render_same_bytes(self, small_ds, monkeypatch, method):
        # Workers that do not fork pin their own BLAS thread in _init_worker.
        def render(parallelism):
            report = evaluate(small_ds, FIXED, REFINE, n_episodes=8, parallelism=parallelism)
            grid = run_ablation(small_ds, FIXED, DERIVATION_SPEC, parallelism=parallelism)
            return render_report(report, "json"), render_report(grid, "json")

        serial = render(1)
        pool = functools.partial(
            harness.ProcessPoolExecutor, mp_context=multiprocessing.get_context(method)
        )
        monkeypatch.setattr(harness, "ProcessPoolExecutor", pool)
        assert render(2) == serial


class TestBenchmarkHooks:
    """The benchmark's traced run replaces these module attributes with
    span-recording stand-ins, so each must exist and be looked up at call
    time (see perfbench/tracing.py)."""

    def test_hooks_are_looked_up_at_call_time(self, small_ds, pool_log, monkeypatch, tmp_path):
        called = set()

        def spy(module, name):
            real = getattr(module, name)

            @functools.wraps(real)
            def wrapper(*args, **kwargs):
                called.add(name)
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        hooks = [
            (cli, "evaluate"), (cli, "run_ablation"), (cli, "render_report"),
            (harness, "sample_task"), (harness, "refine"), (harness, "_episode_chunk"),
            (estimation, "_factorize_stack"), (estimation, "spd_factorize"),
        ]
        for module, name in hooks:
            spy(module, name)
        path = tmp_path / "ds.emb"
        write_dataset(small_ds, path, "packed-binary")
        common = ["--dataset", str(path), "--sampler", "fixed", "--way", "3", "--shot", "2",
                  "--episodes", "2", "--out", str(tmp_path / "out")]
        assert cli.main(["eval", *common, "--parallelism", "1"]) == 0
        assert cli.main(["ablate", *common, "--repeats", "1", "--parallelism", "2"]) == 0
        # spd_factorize runs only for classes that need jitter; support-only
        # estimates with d > n at beta = 0 do.
        wide = tmp_path / "wide.emb"
        write_dataset(
            generate_synthetic(SyntheticSpec(n_classes=6, dim=12, per_class=20, seed=5)),
            wide, "packed-binary",
        )
        assert cli.main(["eval", "--dataset", str(wide), "--way-min", "3", "--way-max", "3",
                         "--shot-min", "1", "--shot-max", "3", "--beta", "0", "--episodes", "2",
                         "--out", str(tmp_path / "wide_out")]) == 0
        # _episode_chunk runs only in pool workers: check it is what the pool maps.
        assert called == {name for _, name in hooks} - {"_episode_chunk"}
        assert pool_log["starts"] == 1
        assert pool_log["mapped"] == [harness._episode_chunk]


class TestReportEmission:
    def test_json_round_trip(self, small_ds, tmp_path):
        report = evaluate(small_ds, FIXED, REFINE, n_episodes=9)
        path = tmp_path / "report.json"
        emit_report(report, "json", path)
        parsed = json.loads(path.read_text())
        assert parsed["episodes"] == 9
        assert parsed["mean_accuracy"] == pytest.approx(report.mean_accuracy, abs=1e-12)
        assert parsed["ci95"] == pytest.approx(report.ci95, abs=1e-12)
        got = np.array(parsed["per_episode_accuracy"])
        np.testing.assert_allclose(got, report.per_episode_accuracy, atol=1e-12)
        assert parsed["method"] == report.method
        for key, (mean, count) in report.recall_bins.items():
            assert parsed["recall_bins"][key]["mean"] == pytest.approx(mean, abs=1e-12)
            assert parsed["recall_bins"][key]["count"] == count

    def test_emission_is_byte_stable(self, small_ds, tmp_path):
        report = evaluate(small_ds, FIXED, REFINE, n_episodes=5)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        emit_report(report, "json", p1)
        emit_report(report, "json", p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_grid_csv_row_count_is_axis_product(self, small_ds, tmp_path):
        spec = AblationSpec(
            min_steps=(0, 2), max_steps=(1, 4), rules=("mahalanobis-softmax", "gmm"),
            query_per_class=(5,), episodes=3, repeats=1, seed=0,
        )
        grid = run_ablation(small_ds, FIXED, spec)
        path = tmp_path / "grid.csv"
        emit_report(grid, "csv", path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "min_steps,max_steps,rule,query_per_class,mean_acc,ci95,episodes"
        assert len(lines) - 1 == 2 * 2 * 2 * 1

    def test_empty_axes_grid_gives_header_only_csv(self, small_ds, tmp_path):
        spec = AblationSpec(
            min_steps=(), max_steps=(4,), rules=("mahalanobis-softmax",),
            query_per_class=(5,), episodes=3, repeats=1, seed=0,
        )
        grid = run_ablation(small_ds, FIXED, spec)
        path = tmp_path / "empty.csv"
        emit_report(grid, "csv", path)
        assert path.read_text().strip().splitlines() == [
            "min_steps,max_steps,rule,query_per_class,mean_acc,ci95,episodes"
        ]

    def test_single_report_csv_is_one_row(self, small_ds, tmp_path):
        report = evaluate(small_ds, FIXED, REFINE, n_episodes=4)
        path = tmp_path / "single.csv"
        emit_report(report, "csv", path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        assert lines[1].split(",")[:4] == ["2", "4", "mahalanobis-softmax", "5"]

    def test_unknown_format_rejected(self, small_ds, tmp_path):
        report = evaluate(small_ds, FIXED, REFINE, n_episodes=2)
        with pytest.raises(ValueError):
            emit_report(report, "yaml", tmp_path / "x")

    def test_grid_json_round_trip(self, small_ds, tmp_path):
        spec = AblationSpec(
            min_steps=(2,), max_steps=(4,), rules=("mahalanobis-softmax",),
            query_per_class=(5,), episodes=3, repeats=1, seed=0,
        )
        grid = run_ablation(small_ds, FIXED, spec)
        path = tmp_path / "grid.json"
        emit_report(grid, "json", path)
        parsed = json.loads(path.read_text())
        assert parsed["axes"]["min_steps"] == [2]
        assert len(parsed["cells"]) == 1
        assert parsed["cells"][0]["report"]["episodes"] == 3

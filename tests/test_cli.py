import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import mahashot
from mahashot import EmbeddingDataset, cli, errors, load_dataset, write_dataset
from mahashot.cli import main
from mahashot.harness import EpisodeFailure


@pytest.fixture(scope="module")
def dataset_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "ds.emb"
    rc = main(
        [
            "gen-synthetic",
            "--classes", "8",
            "--dim", "4",
            "--mean-scale", "2.0",
            "--per-class", "30",
            "--seed", "77",
            "--out", str(path),
        ]
    )
    assert rc == 0
    return path


def run_eval(dataset_path, out, extra=()):
    return main(
        [
            "eval",
            "--dataset", str(dataset_path),
            "--sampler", "fixed",
            "--way", "3",
            "--shot", "2",
            "--query-per-class", "5",
            "--episodes", "10",
            "--seed", "4",
            "--out", str(out),
            *extra,
        ]
    )


class TestGenSynthetic:
    def test_written_dataset_loads(self, dataset_path):
        ds = load_dataset(dataset_path, "packed-binary")
        assert ds.n_classes == 8
        assert ds.dim == 4

    def test_csv_variant(self, tmp_path):
        out = tmp_path / "ds.csv"
        rc = main(
            ["gen-synthetic", "--classes", "3", "--dim", "2", "--per-class", "4",
             "--out", str(out), "--format", "csv"]
        )
        assert rc == 0
        assert load_dataset(out, "csv").n_classes == 3

    def test_invalid_spec_is_config_error(self, tmp_path):
        rc = main(
            ["gen-synthetic", "--classes", "0", "--dim", "2", "--out", str(tmp_path / "x")]
        )
        assert rc == 2


class TestSample:
    def test_json_dump(self, dataset_path, tmp_path):
        out = tmp_path / "episodes.json"
        rc = main(
            ["sample", "--dataset", str(dataset_path), "--sampler", "fixed",
             "--way", "3", "--shot", "1", "--query-per-class", "2",
             "--episodes", "4", "--seed", "1", "--out", str(out)]
        )
        assert rc == 0
        episodes = json.loads(out.read_text())
        assert len(episodes) == 4
        ep = episodes[0]
        assert ep["way"] == 3
        assert len(ep["support"]) == 3
        assert len(ep["query"]) == 6
        assert len(ep["support"][0]["z"]) == 4

    def test_csv_dump(self, dataset_path, tmp_path):
        out = tmp_path / "episodes.csv"
        rc = main(
            ["sample", "--dataset", str(dataset_path), "--sampler", "fixed",
             "--way", "3", "--shot", "1", "--query-per-class", "2",
             "--episodes", "2", "--seed", "1", "--format", "csv", "--out", str(out)]
        )
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "episode,role,label,class_name,f_0,f_1,f_2,f_3"
        assert len(lines) == 1 + 2 * (3 + 6)

    def test_missing_dataset_is_data_error(self, tmp_path):
        rc = main(
            ["sample", "--dataset", str(tmp_path / "nope.emb"), "--out", str(tmp_path / "o")]
        )
        assert rc == 3

    @pytest.mark.parametrize("episodes", ["0", "-3"])
    def test_episodes_below_one_is_config_error(self, dataset_path, tmp_path, episodes):
        out = tmp_path / "episodes.json"
        rc = main(["sample", "--dataset", str(dataset_path), "--episodes", episodes,
                   "--out", str(out)])
        assert rc == 2
        assert not out.exists()


class TestEval:
    def test_report_roundtrip_and_exit_code(self, dataset_path, tmp_path):
        out = tmp_path / "report.json"
        assert run_eval(dataset_path, out) == 0
        report = json.loads(out.read_text())
        assert report["episodes"] == 10
        assert 0.0 <= report["mean_accuracy"] <= 1.0

    def test_byte_identical_reruns_any_parallelism(self, dataset_path, tmp_path):
        a, b, c = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
        run_eval(dataset_path, a)
        run_eval(dataset_path, b)
        run_eval(dataset_path, c, extra=("--parallelism", "2"))
        assert a.read_bytes() == b.read_bytes() == c.read_bytes()

    def test_csv_format(self, dataset_path, tmp_path):
        out = tmp_path / "report.csv"
        assert run_eval(dataset_path, out, extra=("--format", "csv")) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 2

    def test_bad_sampler_config_is_config_error(self, dataset_path, tmp_path):
        rc = main(
            ["eval", "--dataset", str(dataset_path), "--sampler", "variable",
             "--way-min", "0", "--out", str(tmp_path / "r.json")]
        )
        assert rc == 2

    def test_variable_sampler_on_small_dataset_is_data_error(self, dataset_path, tmp_path):
        # 8 classes cannot satisfy way_min=20
        rc = main(
            ["eval", "--dataset", str(dataset_path), "--sampler", "variable",
             "--way-min", "20", "--way-max", "30", "--episodes", "2",
             "--out", str(tmp_path / "r.json")]
        )
        assert rc == 3


class TestAblate:
    def test_grid_csv(self, dataset_path, tmp_path):
        out = tmp_path / "grid.csv"
        rc = main(
            ["ablate", "--dataset", str(dataset_path), "--sampler", "fixed",
             "--way", "3", "--shot", "2",
             "--min-steps", "0,2", "--max-steps", "1,4",
             "--query-per-class", "5", "--episodes", "4", "--repeats", "1",
             "--seed", "2", "--format", "csv", "--out", str(out)]
        )
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 4

    def test_rules_axis(self, dataset_path, tmp_path):
        out = tmp_path / "grid.json"
        rc = main(
            ["ablate", "--dataset", str(dataset_path), "--sampler", "fixed",
             "--way", "3", "--shot", "2",
             "--min-steps", "2", "--max-steps", "4",
             "--rule", "mahalanobis-softmax,gmm",
             "--query-per-class", "5", "--episodes", "3", "--repeats", "1",
             "--out", str(out)]
        )
        assert rc == 0
        grid = json.loads(out.read_text())
        assert [c["rule"] for c in grid["cells"]] == ["mahalanobis-softmax", "gmm"]


class TestSelftest:
    def test_in_process(self):
        assert main(["selftest"]) == 0

    def test_console_entry_point(self):
        # The child must import the package under test without PYTHONPATH set.
        root = str(pathlib.Path(mahashot.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "mahashot.cli", "selftest"],
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "FAIL" not in proc.stdout


# One instance of every concrete package error, plus the builtins main()
# maps, with the exit code each must produce.
EXIT_CODES = [
    (errors.InvalidSpec("bad spec"), 2),
    (ValueError("bad value"), 2),
    (errors.DimensionMismatch("shape"), 3),
    (errors.NotSymmetric("asymmetric"), 3),
    (errors.FactorizationFailed("cholesky"), 3),
    (errors.EmptyInput("empty"), 3),
    (errors.NonFiniteInput("nan"), 3),
    (errors.ParseError("garbled", line=3), 3),
    (errors.EmptyClass("no rows"), 3),
    (errors.DegenerateClass(1, 0.0), 3),
    (errors.InsufficientClasses("few classes"), 3),
    (errors.InsufficientExamples("few rows"), 3),
    (EpisodeFailure(4, errors.EmptyClass("no rows")), 3),
    (OSError("disk"), 3),
]


def _concrete_errors(base):
    for sub in base.__subclasses__():
        yield sub
        yield from _concrete_errors(sub)


class TestExitCodes:
    @pytest.mark.parametrize(
        "exc, code", EXIT_CODES, ids=[type(e).__name__ for e, _ in EXIT_CODES]
    )
    def test_error_maps_to_exit_code(self, monkeypatch, capsys, exc, code):
        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "run_selftest", fail)
        assert main(["selftest"]) == code
        prefix = "config error: " if code == 2 else "error: "
        assert capsys.readouterr().err.startswith(prefix)

    def test_every_package_error_is_listed(self):
        listed = {type(e) for e, _ in EXIT_CODES}
        assert set(_concrete_errors(errors.MahashotError)) <= listed

    @pytest.mark.parametrize("parallelism", ["0", "-3"])
    @pytest.mark.parametrize("command", ["eval", "ablate"])
    def test_parallelism_below_one_is_config_error(
        self, dataset_path, tmp_path, capsys, command, parallelism
    ):
        rc = main(
            [command, "--dataset", str(dataset_path), "--sampler", "fixed", "--way", "3",
             "--shot", "2", "--episodes", "2", "--parallelism", parallelism,
             "--out", str(tmp_path / "out")]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err == f"config error: parallelism must be >= 1, got {parallelism}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["eval", "ablate"])
    def test_failing_episode_in_pool_is_data_error(self, tmp_path, capsys, command):
        # Three rows per class cannot give shot 2 plus 10 queries.
        path = tmp_path / "tiny.emb"
        classes = {"a": np.zeros((3, 2)), "b": np.ones((3, 2))}
        write_dataset(EmbeddingDataset(classes=classes), path, "packed-binary")
        rc = main(
            [command, "--dataset", str(path), "--sampler", "fixed", "--way", "2", "--shot", "2",
             "--query-per-class", "10", "--episodes", "3", "--parallelism", "2",
             "--out", str(tmp_path / "out")]
        )
        assert rc == 3
        assert capsys.readouterr().err.startswith("error: episode 0 failed:")

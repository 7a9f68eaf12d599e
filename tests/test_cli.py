import json
import os
import pathlib
import platform
import struct
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import mahashot
import mahashot.harness as harness
from mahashot import (
    EmbeddingDataset,
    FixedSamplerConfig,
    SyntheticSpec,
    VariableSamplerConfig,
    cli,
    errors,
    generate_synthetic,
    load_dataset,
    sample_task,
    selftest,
    write_dataset,
)
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

    @pytest.mark.parametrize("format", ["csv", "packed-binary"])
    def test_every_flag_reaches_the_spec(self, tmp_path, format):
        out = tmp_path / "cli.out"
        rc = main(
            ["gen-synthetic", "--classes", "7", "--dim", "5", "--mean-scale", "1.5",
             "--cov-scale", "0.7", "--perturbation", "0.3", "--per-class", "9",
             "--seed", "3", "--format", format, "--out", str(out)]
        )
        assert rc == 0
        spec = SyntheticSpec(
            n_classes=7, dim=5, mean_scale=1.5, cov_scale=0.7, perturbation=0.3,
            per_class=9, seed=3,
        )
        lib = tmp_path / "lib.out"
        write_dataset(generate_synthetic(spec), lib, format)
        assert out.read_bytes() == lib.read_bytes()


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

    @pytest.mark.parametrize(
        "flags, cfg",
        [
            (["--sampler", "fixed", "--way", "4", "--shot", "3", "--query-per-class", "2",
              "--seed", "8"],
             FixedSamplerConfig(way=4, shot=3, query_per_class=2, seed=8)),
            (["--sampler", "variable", "--way-min", "3", "--way-max", "6", "--shot-min", "2",
              "--shot-max", "5", "--query-per-class", "3", "--support-cap", "9", "--seed", "4"],
             VariableSamplerConfig(way_min=3, way_max=6, shot_min=2, shot_max=5,
                                   query_per_class=3, support_cap=9, seed=4)),
        ],
        ids=["fixed", "variable"],
    )
    def test_every_sampler_flag_reaches_the_config(self, dataset_path, tmp_path, flags, cfg):
        out = tmp_path / "episodes.json"
        rc = main(["sample", "--dataset", str(dataset_path), "--episodes", "3", *flags,
                   "--out", str(out)])
        assert rc == 0
        ds = load_dataset(dataset_path, "packed-binary")
        episodes = json.loads(out.read_text())
        assert len(episodes) == 3
        for i, ep in enumerate(episodes):
            task = sample_task(ds, cfg, i)
            assert ep["class_names"] == list(task.class_names)
            assert [s["label"] for s in ep["support"]] == task.support_y.tolist()
            assert [s["z"] for s in ep["support"]] == task.support_z.tolist()
            assert [q["truth"] for q in ep["query"]] == task.truth.tolist()
            assert [q["z"] for q in ep["query"]] == task.query_z.tolist()

    @pytest.mark.parametrize("episodes", ["0", "-3"])
    def test_episodes_below_one_is_config_error(self, dataset_path, tmp_path, episodes):
        out = tmp_path / "episodes.json"
        rc = main(["sample", "--dataset", str(dataset_path), "--episodes", episodes,
                   "--out", str(out)])
        assert rc == 2
        assert not out.exists()


def test_cli_import_leaves_out_scipy_linalg():
    # A fresh interpreter, so that no other test has imported scipy.linalg.
    root = str(pathlib.Path(mahashot.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    code = (
        "import sys\n"
        "import mahashot.cli\n"
        "from mahashot import numerics\n"
        "assert 'scipy.linalg' not in sys.modules, 'scipy.linalg was imported'\n"
        "from scipy.linalg import lapack\n"
        "assert numerics.dtrtrs is lapack.dtrtrs is lapack._flapack.dtrtrs\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          encoding="utf-8")
    assert proc.returncode == 0, proc.stderr
    # Without the extension file there is no other route: the import fails and names the folder.
    code = (
        "import importlib.machinery\n"
        "importlib.machinery.EXTENSION_SUFFIXES[:] = ['.missing']\n"
        "import mahashot.cli\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          encoding="utf-8")
    assert proc.returncode == 1
    assert proc.stderr.splitlines()[-1].startswith("ImportError: scipy's LAPACK extension _flapack is not in ")
    assert proc.stderr.rstrip().endswith(f"{os.sep}scipy{os.sep}linalg")


def test_text_output_is_utf8_under_an_ascii_locale(tmp_path):
    path = tmp_path / "ds.emb"
    classes = {"café": np.zeros((2, 2)), "naïve": np.ones((2, 2))}
    write_dataset(EmbeddingDataset(classes=classes), path, "packed-binary")
    root = str(pathlib.Path(mahashot.__file__).resolve().parent.parent)
    env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    out = tmp_path / "episodes.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "mahashot.cli", "sample", "--dataset", str(path),
         "--sampler", "fixed", "--way", "2", "--shot", "1", "--query-per-class", "1",
         "--episodes", "1", "--format", "csv", "--out", str(out)],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    text = out.read_bytes().decode("utf-8")
    assert "café" in text and "naïve" in text


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


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--sampler", "fixed", "--way", "3", "--shot", "2", "--episodes", "3"],
        ["eval", "--episodes", "3", "--way-min", "2", "--way-max", "4", "--shot-max", "3",
         "--format", "csv"],
        ["ablate", "--sampler", "fixed", "--way", "3", "--shot", "2", "--min-steps", "0,2",
         "--max-steps", "1,4", "--query-per-class", "5", "--episodes", "2", "--repeats", "1"],
        ["ablate", "--sampler", "fixed", "--way", "3", "--shot", "2", "--max-steps", "1,4",
         "--episodes", "2", "--repeats", "1", "--format", "csv"],
    ],
    ids=["eval-json", "eval-csv", "ablate-json", "ablate-csv"],
)
def test_stdout_report_is_the_out_file(dataset_path, tmp_path, capsys, argv):
    argv = [*argv, "--dataset", str(dataset_path)]
    out = tmp_path / "report"
    assert main([*argv, "--out", str(out)]) == 0
    capsys.readouterr()  # the one-line summary --out prints
    assert main(argv) == 0
    assert capsys.readouterr().out == out.read_text()


def test_parser_is_built_once_and_keeps_nothing_between_calls(dataset_path, capsys):
    common = ["--dataset", str(dataset_path), "--sampler", "fixed", "--way", "3",
              "--shot", "2", "--episodes", "3"]
    calls = [
        ["eval", *common, "--seed", "5"],
        ["eval", *common],  # back to the default seed
        ["ablate", *common, "--max-steps", "1,4", "--repeats", "1", "--format", "csv"],
        ["eval", *common, "--seed", "5"],
    ]

    def run(argv):
        assert main(argv) == 0
        return capsys.readouterr().out

    # Each command's bytes from a parser built for it alone ...
    fresh = []
    for argv in calls:
        cli.build_parser.cache_clear()
        fresh.append(run(argv))
    # ... equal those from one parser that every call shares.
    cli.build_parser.cache_clear()
    parser = cli.build_parser()
    assert [run(argv) for argv in calls] == fresh
    assert cli.build_parser() is parser
    assert json.loads(fresh[1])["config"]["sampler"]["seed"] == 0
    assert fresh[3] == fresh[0] != fresh[1]


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

    def test_crashing_factorization_fails_only_its_checks(self, monkeypatch, capsys):
        def crash(q):
            raise RuntimeError("no factor")

        monkeypatch.setattr(selftest, "spd_factorize", crash)
        assert selftest.run_selftest() is False
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 8
        failed = [line for line in lines if line.startswith("FAIL")]
        assert failed == [
            f"FAIL  {name} (RuntimeError: no factor)"
            for name in [
                "SPD factor round trip",
                "mahalanobis nonnegative / zero at identity",
                "bregman divergence equals squared mahalanobis",
                "gmm argmax reduction under shared covariance",
            ]
        ]
        assert all(line.startswith("PASS") for line in lines if line not in failed)


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


# One packed-binary class: name "a", one row of one float.
_BINARY_CLASS = struct.pack("<I", 1) + b"a" + struct.pack("<I", 1) + struct.pack("<d", 0.5)


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

    def test_undecodable_csv_dataset_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"a,1.0,2.0\nb,3.0,4.0\na,\xff,2.0\nb,1.0,1.0\n")
        rc = main(["eval", "--dataset", str(path), "--dataset-format", "csv",
                   "--out", str(tmp_path / "out")])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error: file is not valid UTF-8") and "(line 3)" in err

    @pytest.mark.parametrize(
        "format, blob, message",
        [
            ("packed-binary", b"EMB1" + struct.pack("<II", 1, 0) + b"\x00",
             "trailing bytes after last class"),
            ("packed-binary", b"EMB1" + struct.pack("<II", 1, 2) + 2 * _BINARY_CLASS,
             "duplicate class name 'a'"),
            ("packed-binary", b"EMB1" + struct.pack("<II", 0, 1), "dimension must be positive"),
            ("csv", b"a,1.0\nb\n", "row has no feature columns (line 2)"),
            ("csv", b"", "file contains no embedding rows"),
            ("csv", b'a,1.0\n"' + b"x" * 140_000, "malformed CSV"),
        ],
        ids=["trailing-bytes", "duplicate-name", "zero-dim", "no-features", "empty-csv",
             "oversized-csv-field"],
    )
    def test_rejected_dataset_file_is_data_error(self, tmp_path, capsys, format, blob, message):
        path = tmp_path / "bad"
        path.write_bytes(blob)
        rc = main(["eval", "--dataset", str(path), "--dataset-format", format,
                   "--out", str(tmp_path / "out")])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("error")
    def test_overflowing_embeddings_are_a_data_error(self, tmp_path, capsys):
        # Finite rows whose squares overflow float64 pass every dataset check.
        path = tmp_path / "huge.emb"
        rng = np.random.default_rng(3)
        classes = {name: rng.standard_normal((4, 3)) * 1e300 for name in "ab"}
        write_dataset(EmbeddingDataset(classes=classes), path, "packed-binary")
        rc = main(
            ["eval", "--dataset", str(path), "--sampler", "fixed", "--way", "2", "--shot", "1",
             "--query-per-class", "1", "--episodes", "1", "--out", str(tmp_path / "out")]
        )
        assert rc == 3
        assert capsys.readouterr().err == (
            "error: episode 0 failed: embedding scatter overflows float64\n"
        )

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["eval", "ablate"])
    @pytest.mark.parametrize("parallelism", ["1", "2"])
    def test_beta_above_half_the_float64_max_runs(
        self, dataset_path, tmp_path, capsys, command, parallelism
    ):
        # Finite scatters: the blend must not overflow in its 0.5 * (q + q.T).
        rc = main([command, "--dataset", str(dataset_path), "--beta", "9e307", "--episodes", "2",
                   "--parallelism", parallelism, "--out", str(tmp_path / "out")])
        assert rc == 0
        assert capsys.readouterr().err == ""
        assert (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--seed", str(2**128)],
            # Repeat 1 runs at seed 2**128: every repeat's config is built
            # before repeat 0's first episode.
            ["ablate", "--seed", str(2**128 - 1), "--repeats", "2", "--max-steps", "1,4"],
        ],
        ids=["eval", "ablate"],
    )
    def test_seed_beyond_a_philox_key_is_config_error(
        self, dataset_path, tmp_path, capsys, refine_calls, argv
    ):
        rc = main([*argv, "--dataset", str(dataset_path), "--sampler", "fixed", "--way", "3",
                   "--shot", "2", "--episodes", "3", "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == f"config error: seed must be below 2**128, got {2**128}\n"
        assert refine_calls == []
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

    def test_dead_pool_worker_is_data_error(
        self, dataset_path, tmp_path, capsys, monkeypatch, start_method
    ):
        # Four episodes at parallelism 3: the workers run [0] and [1], the
        # caller [2, 3]. The second worker exits without sending a result.
        real = harness._episode_chunk

        def dying(share):
            if share[0][2] == 1:
                os._exit(7)
            return real(share)

        monkeypatch.setattr(harness, "_episode_chunk", dying)
        rc = run_eval(dataset_path, tmp_path / "out", ["--episodes", "4", "--parallelism", "3"])
        assert rc == 3
        assert capsys.readouterr().err == "error: episode 1 failed: pool worker exited with code 7\n"


def _random_blobs(format, rng, count=200):
    """Seeded dataset files: half random bytes, half well-formed ones with values
    from 1e-300 to 1e300, cut short or run on by up to 2 bytes, with (CSV) stray tokens."""
    names = [b"a", b"b", b"", b"\xc3\xa9"]
    tokens = [b",", b"\n", b"\r", b'"', b"-", b"e", b"1", b".", b"\x00", b"\xc3\xa9"]
    for i in range(count):
        if i % 2 == 0:
            yield rng.bytes(int(rng.integers(0, 300)))
            continue
        dim = int(rng.integers(0, 4))
        classes = [(names[k], rng.standard_normal((int(rng.integers(0, 4)), dim))
                    * 10.0 ** int(rng.integers(-300, 300))) for k in rng.permutation(len(names))[:3]]
        if format == "csv":
            blob = b"".join(name + b"".join(b",%.17g" % x for x in row) + b"\n"
                            for name, rows in classes for row in rows)
            for _ in range(int(rng.integers(0, 3))):
                at = int(rng.integers(len(blob) + 1))
                blob = blob[:at] + tokens[int(rng.integers(len(tokens)))] + blob[at:]
        else:
            blob = b"EMB1" + struct.pack("<II", dim, len(classes))
            for name, rows in classes:
                blob += struct.pack("<I", len(name)) + name + struct.pack("<I", rows.shape[0])
                blob += rows.astype("<f8").tobytes()
        cut = int(rng.integers(-2, 3))
        yield blob[: len(blob) + cut] if cut < 0 else blob + rng.bytes(cut)
    if format == "csv":  # one field past the csv module's 128 KiB limit
        yield b'a,1.0\nb,2.0\n"' + b"x" * 140_000


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("format", ["csv", "packed-binary"])
def test_random_dataset_files_are_data_errors_or_load(tmp_path, capsys, format):
    rng = np.random.default_rng(14)
    path = tmp_path / "blob"
    codes = []
    for blob in _random_blobs(format, rng):
        path.write_bytes(blob)
        codes.append(main(
            ["eval", "--dataset", str(path), "--dataset-format", format, "--sampler", "fixed",
             "--way", "2", "--shot", "1", "--query-per-class", "1", "--episodes", "1",
             "--out", str(tmp_path / "out")]
        ))
    capsys.readouterr()
    assert set(codes) <= {0, 3}


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="sets glibc's malloc")
def test_freed_class_parameters_are_reused_without_faults():
    # One generation of 50-way d = 128 class parameters is about 150 d x d
    # blocks; refinement frees one and builds the next of the same shape.
    # Under glibc's default thresholds each rebuild faults in ~4,800 pages.
    import resource

    def generation():
        return [np.ones((128, 128)) for _ in range(150)]

    cli._keep_freed_memory()
    generation()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(10):
        generation()
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 1000


@pytest.mark.parametrize("libc, calls", [("glibc 2.35", 2), ("musl 1.2.4", 0)])
def test_malloc_thresholds_are_set_only_on_glibc(monkeypatch, libc, calls):
    seen = []

    def mallopt(param, value):
        seen.append((param, value))
        return 1

    monkeypatch.setattr(cli.os, "confstr", lambda name: libc)
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
    cli._keep_freed_memory()
    assert len(seen) == calls

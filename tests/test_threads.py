"""BLAS threads: the CLI and pool workers run OpenBLAS on one thread, the
CLI leaves its process there, a library caller's thread counts come back
unchanged, and reports do not depend on the thread count."""

import contextlib
import io
import os
import pathlib
import subprocess
import sys

import pytest

import mahashot.cli as cli
import mahashot.harness as harness
import mahashot.numerics as numerics
from mahashot import (
    FixedSamplerConfig,
    RefineConfig,
    SyntheticSpec,
    VariableSamplerConfig,
    evaluate,
    generate_synthetic,
    render_report,
    write_dataset,
)

PACKAGE_ROOT = str(pathlib.Path(__file__).resolve().parents[1] / "src")

CONTROLS = numerics._openblas_thread_controls()
needs_openblas = pytest.mark.skipif(
    not CONTROLS, reason="no OpenBLAS thread-count symbols in this process"
)
needs_proc_tasks = pytest.mark.skipif(
    not os.path.isdir("/proc/self/task"), reason="counts OS threads through /proc"
)

FIXED = FixedSamplerConfig(way=3, shot=2, query_per_class=5, seed=0)
REFINE = RefineConfig(min_steps=2, max_steps=4)


def blas_threads() -> list[int]:
    return [get() for get, _ in CONTROLS]


@pytest.fixture(scope="module")
def small_ds():
    return generate_synthetic(
        SyntheticSpec(n_classes=8, dim=4, mean_scale=2.0, per_class=30, seed=77)
    )


@contextlib.contextmanager
def blas_threads_at(n: int):
    """Every OpenBLAS at ``n`` threads for the block; the counts before it after."""
    before = blas_threads()
    for _, set_ in CONTROLS:
        set_(n)
    try:
        yield
    finally:
        for (_, set_), m in zip(CONTROLS, before):
            set_(m)


@pytest.fixture
def two_blas_threads():
    """Every OpenBLAS at 2 threads for the test, so a pin that leaks shows."""
    with blas_threads_at(2):
        if blas_threads() != [2] * len(CONTROLS):
            pytest.skip("OpenBLAS does not accept 2 threads here")
        yield


_run_chunk = harness._episode_chunk


def _probe_chunk(episodes):
    """Run a pool job, then report the worker's BLAS and OS thread counts."""
    _run_chunk(episodes)
    tasks = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
    return [(blas_threads(), tasks)]


@pytest.fixture
def worker_threads(small_ds, two_blas_threads, monkeypatch):
    """(BLAS counts, OS thread count) seen by each pool job of a 2-process run."""
    monkeypatch.setattr(harness, "_episode_chunk", _probe_chunk)
    results = harness._trajectories(small_ds, [(FIXED, REFINE)], 4, parallelism=2)
    # The caller's own share comes back as steps; only pool jobs probe.
    probes = [r for r in results if isinstance(r, tuple)]
    assert probes, "no episode ran in the pool"
    return probes


@needs_openblas
class TestPin:
    def test_pool_workers_run_one_blas_thread(self, worker_threads):
        assert all(counts == [1] * len(CONTROLS) for counts, _ in worker_threads)

    @needs_proc_tasks
    def test_pool_workers_have_one_os_thread(self, worker_threads):
        # Setting the count again in a forked worker restarts OpenBLAS's
        # thread pool there, whose idle threads then compete for the cores.
        assert [tasks for _, tasks in worker_threads] == [1] * len(worker_threads)

    def test_evaluate_pins_only_the_pool(self, small_ds, two_blas_threads, monkeypatch):
        seen = []
        real = harness.refine

        def spy(*args):
            seen.append(blas_threads())
            return real(*args)

        monkeypatch.setattr(harness, "refine", spy)
        evaluate(small_ds, FIXED, REFINE, n_episodes=2, parallelism=1)
        assert seen == [[2] * len(CONTROLS)] * 2
        # The caller runs its own share of a pooled call at one thread.
        evaluate(small_ds, FIXED, REFINE, n_episodes=4, parallelism=2)
        assert seen[2:] and all(counts == [1] * len(CONTROLS) for counts in seen[2:])
        assert blas_threads() == [2] * len(CONTROLS)

    def test_cli_pins_for_its_process(self, small_ds, two_blas_threads, monkeypatch, tmp_path):
        seen = []
        real = cli.evaluate

        def spy(*args, **kwargs):
            seen.append(blas_threads())
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "evaluate", spy)
        path = tmp_path / "ds.emb"
        write_dataset(small_ds, path, "packed-binary")
        rc = cli.main(
            ["eval", "--dataset", str(path), "--sampler", "fixed", "--way", "3", "--shot", "2",
             "--episodes", "2", "--out", str(tmp_path / "out")]
        )
        assert rc == 0
        assert seen == [[1] * len(CONTROLS)]
        # Setting the count back would restart OpenBLAS's threads.
        assert blas_threads() == [1] * len(CONTROLS)


def test_no_thread_controls_without_a_memory_map(monkeypatch):
    def no_map(path, *args, **kwargs):
        raise FileNotFoundError(path)

    monkeypatch.setattr(numerics, "open", no_map, raising=False)
    assert numerics._openblas_thread_controls.__wrapped__() == ()


def test_a_path_that_is_not_utf8_in_the_memory_map_is_read(monkeypatch):
    lines = b"".join(
        b"7f0000000000-7f0000001000 r-xp 00000000 08:01 42 /opt/\xff/" + name + b"\n"
        for name in (b"libm.so.6", b"libopenblas.so")
    )

    def maps(path, mode="r", *args, **kwargs):
        raw = io.BytesIO(lines)
        return raw if "b" in mode else io.TextIOWrapper(raw, encoding="utf-8")

    monkeypatch.setattr(numerics, "open", maps, raising=False)
    # Neither library is loaded, so no controls are found; nothing raises.
    assert numerics._openblas_thread_controls.__wrapped__() == ()


# d = 128 is large enough for OpenBLAS to split work across threads.
D128_EPISODES = 6


@pytest.fixture(scope="module")
def d128():
    ds = generate_synthetic(
        SyntheticSpec(n_classes=12, dim=128, mean_scale=0.45, per_class=40, seed=5)
    )
    # The reference runs at two BLAS threads (an in-process CLI run before it
    # leaves one); every run compared with it below runs at one.
    with blas_threads_at(2):
        report = evaluate(ds, VariableSamplerConfig(), RefineConfig(), D128_EPISODES)
    return ds, render_report(report, "json")


class TestThreadCountIndependence:
    def test_library_pool_width(self, d128):
        ds, serial = d128
        report = evaluate(ds, VariableSamplerConfig(), RefineConfig(), D128_EPISODES, parallelism=2)
        assert render_report(report, "json") == serial

    @pytest.mark.parametrize("threads", [None, "1", "2"])
    def test_cli_under_openblas_env(self, d128, tmp_path, threads):
        ds, serial = d128
        path = tmp_path / "ds.emb"
        write_dataset(ds, path, "packed-binary")
        env = dict(os.environ)
        env.pop("OPENBLAS_NUM_THREADS", None)
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "mahashot.cli", "eval", "--dataset", str(path),
             "--episodes", str(D128_EPISODES)],
            env=env, capture_output=True, text=True, encoding="utf-8", timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == serial

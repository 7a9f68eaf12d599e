import multiprocessing

import numpy as np
import pytest

import mahashot.harness as harness
from mahashot import Task


def random_spd(rng, d, ridge=0.5):
    a = rng.standard_normal((d, d))
    return a @ a.T + ridge * np.eye(d)


def make_task(rng, way=3, shots=None, queries=8, d=4, spread=3.0, seed_means=None):
    """Random Gaussian task; shots may be an int or a per-class list."""
    if shots is None:
        shots = [int(rng.integers(1, 6)) for _ in range(way)]
    elif isinstance(shots, int):
        shots = [shots] * way
    means = seed_means if seed_means is not None else spread * rng.standard_normal((way, d))
    support = np.vstack(
        [means[k] + rng.standard_normal((shots[k], d)) for k in range(way)]
    )
    labels = np.concatenate([np.full(shots[k], k) for k in range(way)])
    truth = rng.integers(0, way, size=queries)
    query = means[truth] + rng.standard_normal((queries, d)) if queries else np.zeros((0, d))
    return Task(
        support_z=support,
        support_y=labels,
        query_z=query,
        truth=truth,
        way=way,
    )


def without_query(task):
    """The same support set with an empty query block."""
    return Task(
        support_z=task.support_z,
        support_y=task.support_y,
        query_z=np.zeros((0, task.dim)),
        truth=np.zeros(0, dtype=int),
        way=task.way,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture
def start_method(request):
    """multiprocessing's process-wide start method set for the test, and the
    setting before it put back afterwards. The method is the test's indirect
    ``start_method`` parameter, or fork, whose workers inherit the test's
    patches, if it has none."""
    method = getattr(request, "param", "fork")
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {method} start method on this platform")
    before = multiprocessing.get_start_method(allow_none=True)
    multiprocessing.set_start_method(method, force=True)
    try:
        yield method
    finally:
        multiprocessing.set_start_method(before, force=True)


@pytest.fixture
def refine_calls(monkeypatch):
    """One entry per call of the harness's ``refine``."""
    calls = []
    real = harness.refine
    monkeypatch.setattr(harness, "refine", lambda *args: calls.append(args) or real(*args))
    return calls

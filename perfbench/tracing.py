"""Span tracing for the benchmark's traced run.

Spans are recorded from the benchmark's side only: :func:`installed`
replaces public mahashot functions, at the module attribute where each
caller looks them up, with wrappers that open and close a span and bump
counters. Nothing in ``src/`` is edited, and an untraced run installs
nothing, so it pays no tracing cost.

A span keeps its name, start, end, process id and parent in memory.
Pool workers are forked with the wrappers in place; each worker spills
its spans and counters to a file in the spill directory when an episode
chunk ends, and :meth:`Tracer.collect` merges them back, so layer totals
cover the work done in the workers too.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time
from collections import Counter
from multiprocessing.reduction import ForkingPickler

import mahashot.classification
import mahashot.cli
import mahashot.data
import mahashot.estimation
import mahashot.harness
import mahashot.refinement
import mahashot.sampler
from mahashot.errors import DegenerateClass


class Tracer:
    """In-memory span and counter store for one process (and its forks)."""

    def __init__(self, spill_dir: str):
        self.main_pid = os.getpid()
        self.pid = self.main_pid
        self.spill_dir = spill_dir
        # Each span: [pid, id, parent, name, start, end]; parent is a
        # (pid, id) pair or None.
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[tuple[int, int]] = []
        self._root_parent = None
        self._next_id = 0

    def open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else self._root_parent
        sid = self._next_id
        self._next_id += 1
        span = [self.pid, sid, parent, name, time.perf_counter(), None]
        self._stack.append((self.pid, sid))
        self.spans.append(span)
        return span

    def close(self, span: list) -> None:
        span[5] = time.perf_counter()
        self._stack.pop()

    def enter_worker(self) -> None:
        """Start a fresh store in a forked pool worker, parented under the
        span that was open in the main process when the worker forked."""
        if self.pid == os.getpid():
            return
        self._root_parent = self._stack[-1] if self._stack else None
        self.pid = os.getpid()
        self.spans, self.counts, self._stack = [], Counter(), []

    def spill(self) -> None:
        """Append this worker's spans and counters to its spill file."""
        path = os.path.join(self.spill_dir, f"worker-{self.pid}.jsonl")
        with open(path, "a") as fh:
            fh.write(json.dumps({"spans": self.spans, "counts": self.counts}) + "\n")
        self.spans, self.counts = [], Counter()

    def reset(self) -> None:
        self.spans, self.counts = [], Counter()
        for name in os.listdir(self.spill_dir):
            os.remove(os.path.join(self.spill_dir, name))

    def collect(self) -> tuple[list[list], Counter]:
        """Main-process spans and counters merged with every worker spill."""
        spans, counts = list(self.spans), Counter(self.counts)
        for name in sorted(os.listdir(self.spill_dir)):
            with open(os.path.join(self.spill_dir, name)) as fh:
                for line in fh:
                    part = json.loads(line)
                    spans.extend(
                        [p, i, tuple(par) if par else None, n, s, e]
                        for p, i, par, n, s, e in part["spans"]
                    )
                    counts.update(part["counts"])
        return spans, counts


def _wrap(tracer: Tracer, name: str, fn, on_call=None):
    """Span-recording stand-in for ``fn``; ``on_call(args, result)`` runs
    after a successful call to update counters."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if on_call is not None:
            on_call(args, result)
        return result

    return traced


def _counting(tracer: Tracer):
    # Hooks look ``tracer.counts`` up on every call: a forked worker
    # swaps in a fresh Counter.
    def unweighted(args, result):
        task = args[0]
        tracer.counts["estimation.flops"] += task.way * task.n_support * task.dim**2

    def weighted(args, result):
        task = args[0]
        rows = task.n_support + task.n_query
        tracer.counts["estimation.flops"] += task.way * rows * task.dim**2

    def factorize(args, result):
        tracer.counts["numerics.jitter_nonzero"] += result.jitter != 0.0

    def refine(args, result):
        tracer.counts["refinement.iterations"] += result.iterations_run
        tracer.counts["refinement.converged"] += bool(result.converged_early)

    def load(args, result):
        tracer.counts["data.load.bytes"] += os.path.getsize(args[0])

    def render(args, result):
        tracer.counts["harness.render_report.bytes"] += len(result.encode("utf-8"))

    return unweighted, weighted, factorize, refine, load, render


def _traced_estimate_weighted(tracer: Tracer, fn, on_call):
    traced = _wrap(tracer, "estimation.estimate_weighted", fn, on_call)

    @functools.wraps(fn)
    def counting_degenerate(*args, **kwargs):
        try:
            return traced(*args, **kwargs)
        except DegenerateClass:
            tracer.counts["estimation.degenerate"] += 1
            raise

    return counting_degenerate


def _traced_episode_chunk(tracer: Tracer, fn):
    traced = _wrap(tracer, "harness.episode_chunk", fn)

    @functools.wraps(fn)
    def chunk(args):
        in_worker = os.getpid() != tracer.main_pid
        if in_worker:
            tracer.enter_worker()
        try:
            return traced(args)
        finally:
            if in_worker:
                tracer.spill()

    return chunk


def _traced_pool(tracer: Tracer, base):
    """Pool class that records its lifetime as a span, counts starts, and
    counts the pickled bytes of every job it ships to a worker."""

    class TracedPool(base):
        def __init__(self, *args, **kwargs):
            tracer.counts["harness.pool.starts"] += 1
            self._span = tracer.open("harness.pool")
            super().__init__(*args, **kwargs)

        def map(self, fn, *iterables, **kwargs):
            jobs = list(zip(*iterables))
            tracer.counts["harness.pool.bytes_shipped"] += sum(
                len(ForkingPickler.dumps((fn, job))) for job in jobs
            )
            return super().map(fn, *zip(*jobs), **kwargs)

        def shutdown(self, *args, **kwargs):
            try:
                super().shutdown(*args, **kwargs)
            finally:
                if self._span is not None:
                    tracer.close(self._span)
                    self._span = None

    return TracedPool


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Install the span wrappers for the duration of the block."""
    cli, data, est = mahashot.cli, mahashot.data, mahashot.estimation
    harness, refinement = mahashot.harness, mahashot.refinement
    classification, sampler = mahashot.classification, mahashot.sampler
    unweighted, weighted, factorize, refine, load, render = _counting(tracer)

    # (span name, [(module, attribute)], counter hook). Every (module,
    # attribute) pair is a name some caller resolves at call time.
    plain = [
        ("cli.main", [(cli, "main")], None),
        ("data.generate", [(data, "generate_synthetic")], None),
        ("data.write", [(data, "write_dataset")], None),
        ("data.load", [(data, "load_dataset")], load),
        ("harness.evaluate", [(cli, "evaluate")], None),
        ("harness.run_ablation", [(cli, "run_ablation")], None),
        ("harness.render_report", [(cli, "render_report")], render),
        ("sampler.sample_task", [(harness, "sample_task"), (sampler, "sample_task")], None),
        ("refinement.classify_task", [(refinement, "classify_task")], None),
        ("refinement.refine", [(refinement, "refine"), (harness, "refine")], refine),
        ("estimation.estimate_unweighted", [(refinement, "estimate_unweighted")], unweighted),
        ("classification.classify_many", [(refinement, "classify_many")], None),
        ("numerics.spd_factorize", [(est, "spd_factorize")], factorize),
        ("numerics.mahalanobis_sq_many", [(classification, "mahalanobis_sq_many")], None),
        ("numerics.softmax_rows", [(classification, "softmax_rows")], None),
    ]
    patches = []
    for name, sites, hook in plain:
        original = getattr(*sites[0])
        stand_in = _wrap(tracer, name, original, hook)
        patches += [(module, attr, stand_in) for module, attr in sites]
    patches += [
        (
            refinement,
            "estimate_weighted",
            _traced_estimate_weighted(tracer, refinement.estimate_weighted, weighted),
        ),
        (harness, "_episode_chunk", _traced_episode_chunk(tracer, harness._episode_chunk)),
        (harness, "ProcessPoolExecutor", _traced_pool(tracer, harness.ProcessPoolExecutor)),
    ]

    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in patches]
    try:
        for module, attr, value in patches:
            setattr(module, attr, value)
        yield tracer
    finally:
        for module, attr, value in saved:
            setattr(module, attr, value)


# ---------------------------------------------------------------------------
# Summaries


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans: list[list]) -> dict[tuple[int, int], float]:
    """Span duration minus the part its same-process children cover.

    Wrappers nest strictly within one process, so children never overlap
    and their durations can simply be subtracted.
    """
    own = {(s[0], s[1]): s[5] - s[4] for s in spans}
    for pid, _sid, parent, _name, start, end in spans:
        if parent is not None and parent[0] == pid:
            own[parent] -= end - start
    return own


def summarize(spans: list[list]) -> dict:
    """Per-span-name and per-layer calls, busy (inclusive) and self seconds.

    A layer's busy time counts only its outermost spans, so a layer that
    calls itself is not counted twice.
    """
    own = self_times(spans)
    names = {(s[0], s[1]): s[3] for s in spans}
    by_name: dict[str, dict] = {}
    by_layer: dict[str, dict] = {}
    for pid, sid, parent, name, start, end in spans:
        dur = end - start
        row = by_name.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["busy_s"] += dur
        row["self_s"] += own[(pid, sid)]
        layer = layer_of(name)
        lrow = by_layer.setdefault(layer, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        lrow["calls"] += 1
        lrow["self_s"] += own[(pid, sid)]
        parent_name = names.get(parent) if parent is not None else None
        if parent_name is None or layer_of(parent_name) != layer:
            lrow["busy_s"] += dur
    return {"by_name": by_name, "by_layer": by_layer}


def main_process_self_s(spans: list[list], pid: int, since: float) -> float:
    """Total self time of the main process's spans that started at or
    after ``since``: the part of the wall time the layers account for."""
    own = self_times(spans)
    return sum(own[(s[0], s[1])] for s in spans if s[0] == pid and s[4] >= since)

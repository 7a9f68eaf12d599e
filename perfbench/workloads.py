"""The benchmark's three workloads.

Each workload sets up its inputs from the seed (dataset generation, file
write, and for the library loop also the load and task pre-sampling),
then runs closed-loop rounds: one client, the next call only after the
previous one returns. A round is a fixed unit of work whose output is
checked byte for byte:

* ``lowshot_d16``: one pass of ``classify_task`` over 1000 pre-sampled
  5-way 1-shot tasks; the output is the bytes of every hard label.
* ``variable_d128``: four in-process ``mahashot eval`` calls of 4
  episodes, one per sampler seed; the output is the report JSON of each.
* ``ablate_grid_pool2``: four in-process ``mahashot ablate`` calls over the
  default 5x10 step grid at ``--parallelism 2``, 2 episodes each, one per
  sampler seed; the output is the grid CSV of each.

``--seed s`` selects dataset seed ``2024 + s``; the sampler seeds below
are fixed, so every seed runs episodes of the same shapes on different
data.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

import mahashot.cli
import mahashot.data
import mahashot.refinement
import mahashot.sampler
from mahashot.errors import MahashotError

import oracle

DATASET_SEED = 2024
DATASET_FORMAT = "packed-binary"

# The c07 acceptance dataset and sampler: 5-way 1-shot, 10 queries/class.
LOWSHOT_SPEC = dict(n_classes=20, dim=16, mean_scale=0.9, cov_scale=1.0, perturbation=0.0,
                    per_class=64)
LOWSHOT_SAMPLER_SEED = 555
LOWSHOT_TASKS = 1000

# mean_scale 0.45 keeps accuracy near 68% and refinement at 2-4 iterations.
VARIABLE_SPEC = dict(n_classes=64, dim=128, mean_scale=0.45, cov_scale=1.0, perturbation=0.5,
                     per_class=200)
# A round is one call per sampler seed; episodes are per call.
VARIABLE_EPISODES = 4
VARIABLE_SAMPLER_SEEDS = (0, 1, 2, 3)

ABLATE_EPISODES = 2  # the fewest with which the harness starts its pool
ABLATE_SAMPLER_SEEDS = (555, 556, 557, 558)
ABLATE_MIN_STEPS = (0, 1, 2, 3, 4)  # the CLI's default grid
ABLATE_MAX_STEPS = tuple(range(1, 11))
RULE = "mahalanobis-softmax"


@dataclass
class Round:
    """One round: operations run, wall time, output bytes, per-call latencies."""

    ops: int
    wall_s: float
    output: bytes
    latencies_ms: list[float] = field(default_factory=list)
    failed: int = 0


class Workload:
    name = ""
    op = ""  # what one counted operation is
    ops_per_round = 0
    cell_episodes = 0  # (cell, episode) pairs refined per round
    latency_of = ""  # what one latency sample times

    def __init__(self, work_dir: str, seed: int):
        self.work_dir = work_dir
        self.seed = seed
        self.dataset_path = os.path.join(work_dir, "dataset.bin")

    def _make_dataset(self, spec: dict):
        ds = mahashot.data.generate_synthetic(
            mahashot.data.SyntheticSpec(**spec, seed=DATASET_SEED + self.seed)
        )
        mahashot.data.write_dataset(ds, self.dataset_path, DATASET_FORMAT)
        return ds

    def setup(self) -> None:
        raise NotImplementedError

    def round(self) -> Round:
        raise NotImplementedError

    def matches_oracle(self, output: bytes) -> bool:
        """Whether a round's output is what the independent oracle computes."""
        raise NotImplementedError

    def summary(self) -> str:
        """One line on the last round's result, for the log."""
        raise NotImplementedError

    def _blocks(self) -> list[np.ndarray]:
        return list(self.dataset.classes.values())


class LowShot(Workload):
    name = "lowshot_d16"
    op = "task"
    ops_per_round = LOWSHOT_TASKS
    cell_episodes = LOWSHOT_TASKS
    latency_of = "one classify_task call"

    def setup(self) -> None:
        self._make_dataset(LOWSHOT_SPEC)
        self.dataset = mahashot.data.load_dataset(self.dataset_path, DATASET_FORMAT)
        cfg = mahashot.sampler.FixedSamplerConfig(
            way=5, shot=1, query_per_class=10, seed=LOWSHOT_SAMPLER_SEED
        )
        self.tasks = [
            mahashot.sampler.sample_task(self.dataset, cfg, i) for i in range(LOWSHOT_TASKS)
        ]
        self.cfg = mahashot.refinement.RefineConfig(2, 4)

    def round(self) -> Round:
        labels, lat, failed = [], [], 0
        perf = time.perf_counter
        classify = mahashot.refinement.classify_task
        start = perf()
        for task in self.tasks:
            t0 = perf()
            try:
                out = classify(task, self.cfg)
            except MahashotError:
                out = np.full(task.n_query, -1, dtype=np.int64)
                failed += 1
            lat.append((perf() - t0) * 1e3)
            labels.append(out)
        wall = perf() - start
        self.last_labels = labels
        return Round(len(self.tasks), wall, _label_bytes(labels), lat, failed)

    def summary(self) -> str:
        acc = np.mean([np.mean(l == t.truth) for l, t in zip(self.last_labels, self.tasks)])
        return f"accuracy {100 * acc:.2f}% over {len(self.tasks)} tasks"

    def matches_oracle(self, output: bytes) -> bool:
        labels = []
        for i in range(LOWSHOT_TASKS):
            ep = oracle.sample_fixed(self._blocks(), 5, 1, 10, LOWSHOT_SAMPLER_SEED, i)
            history = oracle.trajectory(ep, 4)
            it, _ = oracle.stop(history, 2, 4)
            labels.append(history[it - 1])
        return output == _label_bytes(labels)


def _label_bytes(labels: list[np.ndarray]) -> bytes:
    return b"".join(np.asarray(l, dtype="<i8").tobytes() for l in labels)


class CliWorkload(Workload):
    """A workload whose round is several in-process ``mahashot`` CLI calls.

    Each call of a round draws its episodes with its own sampler seed, so a
    round covers more distinct episodes than one call, and every call is
    one latency sample.
    """

    latency_of = "one CLI call"
    out_name = ""
    sampler_seeds: tuple[int, ...] = ()
    ops_per_call = 0

    def argv(self, sampler_seed: int) -> list[str]:
        raise NotImplementedError

    def matches_oracle_call(self, output: bytes, sampler_seed: int) -> bool:
        raise NotImplementedError

    def round(self) -> Round:
        out_path = os.path.join(self.work_dir, self.out_name)
        outputs, latencies, failed = [], [], 0
        for seed in self.sampler_seeds:
            if os.path.exists(out_path):
                os.remove(out_path)
            printed = io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(printed):
                code = mahashot.cli.main(self.argv(seed) + ["--out", out_path])
            latencies.append((time.perf_counter() - start) * 1e3)
            self.printed = printed.getvalue().strip()
            output = b""
            if code == 0:
                with open(out_path, "rb") as fh:
                    output = fh.read()
            else:
                failed += self.ops_per_call
            outputs.append(output)
        return Round(self.ops_per_round, sum(latencies) / 1e3, b"\0".join(outputs),
                     latencies, failed)

    def matches_oracle(self, output: bytes) -> bool:
        parts = output.split(b"\0")
        return len(parts) == len(self.sampler_seeds) and all(
            self.matches_oracle_call(part, seed) for part, seed in zip(parts, self.sampler_seeds)
        )

    def summary(self) -> str:
        return self.printed


class VariableD128(CliWorkload):
    name = "variable_d128"
    op = "episode"
    sampler_seeds = VARIABLE_SAMPLER_SEEDS
    ops_per_call = VARIABLE_EPISODES
    ops_per_round = ops_per_call * len(sampler_seeds)
    cell_episodes = ops_per_round
    out_name = "report.json"

    def setup(self) -> None:
        self.dataset = self._make_dataset(VARIABLE_SPEC)

    def argv(self, sampler_seed: int) -> list[str]:
        return [
            "eval", "--dataset", self.dataset_path, "--sampler", "variable",
            "--episodes", str(VARIABLE_EPISODES), "--seed", str(sampler_seed),
            "--min-steps", "2", "--max-steps", "4", "--rule", RULE,
            "--parallelism", "1", "--format", "json",
        ]

    def matches_oracle_call(self, output: bytes, sampler_seed: int) -> bool:
        # The oracle does not re-render the report, only the fields that
        # depend on the hard labels and iteration counts.
        acc, iters, conv = [], [], []
        for i in range(VARIABLE_EPISODES):
            ep = oracle.sample_variable(
                self._blocks(), way_min=5, way_max=50, shot_min=1, shot_max=100, query=10,
                cap=500, seed=sampler_seed, index=i,
            )
            history = oracle.trajectory(ep, 4)
            it, converged = oracle.stop(history, 2, 4)
            acc.append(oracle.accuracy(history[it - 1], ep[3]))
            iters.append(it)
            conv.append(converged)
        mean, ci95 = oracle.mean_ci95(acc)
        want = {
            "episodes": VARIABLE_EPISODES,
            "mean_accuracy": mean,
            "ci95": ci95,
            "converged_early_rate": float(np.mean(conv)),
            "iteration_histogram": {str(k): iters.count(k) for k in sorted(set(iters))},
            "per_episode_accuracy": acc,
        }
        try:
            report = json.loads(output)
        except ValueError:
            return False
        return {k: report.get(k) for k in want} == want


class AblateGrid(CliWorkload):
    name = "ablate_grid_pool2"
    op = "cell"
    sampler_seeds = ABLATE_SAMPLER_SEEDS
    ops_per_call = len(ABLATE_MIN_STEPS) * len(ABLATE_MAX_STEPS)
    ops_per_round = ops_per_call * len(sampler_seeds)
    cell_episodes = ops_per_round * ABLATE_EPISODES
    out_name = "grid.csv"

    def setup(self) -> None:
        self.dataset = self._make_dataset(LOWSHOT_SPEC)

    def argv(self, sampler_seed: int) -> list[str]:
        return [
            "ablate", "--dataset", self.dataset_path, "--sampler", "fixed",
            "--way", "5", "--shot", "1", "--query-per-class", "10",
            "--seed", str(sampler_seed), "--episodes", str(ABLATE_EPISODES),
            "--repeats", "1", "--rule", RULE, "--parallelism", "2", "--format", "csv",
        ]

    def matches_oracle_call(self, output: bytes, sampler_seed: int) -> bool:
        # One 10-step trajectory per episode serves every cell: the loop
        # body does not depend on min/max steps, only where it stops.
        episodes = [
            oracle.sample_fixed(self._blocks(), 5, 1, 10, sampler_seed, i)
            for i in range(ABLATE_EPISODES)
        ]
        runs = [(ep[3], oracle.trajectory(ep, max(ABLATE_MAX_STEPS))) for ep in episodes]
        rows = []
        for mn, mx in itertools.product(ABLATE_MIN_STEPS, ABLATE_MAX_STEPS):
            acc = []
            for truth, history in runs:
                it, _ = oracle.stop(history, min(mn, mx), mx)
                acc.append(oracle.accuracy(history[it - 1], truth))
            rows.append((mn, mx, RULE, 10, acc))
        return output == oracle.grid_csv(rows)


WORKLOADS = {w.name: w for w in (LowShot, VariableD128, AblateGrid)}

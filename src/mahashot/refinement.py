"""Iterative transductive refinement of class parameters.

One iteration = one parameter estimate plus one responsibility update.
The first iteration estimates from the labelled support set alone, so a
run capped at a single iteration is exactly the non-transductive
baseline classifier. Subsequent iterations fold the query set in through
its current soft labels, alternating weighted re-estimation with
responsibility updates until the hard query labels stop changing (and at
least ``min_steps`` iterations have run) or ``max_steps`` is reached.

The convergence check compares hard argmax labels, not probabilities.
Everything here is test-time machinery: no state is trained or mutated.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .classification import AssignmentRule, argmax_labels, classify_many
from .data import Task
from .estimation import (
    ClassParams,
    Responsibilities,
    estimate_unweighted,
    estimate_weighted,
)


@dataclass(frozen=True)
class RefineConfig:
    """Bounds and rule for the refinement loop.

    ``min_steps=2, max_steps=4`` are the variable-way benchmark defaults;
    sweeps over both are what the ablation harness exposes.
    """

    min_steps: int = 2
    max_steps: int = 4
    rule: AssignmentRule = field(default_factory=AssignmentRule)
    beta: float = 1.0

    def __post_init__(self):
        if self.min_steps < 0:
            raise ValueError(f"min_steps must be >= 0, got {self.min_steps}")
        if self.max_steps < max(1, self.min_steps):
            raise ValueError(
                f"max_steps must be >= max(1, min_steps), got {self.max_steps}"
            )
        if not 0 <= self.beta < np.inf:
            raise ValueError(f"beta must be >= 0 and finite, got {self.beta}")


@dataclass(frozen=True)
class RefineTrace:
    """Everything a caller can ask about one refinement run.

    ``labels_per_iteration[i]`` holds the hard query labels after
    iteration i+1. ``converged_early`` is True iff the loop stopped
    because labels stabilized, or at once because the task has no query
    rows; False when it ran into the ``max_steps`` cap.
    """

    iterations_run: int
    labels_per_iteration: list[np.ndarray]
    converged_early: bool
    final_resp: Responsibilities
    final_params: list[ClassParams]


def _stops(t: int, repeated: bool, min_steps: int) -> bool:
    """The stop rule: iteration ``t`` ends the run iff its labels repeat
    those of t-1, or the task has no query rows (``repeated``), and either
    t = 1 or t >= ``min_steps``. Runs that never stop end at ``max_steps``."""
    return repeated and (t == 1 or t >= min_steps)


def refine(task: Task, cfg: RefineConfig) -> RefineTrace:
    """Run the refinement loop on one task and return its full trace."""
    history: list[np.ndarray] = []
    for t in range(1, cfg.max_steps + 1):
        if t == 1:
            params, _ = estimate_unweighted(task, cfg.beta)
        else:
            # Hold one generation: at d = 128 a 50-way set of class
            # parameters is about 20 MB, so free the last before the next.
            del params
            params, _ = estimate_weighted(task, resp, cfg.beta)
        probs = classify_many(cfg.rule, params, task.query_z)
        resp = Responsibilities.build(task, probs)
        history.append(argmax_labels(probs))
        # With no query rows, weighted estimation over the one-hot support
        # rows would reproduce the first estimate verbatim, forever.
        repeated = task.n_query == 0 or (t > 1 and np.array_equal(history[-1], history[-2]))
        converged = _stops(t, repeated, cfg.min_steps)
        if converged:
            break
    return RefineTrace(t, history, converged, resp, params)


def classify_task(task: Task, cfg: RefineConfig) -> np.ndarray:
    """Hard labels for the task's query set (lowest index wins ties)."""
    return refine(task, cfg).labels_per_iteration[-1]

"""mahashot benchmark: one workload per process, end-to-end or traced.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload lowshot_d16 --seed 0 --seconds 20 --trace 0

``--trace 0`` measures with no tracing installed and reports the
end-to-end metrics. ``--trace 1`` runs untraced rounds, then one traced
set-up and one traced round, and reports the per-layer metrics with the
layers' coverage of the traced wall time and the tracing overhead.

The program is imported from ``src/`` of the checkout this file sits in;
the run fails if it is not there. BLAS and OpenMP thread settings and the
multiprocessing start method are left as the user's environment has them
and are recorded, never set. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
full result, with the environment block and the traced-run table, goes to
``.perfbench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

# Set-up runs at least SETUP_REPEATS times and for at least SETUP_MIN_S,
# so that a set-up of a few milliseconds still gets a steady median.
SETUP_REPEATS = 5
SETUP_MIN_S = 1.0
SETUP_MAX_REPEATS = 200
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _import_program():
    """Import mahashot from this checkout's ``src/`` and nowhere else."""
    if not os.path.isdir(os.path.join(SRC, "mahashot")):
        raise SystemExit(f"error: no mahashot package under {SRC}")
    sys.path.insert(0, SRC)
    import mahashot

    where = os.path.realpath(mahashot.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"error: imported mahashot from {where}, not from {SRC}")


def _openblas_threads():
    """OpenBLAS's own thread count, read through ctypes from the loaded
    library, or None where no OpenBLAS with a known getter is loaded."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                return getter()
    return None


def _git_sha():
    """HEAD of the checkout read from ``.git``, or None outside a git repo."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import multiprocessing
    import platform

    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_env": {k: os.environ.get(k, "unset") for k in THREAD_VARS},
        "openblas_threads": _openblas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "start_method": multiprocessing.get_start_method(allow_none=True)
        or f"default ({multiprocessing.get_all_start_methods()[0]})",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(),
    }


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def _run_rounds(wl, seconds: float) -> list:
    """Closed-loop rounds for about ``seconds``: at least one, and no new
    round once less than half a round's time is left."""
    rounds = [wl.round()]
    start = time.perf_counter() - rounds[0].wall_s
    while time.perf_counter() - start + rounds[-1].wall_s / 2 < seconds:
        rounds.append(wl.round())
    return rounds


def _check(wl, rounds, references: dict) -> tuple[list[bool], str]:
    """Per-round verdicts: a round is correct when it repeats the first
    round's output and the first matches the recorded reference for this
    seed, or the independent oracle where no reference is recorded."""
    first = rounds[0].output
    recorded = references.get(wl.name, {}).get(str(wl.seed))
    if recorded is not None:
        ref_ok = hashlib.sha256(first).hexdigest() == recorded
        how = "recorded sha256"
    else:
        ref_ok = wl.matches_oracle(first)
        how = "independent oracle"
    verdicts = [ref_ok and r.output == first for r in rounds]
    repeats = sum(r.output == first for r in rounds)
    return verdicts, (
        f"{how} {'matches' if ref_ok else 'MISMATCH'}; "
        f"{repeats}/{len(rounds)} rounds repeat the first round's output"
    )


def _failed_ops(rounds, verdicts) -> int:
    """Failed operations, plus every operation of a round whose output is
    wrong (a wrong output cannot be pinned to one operation)."""
    return sum(r.failed if ok else r.ops for r, ok in zip(rounds, verdicts))


def end_to_end(wl, seconds: float) -> tuple[dict, list, dict]:
    setup_s = []
    while len(setup_s) < SETUP_REPEATS or (
        sum(setup_s) < SETUP_MIN_S and len(setup_s) < SETUP_MAX_REPEATS
    ):
        t0 = time.perf_counter()
        wl.setup()
        setup_s.append(time.perf_counter() - t0)
    rounds = _run_rounds(wl, seconds)
    latencies = [x for r in rounds for x in r.latencies_ms]
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "ops_per_s": (wl.ops_per_round / statistics.median(r.wall_s for r in rounds), "1/s"),
        "latency_ms.p50": (float(np.percentile(latencies, 50)), "ms"),
        "latency_ms.p90": (float(np.percentile(latencies, 90)), "ms"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    detail = {"setup_s": setup_s, "round_s": [r.wall_s for r in rounds],
              "latency_samples": len(latencies)}
    return metrics, rounds, detail


PER_NAME = (
    ("sampler.sample_task", ("calls", "busy_s")),
    ("estimation.estimate_unweighted", ("calls", "self_s")),
    ("estimation.estimate_weighted", ("calls", "self_s")),
    ("numerics.spd_factorize", ("calls", "busy_s")),
    ("numerics.mahalanobis_sq_many", ("calls", "busy_s")),
    ("numerics.softmax_rows", ("busy_s",)),
    ("classification.classify_many", ("calls", "self_s")),
    ("refinement.refine", ("calls", "self_s")),
    ("harness.evaluate", ("self_s",)),
    ("harness.run_ablation", ("self_s",)),
    ("harness.pool", ("busy_s",)),
    ("harness.render_report", ("busy_s",)),
    ("cli.main", ("self_s",)),
    ("data.generate", ("busy_s",)),
    ("data.load", ("busy_s",)),
)
COUNTS = (
    ("data.load.bytes", "bytes"),
    ("estimation.degenerate", "count"),
    ("estimation.flops", "flop"),
    ("numerics.jitter_nonzero", "count"),
    ("refinement.iterations", "count"),
    ("refinement.converged", "count"),
    ("harness.pool.starts", "count"),
    ("harness.pool.bytes_shipped", "bytes"),
    ("harness.render_report.bytes", "bytes"),
)


def traced(wl, seconds: float) -> tuple[dict, list, dict]:
    import tracing

    spill = os.path.join(wl.work_dir, "spill")
    os.makedirs(spill, exist_ok=True)
    tracer = tracing.Tracer(spill)
    tracer.reset()

    wl.setup()  # untraced warm-up
    with tracing.installed(tracer):
        wl.setup()
    rounds = _run_rounds(wl, seconds / 2)
    untraced_s = statistics.median(r.wall_s for r in rounds)
    with tracing.installed(tracer):
        since = time.perf_counter()
        rounds.append(wl.round())
    traced_s = rounds[-1].wall_s
    spans, counts = tracer.collect()

    summary = tracing.summarize(spans)
    metrics = {}
    for name, fields in PER_NAME:
        row = summary["by_name"].get(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for f in fields:
            metrics[f"{name}.{f}"] = (row[f], "count" if f == "calls" else "s")
    for name, unit in COUNTS:
        metrics[name] = (int(counts.get(name, 0)), unit)
    refine_calls = metrics["refinement.refine.calls"][0]
    metrics["refinement.refine_calls_per_cell_episode"] = (refine_calls / wl.cell_episodes, "ratio")
    metrics["harness.pool.worker_spans"] = (sum(s[0] != tracer.main_pid for s in spans), "count")
    covered = tracing.main_process_self_s(spans, tracer.main_pid, since)
    metrics["trace.coverage"] = (covered / traced_s, "ratio")
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")

    with open(os.path.join(wl.work_dir, "spans.jsonl"), "w") as fh:
        for s in spans:
            fh.write(json.dumps(dict(zip(("pid", "id", "parent", "name", "start", "end"), s))))
            fh.write("\n")
    detail = {"layers": summary["by_layer"], "traced_round_s": traced_s,
              "untraced_round_s": untraced_s, "spans": len(spans)}
    return metrics, rounds, detail


def _print_layers(layers: dict, wall: float) -> None:
    print(f"{'layer':<16}{'calls':>10}{'busy_s':>12}{'self_s':>12}")
    for layer, row in sorted(layers.items()):
        print(f"{layer:<16}{row['calls']:>10}{row['busy_s']:>12.4f}{row['self_s']:>12.4f}")
    print(f"(traced round wall {wall:.4f} s; busy and self include pool workers)")


def _check_declared(metrics: dict, section: str) -> None:
    """The metrics must be exactly those BENCHMARK.json declares, in its units."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)[section]}
    produced = {name: unit for name, (_value, unit) in metrics.items()}
    if produced != declared:
        raise SystemExit(f"error: metrics differ from BENCHMARK.json {section}: "
                         f"{sorted(set(produced.items()) ^ set(declared.items()))}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    _import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    work_dir = os.path.join(WORK, f"{args.workload}-s{args.seed}-t{args.trace}")
    os.makedirs(work_dir, exist_ok=True)
    wl = WORKLOADS[args.workload](work_dir, args.seed)
    env = environment()
    print(f"workload {wl.name}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("environment " + json.dumps(env))

    run = traced if args.trace else end_to_end
    metrics, rounds, detail = run(wl, args.seconds)
    _check_declared(metrics, "per_layer" if args.trace else "end_to_end")

    with open(os.path.join(HERE, "references.json")) as fh:
        references = json.load(fh)
    verdicts, how = _check(wl, rounds, references)
    attempted = sum(r.ops for r in rounds)
    failed = _failed_ops(rounds, verdicts)
    print(f"output check: {how}")
    print(f"failed_ops = {failed}/{attempted} = {failed / attempted:.6g} (ops are {wl.op}s)")
    print(wl.summary())
    if args.trace:
        _print_layers(detail["layers"], detail["traced_round_s"])
    else:
        print(f"latency samples: {detail['latency_samples']} ({wl.latency_of} each)")
    for name, (value, unit) in metrics.items():
        print(f"{name:<44} {value:>16.6g} {unit}")

    result = {
        "correct": all(verdicts) and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(os.path.join(work_dir, "result.json"), "w") as fh:
        json.dump({**result, "workload": wl.name, "seed": args.seed, "op": wl.op,
                   "environment": env, "check": how, "detail": detail}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

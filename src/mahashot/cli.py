"""Command-line surface.

Subcommands: ``gen-synthetic`` (write a synthetic embedding dataset),
``sample`` (dump episodes for inspection), ``eval`` (episodic evaluation
report), ``ablate`` (config-grid sweep), ``selftest`` (fast invariant
checks).

Exit codes: 0 success, 2 configuration error (``InvalidSpec`` or any
other ``ValueError``), 3 data error (any other ``MahashotError``, or an
``OSError``).
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import dataclasses
import io
import json
import os
import re
import sys

from . import data as ds_io
from .classification import MAHALANOBIS_SOFTMAX, RULE_KINDS, AssignmentRule
from .errors import InvalidSpec, MahashotError
from .harness import REPORT_FORMATS, AblationSpec, evaluate, render_report, run_ablation
from .numerics import _pin_single_blas_thread
from .refinement import RefineConfig
from .sampler import FixedSamplerConfig, VariableSamplerConfig, sample_task
from .selftest import run_selftest

_SAMPLERS = {"variable": VariableSamplerConfig, "fixed": FixedSamplerConfig}


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.add_argument("--format", choices=list(REPORT_FORMATS), default="json")


def _add_dataset(p: argparse.ArgumentParser):
    p.add_argument("--dataset", required=True, help="embedding dataset file")
    p.add_argument(
        "--dataset-format",
        choices=list(ds_io.DATASET_FORMATS),
        default=ds_io.BINARY_FORMAT,
    )


def _add_sampler(p: argparse.ArgumentParser, *, query_axis=False):
    p.add_argument("--sampler", choices=list(_SAMPLERS), default="variable")
    p.add_argument("--way", type=int, default=5, help="fixed sampler: classes per task")
    p.add_argument("--shot", type=int, default=1, help="fixed sampler: support per class")
    if query_axis:
        p.add_argument(
            "--query-per-class", type=_int_list, default=(10,),
            help="comma-separated axis of query counts per class",
        )
    else:
        p.add_argument("--query-per-class", type=int, default=10)
    p.add_argument("--way-min", type=int, default=5)
    p.add_argument("--way-max", type=int, default=50)
    p.add_argument("--shot-min", type=int, default=1)
    p.add_argument("--shot-max", type=int, default=100)
    p.add_argument("--support-cap", type=int, default=500)


def _add_refine(p: argparse.ArgumentParser):
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--rule", choices=list(RULE_KINDS), default=MAHALANOBIS_SOFTMAX)
    p.add_argument("--min-steps", type=int, default=2)
    p.add_argument("--max-steps", type=int, default=4)


def _from_args(cls, args, **given):
    """A ``cls`` whose fields not in ``given`` come from the parsed flags of
    the same names."""
    flags = {f.name: getattr(args, f.name) for f in dataclasses.fields(cls) if f.name not in given}
    return cls(**flags, **given)


def _write_out(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_gen_synthetic(args) -> int:
    dataset = ds_io.generate_synthetic(_from_args(ds_io.SyntheticSpec, args))
    ds_io.write_dataset(dataset, args.out, args.format)
    print(
        f"wrote {dataset.n_classes} classes x {args.per_class} embeddings "
        f"(d={dataset.dim}) to {args.out}"
    )
    return 0


def _dump_episodes_json(dataset, cfg, n_episodes) -> str:
    records = []
    for i in range(n_episodes):
        task = sample_task(dataset, cfg, i)
        records.append(
            {
                "index": i,
                "way": task.way,
                "class_names": list(task.class_names),
                "support": [
                    {"label": int(y), "z": [float(x) for x in z]}
                    for z, y in zip(task.support_z, task.support_y)
                ],
                "query": [
                    {"truth": int(y), "z": [float(x) for x in z]}
                    for z, y in zip(task.query_z, task.truth)
                ],
            }
        )
    return json.dumps(records, indent=2) + "\n"


def _dump_episodes_csv(dataset, cfg, n_episodes) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    header = ["episode", "role", "label", "class_name"]
    header += [f"f_{j}" for j in range(dataset.dim)]
    writer.writerow(header)
    for i in range(n_episodes):
        task = sample_task(dataset, cfg, i)
        names = task.class_names
        for z, y in zip(task.support_z, task.support_y):
            writer.writerow([i, "support", int(y), names[int(y)]] + [f"{x:.17g}" for x in z])
        for z, y in zip(task.query_z, task.truth):
            writer.writerow([i, "query", int(y), names[int(y)]] + [f"{x:.17g}" for x in z])
    return out.getvalue()


def _cmd_sample(args) -> int:
    if args.episodes < 1:
        raise ValueError(f"episodes must be >= 1, got {args.episodes}")
    dataset = ds_io.load_dataset(args.dataset, args.dataset_format)
    cfg = _from_args(_SAMPLERS[args.sampler], args)
    if args.format == "json":
        text = _dump_episodes_json(dataset, cfg, args.episodes)
    else:
        text = _dump_episodes_csv(dataset, cfg, args.episodes)
    _write_out(text, args.out)
    return 0


def _cmd_eval(args) -> int:
    dataset = ds_io.load_dataset(args.dataset, args.dataset_format)
    report = evaluate(
        dataset,
        _from_args(_SAMPLERS[args.sampler], args),
        _from_args(RefineConfig, args, rule=AssignmentRule(args.rule)),
        args.episodes,
        parallelism=args.parallelism,
    )
    _write_out(render_report(report, args.format), args.out)
    if args.out is not None:
        print(
            f"{report.method}: accuracy {100 * report.mean_accuracy:.2f}% "
            f"+/- {100 * report.ci95:.2f} over {report.episodes} episodes -> {args.out}"
        )
    return 0


def _cmd_ablate(args) -> int:
    dataset = ds_io.load_dataset(args.dataset, args.dataset_format)
    spec = _from_args(AblationSpec, args, rules=tuple(args.rule.split(",")))
    qpc = args.query_per_class[0]
    base_sampler = _from_args(_SAMPLERS[args.sampler], args, query_per_class=qpc)
    grid = run_ablation(dataset, base_sampler, spec, parallelism=args.parallelism)
    _write_out(render_report(grid, args.format), args.out)
    if args.out is not None:
        print(f"{len(grid.cells)} cells -> {args.out}")
    return 0


def _cmd_selftest(args) -> int:
    return 0 if run_selftest() else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mahashot",
        description="Transductive Mahalanobis few-shot classification on embeddings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-synthetic", help="generate a synthetic embedding dataset")
    p.add_argument("--classes", dest="n_classes", metavar="CLASSES", type=int, default=20)
    p.add_argument("--dim", type=int, default=16)
    p.add_argument("--mean-scale", type=float, default=1.0)
    p.add_argument("--cov-scale", type=float, default=1.0)
    p.add_argument("--perturbation", type=float, default=0.0)
    p.add_argument("--per-class", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument(
        "--format", choices=list(ds_io.DATASET_FORMATS), default=ds_io.BINARY_FORMAT
    )
    p.set_defaults(func=_cmd_gen_synthetic)

    p = sub.add_parser("sample", help="dump sampled episodes as JSON or CSV")
    _add_common(p)
    _add_dataset(p)
    _add_sampler(p)
    p.add_argument("--episodes", type=int, default=5)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("eval", help="run an episodic evaluation and emit the report")
    _add_common(p)
    _add_dataset(p)
    _add_sampler(p)
    _add_refine(p)
    p.add_argument("--episodes", type=int, default=100)
    p.add_argument("--parallelism", type=int, default=1)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("ablate", help="run an ablation grid and emit the report")
    # argparse on Python 3.10 and 3.11 reads an argument that starts with
    # "-" as an option unless it is a plain number, so "--min-steps -1,2"
    # would stop as a usage error. No flag here starts with "-<digit>", so
    # such arguments are values, checked by the config they build.
    p._negative_number_matcher = re.compile(r"-\d")
    _add_common(p)
    _add_dataset(p)
    _add_sampler(p, query_axis=True)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument(
        "--min-steps", type=_int_list, default=(0, 1, 2, 3, 4),
        help="comma-separated axis of minimum step counts",
    )
    p.add_argument(
        "--max-steps", type=_int_list, default=tuple(range(1, 11)),
        help="comma-separated axis of maximum step counts",
    )
    p.add_argument(
        "--rule", default=MAHALANOBIS_SOFTMAX,
        help="comma-separated axis of assignment rules",
    )
    p.add_argument("--episodes", type=int, default=100)
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--parallelism", type=int, default=1)
    p.set_defaults(func=_cmd_ablate)

    p = sub.add_parser("selftest", help="run the fast invariant checks")
    p.set_defaults(func=_cmd_selftest)

    return parser


# <malloc.h> parameter numbers of glibc's mallopt.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _keep_freed_memory() -> None:
    """Have glibc's malloc keep freed memory for reuse, not return it.

    Refinement frees one generation of class parameters (about 20 MB at
    50-way d = 128) just before it builds the next. Under glibc's sliding
    default thresholds that memory goes back to the OS, and every page of
    the next generation faults in afresh. Fixing the thresholds at the
    limits the sliding rule tops out at keeps it in the heap. Other C
    libraries are left alone.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc"):
            return
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, ValueError):
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # The CLI owns its process, so both settings last until it exits: its small
    # factorizations run fastest on one BLAS thread, and --parallelism is the only parallelism.
    _keep_freed_memory()
    _pin_single_blas_thread()
    try:
        return args.func(args)
    except InvalidSpec as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (MahashotError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

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
import io
import json
import sys

from . import data as ds_io
from .classification import GMM, MAHALANOBIS_SOFTMAX, AssignmentRule
from .errors import InvalidSpec, MahashotError
from .harness import AblationSpec, evaluate, render_report, run_ablation
from .numerics import _single_blas_thread
from .refinement import RefineConfig
from .sampler import FixedSamplerConfig, VariableSamplerConfig, sample_task
from .selftest import run_selftest


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.add_argument("--format", choices=["json", "csv"], default="json")


def _add_dataset(p: argparse.ArgumentParser):
    p.add_argument("--dataset", required=True, help="embedding dataset file")
    p.add_argument(
        "--dataset-format",
        choices=list(ds_io.DATASET_FORMATS),
        default=ds_io.BINARY_FORMAT,
    )


def _add_sampler(p: argparse.ArgumentParser, *, query_axis=False):
    p.add_argument("--sampler", choices=["variable", "fixed"], default="variable")
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
    p.add_argument("--rule", choices=[MAHALANOBIS_SOFTMAX, GMM], default=MAHALANOBIS_SOFTMAX)
    p.add_argument("--min-steps", type=int, default=2)
    p.add_argument("--max-steps", type=int, default=4)


def _sampler_config(args, query_per_class=None):
    qpc = args.query_per_class if query_per_class is None else query_per_class
    if args.sampler == "fixed":
        return FixedSamplerConfig(
            way=args.way,
            shot=args.shot,
            query_per_class=qpc,
            seed=args.seed,
        )
    return VariableSamplerConfig(
        way_min=args.way_min,
        way_max=args.way_max,
        shot_min=args.shot_min,
        shot_max=args.shot_max,
        query_per_class=qpc,
        support_cap=args.support_cap,
        seed=args.seed,
    )


def _refine_config(args) -> RefineConfig:
    return RefineConfig(
        min_steps=args.min_steps,
        max_steps=args.max_steps,
        rule=AssignmentRule(kind=args.rule),
        beta=args.beta,
    )


def _write_out(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="") as fh:
            fh.write(text)


def _cmd_gen_synthetic(args) -> int:
    spec = ds_io.SyntheticSpec(
        n_classes=args.classes,
        dim=args.dim,
        mean_scale=args.mean_scale,
        cov_scale=args.cov_scale,
        perturbation=args.perturbation,
        per_class=args.per_class,
        seed=args.seed,
    )
    dataset = ds_io.generate_synthetic(spec)
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
                "class_names": list(task.class_names or []),
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
        names = task.class_names or tuple(str(k) for k in range(task.way))
        for z, y in zip(task.support_z, task.support_y):
            writer.writerow([i, "support", int(y), names[int(y)]] + [f"{x:.17g}" for x in z])
        for z, y in zip(task.query_z, task.truth):
            writer.writerow([i, "query", int(y), names[int(y)]] + [f"{x:.17g}" for x in z])
    return out.getvalue()


def _cmd_sample(args) -> int:
    if args.episodes < 1:
        raise ValueError(f"episodes must be >= 1, got {args.episodes}")
    dataset = ds_io.load_dataset(args.dataset, args.dataset_format)
    cfg = _sampler_config(args)
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
        _sampler_config(args),
        _refine_config(args),
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
    spec = AblationSpec(
        min_steps=tuple(args.min_steps),
        max_steps=tuple(args.max_steps),
        rules=tuple(args.rule.split(",")),
        query_per_class=tuple(args.query_per_class),
        episodes=args.episodes,
        repeats=args.repeats,
        seed=args.seed,
        beta=args.beta,
    )
    base_sampler = _sampler_config(args, query_per_class=args.query_per_class[0])
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
    p.add_argument("--classes", type=int, default=20)
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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # The CLI owns its process: its small factorizations run fastest
        # on one BLAS thread, and --parallelism is the only parallelism.
        with _single_blas_thread():
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

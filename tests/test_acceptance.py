"""Acceptance suite: one test per criterion, printed as PASS/FAIL lines.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete (they also appear in captured output under plain
``pytest``).
"""

import json
import time

import numpy as np
import pytest
from scipy import stats

from mahashot import (
    AblationSpec,
    AssignmentRule,
    ClassParams,
    FixedSamplerConfig,
    RefineConfig,
    Responsibilities,
    SyntheticSpec,
    Task,
    VariableSamplerConfig,
    classify_many,
    emit_report,
    estimate_unweighted,
    estimate_weighted,
    evaluate,
    generate_synthetic,
    mahalanobis_sq,
    bregman_divergence,
    refine,
    run_ablation,
    sample_fixed,
    sample_variable,
    spd_factorize,
)
from mahashot.cli import main as cli_main
from conftest import make_task, random_spd, without_query
from oracles import naive_unweighted, naive_weighted

# 5-way 1-shot benchmark: d=16, 20 classes, one covariance shared by all
# classes, mean scale calibrated so the non-transductive baseline lands in
# the 60-80% band (measured 68.7% over the 1000 paired episodes below).
BENCH_SPEC = SyntheticSpec(
    n_classes=20, dim=16, mean_scale=0.9, cov_scale=1.0,
    perturbation=0.0, per_class=64, seed=2024,
)
BENCH_SAMPLER = FixedSamplerConfig(way=5, shot=1, query_per_class=10, seed=555)

BASELINE_CFG = RefineConfig(min_steps=0, max_steps=1)
TRANSDUCTIVE_CFG = RefineConfig(min_steps=2, max_steps=4)


def criterion(num: int, desc: str, ok: bool, detail: str = ""):
    tail = f"  [{detail}]" if detail else ""
    line = f"{'PASS' if ok else 'FAIL'}  criterion {num:2d}: {desc}{tail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def bench_ds():
    return generate_synthetic(BENCH_SPEC)


class TestAcceptance:
    def test_c01_simple_reduction(self, bench_ds):
        t0 = time.monotonic()
        worst = 0.0
        for i in range(1000):
            task = sample_fixed(bench_ds, BENCH_SAMPLER, i)
            trace = refine(task, BASELINE_CFG)
            params, _ = estimate_unweighted(task, BASELINE_CFG.beta)
            direct = classify_many(BASELINE_CFG.rule, params, task.query_z)
            worst = max(worst, float(np.abs(trace.final_resp.query - direct).max()))
        elapsed = time.monotonic() - t0
        criterion(
            1,
            "single-iteration refinement equals the direct classifier (1e-12)",
            worst <= 1e-12 and elapsed < 30.0,
            f"max dev {worst:.2e}, {elapsed:.1f}s",
        )

    def test_c02_empty_query_equality(self, bench_ds):
        sampler = FixedSamplerConfig(way=5, shot=3, query_per_class=1, seed=77)
        worst = 0.0
        for i in range(1000):
            task = without_query(sample_fixed(bench_ds, sampler, i))
            resp = Responsibilities.build(task, np.zeros((0, task.way)))
            pw, sw = estimate_weighted(task, resp)
            pu, su = estimate_unweighted(task)
            devs = [np.abs(sw.mu - su.mu).max(), np.abs(sw.sigma - su.sigma).max()]
            for a, b in zip(pw, pu):
                devs += [
                    np.abs(a.mu - b.mu).max(),
                    np.abs(a.q - b.q).max(),
                    np.abs(a.sigma_k - b.sigma_k).max(),
                    abs(a.count - b.count),
                ]
            worst = max(worst, float(max(devs)))
        criterion(
            2,
            "weighted estimators equal unweighted on empty query sets (1e-12)",
            worst <= 1e-12,
            f"max dev {worst:.2e} over 1000 episodes",
        )

    def test_c03_oracle_equivalence(self):
        rng = np.random.default_rng(31)
        worst = 0.0
        for _ in range(100):
            way = int(rng.integers(2, 6))
            d = int(rng.integers(2, 9))
            task = make_task(rng, way=way, d=d, queries=int(rng.integers(1, 8)))

            params, stats_ = estimate_unweighted(task, beta=1.0)
            mus, sigma, sigma_ks, qs, mu_task = naive_unweighted(task, beta=1.0)
            devs = [
                np.abs(stats_.mu - mu_task).max(),
                np.abs(stats_.sigma - sigma).max(),
            ]
            for k in range(way):
                devs += [
                    np.abs(params[k].mu - mus[k]).max(),
                    np.abs(params[k].sigma_k - sigma_ks[k]).max(),
                    np.abs(params[k].q - qs[k]).max(),
                ]

            raw = rng.uniform(0.05, 1.0, size=(task.n_query, way))
            resp = Responsibilities.build(task, raw / raw.sum(axis=1, keepdims=True))
            wparams, wstats = estimate_weighted(task, resp, beta=1.0)
            wmus, wsigma, wsigma_ks, wqs, wmu = naive_weighted(task, resp.w, beta=1.0)
            devs += [np.abs(wstats.mu - wmu).max(), np.abs(wstats.sigma - wsigma).max()]
            for k in range(way):
                devs += [
                    np.abs(wparams[k].mu - wmus[k]).max(),
                    np.abs(wparams[k].sigma_k - wsigma_ks[k]).max(),
                    np.abs(wparams[k].q - wqs[k]).max(),
                ]
            worst = max(worst, float(max(devs)))
        criterion(
            3,
            "estimators match brute-force summation oracles (1e-12)",
            worst <= 1e-12,
            f"max dev {worst:.2e} over 100 tasks",
        )

    def test_c04_bregman_identity(self):
        rng = np.random.default_rng(47)
        worst = 0.0
        for _ in range(10000):
            d = int(rng.integers(2, 9))
            f = spd_factorize(random_spd(rng, d))
            z, zp = rng.standard_normal(d) * 3, rng.standard_normal(d) * 3
            worst = max(worst, abs(bregman_divergence(f, z, zp) - mahalanobis_sq(f, z, zp)))
        criterion(
            4,
            "Bregman divergence equals squared Mahalanobis distance (1e-9)",
            worst <= 1e-9,
            f"max dev {worst:.2e} over 10000 triples",
        )

    def test_c05_gmm_argmax_reduction(self):
        rng = np.random.default_rng(53)
        soft = AssignmentRule("mahalanobis-softmax")
        gmm = AssignmentRule("gmm")
        agreements = 0
        total = 0
        for _ in range(100):
            d, k = int(rng.integers(2, 7)), int(rng.integers(2, 6))
            q = random_spd(rng, d)
            f = spd_factorize(q)
            params = [
                ClassParams(
                    mu=rng.standard_normal(d) * 2, q=q, q_factor=f, count=1.0,
                    sigma_k=np.zeros((d, d)),
                )
                for _ in range(k)
            ]
            pts = rng.standard_normal((100, d)) * 3
            a = classify_many(soft, params, pts).argmax(axis=1)
            b = classify_many(gmm, params, pts).argmax(axis=1)
            agreements += int((a == b).sum())
            total += 100
        criterion(
            5,
            "GMM argmax equals softmax argmax under shared covariance",
            agreements == total == 10000,
            f"{agreements}/{total} agree",
        )

    def test_c06_affine_equivariance(self):
        rng = np.random.default_rng(59)
        worst = 0.0
        for _ in range(100):
            d = int(rng.integers(2, 5))
            way = int(rng.integers(2, 4))
            task = make_task(rng, way=way, shots=d + 2, d=d, queries=6)
            q_mat, _ = np.linalg.qr(rng.standard_normal((d, d)))
            a = q_mat @ np.diag(rng.uniform(0.5, 2.0, size=d))
            b = rng.standard_normal(d)
            moved = Task(
                support_z=task.support_z @ a.T + b,
                support_y=task.support_y,
                query_z=task.query_z @ a.T + b,
                truth=task.truth,
                way=task.way,
            )
            rule = AssignmentRule("mahalanobis-softmax")
            p1, _ = estimate_unweighted(task, beta=0.0)
            p2, _ = estimate_unweighted(moved, beta=0.0)
            probs1 = classify_many(rule, p1, task.query_z)
            probs2 = classify_many(rule, p2, moved.query_z)
            worst = max(worst, float(np.abs(probs1 - probs2).max()))
        criterion(
            6,
            "classification is invariant to invertible affine maps at beta=0 (1e-6)",
            worst < 1e-6,
            f"max dev {worst:.2e} over 100 tasks",
        )

    def test_c07_low_shot_transductive_gain(self, bench_ds):
        t0 = time.monotonic()
        base = evaluate(bench_ds, BENCH_SAMPLER, BASELINE_CFG, 1000)
        trans = evaluate(bench_ds, BENCH_SAMPLER, TRANSDUCTIVE_CFG, 1000)
        elapsed = time.monotonic() - t0
        gain = trans.mean_accuracy - base.mean_accuracy
        in_band = 0.60 <= base.mean_accuracy <= 0.80
        criterion(
            7,
            "5-way 1-shot transductive gain >= 2 points on paired episodes",
            gain >= 0.02 and in_band and elapsed < 300.0,
            f"baseline {100 * base.mean_accuracy:.2f}%, "
            f"transductive {100 * trans.mean_accuracy:.2f}%, "
            f"gain {100 * gain:+.2f}, {elapsed:.0f}s",
        )

    def test_c08_query_count_scaling(self, bench_ds):
        import dataclasses

        q10 = evaluate(bench_ds, BENCH_SAMPLER, TRANSDUCTIVE_CFG, 1000)
        s50 = dataclasses.replace(BENCH_SAMPLER, query_per_class=50)
        q50 = evaluate(bench_ds, s50, TRANSDUCTIVE_CFG, 1000)
        gain = q50.mean_accuracy - q10.mean_accuracy
        criterion(
            8,
            "accuracy at 50 queries/class exceeds 10 queries/class by >= 1 point",
            gain >= 0.01,
            f"q=10 {100 * q10.mean_accuracy:.2f}%, q=50 {100 * q50.mean_accuracy:.2f}%, "
            f"gain {100 * gain:+.2f}",
        )

    def test_c09_step_constraint_grid(self, bench_ds, tmp_path):
        episodes = 30
        spec = AblationSpec(
            min_steps=(0, 1, 2, 3, 4),
            max_steps=tuple(range(1, 11)),
            rules=("mahalanobis-softmax",),
            query_per_class=(10,),
            episodes=episodes,
            repeats=1,
            seed=888,
        )
        grid = run_ablation(bench_ds, BENCH_SAMPLER, spec)
        path = tmp_path / "steps.csv"
        emit_report(grid, "csv", path)
        lines = path.read_text(encoding="utf-8").strip().splitlines()
        full_product = len(lines) - 1 == 5 * 10 and len(grid.cells) == 50

        exact_steps = True
        for cell in grid.cells:
            if cell.min_steps == cell.max_steps:
                exact_steps &= cell.report.iteration_histogram == {cell.min_steps: episodes}
        rates_reported = all(
            0.0 <= c.report.converged_early_rate <= 1.0 for c in grid.cells
        )
        criterion(
            9,
            "min/max step grid completes, emits full CSV, honors exact step counts",
            full_product and exact_steps and rates_reported,
            f"{len(grid.cells)} cells x {episodes} episodes",
        )

    def test_c10_sampler_distribution(self):
        ds = generate_synthetic(
            SyntheticSpec(n_classes=60, dim=4, per_class=130, seed=424)
        )
        cfg = VariableSamplerConfig(seed=31337)
        ways = np.empty(10000, dtype=int)
        ok_cap = ok_query = ok_disjoint = True
        for i in range(10000):
            task = sample_variable(ds, cfg, i)
            ways[i] = task.way
            ok_cap &= task.n_support <= 500
            ok_query &= int(np.bincount(task.truth).max()) <= 10
            both = np.vstack([task.support_z, task.query_z])
            ok_disjoint &= np.unique(both, axis=0).shape[0] == both.shape[0]
        counts = np.bincount(ways, minlength=51)[5:51]
        chi = stats.chisquare(counts)
        criterion(
            10,
            "way histogram uniform (chi^2 at 1%), cap/query/disjointness hold",
            bool(chi.pvalue > 0.01 and ok_cap and ok_query and ok_disjoint),
            f"chi2 p={chi.pvalue:.3f}, 10000 episodes",
        )

    def test_c11_determinism(self, tmp_path):
        ds_path = tmp_path / "bench.emb"
        rc = cli_main(
            ["gen-synthetic", "--classes", "20", "--dim", "16", "--mean-scale", "0.9",
             "--per-class", "64", "--seed", "2024", "--out", str(ds_path)]
        )
        assert rc == 0

        eval_flags = [
            "eval", "--dataset", str(ds_path), "--sampler", "fixed",
            "--way", "5", "--shot", "1", "--query-per-class", "10",
            "--episodes", "50", "--seed", "555", "--min-steps", "2", "--max-steps", "4",
        ]
        outs = [tmp_path / f"r{i}.json" for i in range(4)]
        assert cli_main(eval_flags + ["--out", str(outs[0])]) == 0
        assert cli_main(eval_flags + ["--out", str(outs[1])]) == 0
        assert cli_main(eval_flags + ["--parallelism", "2", "--out", str(outs[2])]) == 0
        assert cli_main(eval_flags + ["--parallelism", "4", "--out", str(outs[3])]) == 0
        blobs = [o.read_bytes() for o in outs]
        eval_ok = all(b == blobs[0] for b in blobs)

        ablate_flags = [
            "ablate", "--dataset", str(ds_path), "--sampler", "fixed",
            "--way", "5", "--shot", "1",
            "--min-steps", "0,2", "--max-steps", "1,4",
            "--query-per-class", "10", "--episodes", "10", "--repeats", "1",
            "--seed", "555",
        ]
        g1, g2 = tmp_path / "g1.json", tmp_path / "g2.json"
        assert cli_main(ablate_flags + ["--out", str(g1)]) == 0
        assert cli_main(ablate_flags + ["--parallelism", "2", "--out", str(g2)]) == 0
        ablate_ok = g1.read_bytes() == g2.read_bytes()

        parsed = json.loads(blobs[0])
        criterion(
            11,
            "eval and ablate reports byte-identical across reruns and pool widths",
            eval_ok and ablate_ok and parsed["episodes"] == 50,
            "4 eval runs, 2 ablate runs",
        )

"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one "criterion N: PASS/FAIL" line (visible with ``pytest -s``
or in the captured-output section). Criterion 7 needs the combined
job-training benchmark CSV, which is external; point DCQE_NSW_PSID_CSV at it
or place it at data/nsw_psid.csv. Without the file that test skips with an
explicit marker and never fails.
"""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import dcqe
import oracles
from dcqe.causal import PropensityScores, estimate_ipw, match_pairs
from dcqe.experiments import (
    ArtificialDataConfig,
    generate_artificial,
    run_experiment_one,
    run_experiment_two,
)
from dcqe.metrics import gap, inconsistency, smd
from dcqe.numerics import logistic_fit, pseudoinverse, svd_truncated

ORDERING_SEEDS = (0, 1, 2, 3, 4)
DESK_REPLICATES = 200


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, detail


@pytest.fixture(scope="session")
def ordering_suite():
    """Synthetic benchmark tables for the fixed seed suite, plus seed-0 timing."""
    tables = {}
    started = time.perf_counter()
    tables[0] = run_experiment_one(0, bootstrap_replicates=DESK_REPLICATES)
    seed_zero_seconds = time.perf_counter() - started
    for seed in ORDERING_SEEDS[1:]:
        tables[seed] = run_experiment_one(seed, bootstrap_replicates=DESK_REPLICATES)
    return tables, seed_zero_seconds


def by_label(results):
    return {(r.estimator, r.collaboration): r for r in results}


def test_criterion_1_synthetic_reproduction(ordering_suite):
    tables, seconds = ordering_suite
    rows = by_label(tables[0])
    psm_whole = rows[("DC-QE(PSM)", "W-clb")].estimate_mean
    ipw_whole = rows[("DC-QE(IPW)", "W-clb")].estimate_mean
    psm_single = rows[("PSM", "IA")].estimate_mean
    checks = [
        abs(psm_whole - 1.0628) <= 0.15,
        abs(ipw_whole - 0.9805) <= 0.20,
        abs(psm_single - 1.5992) <= 0.30,
        seconds < 144.0,
    ]
    report(
        1,
        all(checks),
        f"whole PSM {psm_whole:.4f} (target 1.0628+-0.15), "
        f"whole IPW {ipw_whole:.4f} (target 0.9805+-0.20), "
        f"single-party PSM {psm_single:.4f} (target 1.5992+-0.30), "
        f"runtime {seconds:.0f}s < ~2min",
    )


def test_criterion_2_ordering_properties(ordering_suite):
    tables, _ = ordering_suite
    failures = []
    for seed in ORDERING_SEEDS:
        rows = by_label(tables[seed])
        gaps = {c: rows[(e, c)].gap for e, c in (
            ("DC-QE(PSM)", "W-clb"), ("DC-QE(PSM)", "T-clb"), ("PSM", "IA"))}
        if not gaps["W-clb"] < gaps["T-clb"] < gaps["IA"]:
            failures.append(f"seed {seed}: gap ordering {gaps}")
        true_w = rows[("DC-QE(PSM)", "W-clb")].inconsistency_true.mean
        true_i = rows[("PSM", "IA")].inconsistency_true.mean
        if not true_w < true_i:
            failures.append(f"seed {seed}: inconsistency-with-true {true_w} !< {true_i}")
        for estimator, whole in (("PSM", "DC-QE(PSM)"), ("IPW", "DC-QE(IPW)")):
            masmd_w = rows[(whole, "W-clb")].masmd.mean
            masmd_i = rows[(estimator, "IA")].masmd.mean
            if not masmd_w < masmd_i:
                failures.append(f"seed {seed}: {estimator} MASMD {masmd_w} !< {masmd_i}")
    report(2, not failures, f"orderings hold for seeds {ORDERING_SEEDS}"
           if not failures else "; ".join(failures))


def test_criterion_3_true_propensity_oracle():
    data, true_scores = generate_artificial(ArtificialDataConfig(subjects=20_000, seed=11))
    scores = PropensityScores(np.clip(true_scores, 1e-6, 1 - 1e-6), source="true")
    point = estimate_ipw(scores, data.treatments, data.outcomes, "ATE").value
    rng = np.random.default_rng(4040)
    replicates = []
    for _ in range(200):
        idx = rng.integers(0, data.subject_count, data.subject_count)
        replicates.append(
            estimate_ipw(scores.values[idx], data.treatments[idx],
                         data.outcomes[idx], "ATE").value
        )
    stderr = float(np.std(replicates, ddof=1))
    passed = abs(point - 1.0) < 4.0 * stderr
    report(3, passed, f"true-score IPW {point:.4f} vs 1.0, 4*SE = {4 * stderr:.4f}")


def test_criterion_4_matching_oracle_equivalence():
    rng = np.random.default_rng(2024)
    mismatches = 0
    for trial in range(500):
        n = int(rng.integers(4, 201))
        z = np.zeros(n, dtype=int)
        z[: int(rng.integers(1, n))] = 1
        rng.shuffle(z)
        if z.sum() == 0:
            z[0] = 1
        if z.sum() == n:
            z[0] = 0
        scores = rng.random(n)
        if trial % 3 == 0:  # coarse grid forces tied scores
            scores = np.round(scores * 20) / 20
        expected = oracles.brute_force_pairs(scores, z)
        if not np.array_equal(match_pairs(scores, z).pairs, expected):
            mismatches += 1
    report(4, mismatches == 0, f"500 random instances (n <= 200, ties included), "
           f"{mismatches} disagreements with brute force")


def test_criterion_5_numerics_suite():
    rng = np.random.default_rng(99)
    worst_penrose = 0.0
    for _ in range(200):
        a = rng.normal(size=(int(rng.integers(1, 21)), int(rng.integers(1, 21))))
        plus = pseudoinverse(a)
        worst_penrose = max(
            worst_penrose,
            float(np.max(np.abs(a @ plus @ a - a))),
            float(np.max(np.abs(plus @ a @ plus - plus))),
            float(np.max(np.abs((a @ plus).T - a @ plus))),
            float(np.max(np.abs((plus @ a).T - plus @ a))),
        )

    worst_tail = 0.0
    for seed, shape, rank in ((8, (8, 5), 3), (12, (10, 7), 4), (30, (9, 9), 2)):
        a = np.random.default_rng(seed).normal(size=shape)
        truncated = svd_truncated(a, rank)
        error = float(np.linalg.norm(a - truncated.reconstruct()))
        singular = oracles.jacobi_singular_values(a)
        expected = math.sqrt(float(np.sum(singular[rank:] ** 2)))
        worst_tail = max(worst_tail, abs(error - expected))

    x = np.random.default_rng(21).normal(size=(200, 3))
    logits = 0.4 + x @ np.array([1.0, -0.7, 0.3])
    y = (np.random.default_rng(22).random(200) < 1 / (1 + np.exp(-logits))).astype(int)
    model = logistic_fit(x, y)
    fitted = np.concatenate([[model.intercept], model.coefficients])
    logistic_gap = float(np.max(np.abs(fitted - oracles.gradient_ascent_logistic(x, y))))

    passed = worst_penrose < 1e-8 and worst_tail < 1e-6 and logistic_gap < 1e-4
    report(5, passed, f"penrose {worst_penrose:.2e} < 1e-8, "
           f"svd tail {worst_tail:.2e} < 1e-6, logistic {logistic_gap:.2e} < 1e-4")


def test_criterion_6_metric_unit_checks():
    checks = [
        gap(np.array([1.5, 1.5, 1.5]), 1.5) == 0.0,
        gap(np.array([2.0]), 1.0) == 1.0,
        gap(np.array([0.0, 2.0]), 1.0) == 1.0,
        inconsistency([0.25, 0.5], [0.25, 0.5]) == 0.0,
        inconsistency([0.25, 0.75], [0.5, 0.5]) == 0.25,
        abs(inconsistency([0.2, 0.8], [0.4, 0.6]) - 0.2) < 1e-15,
    ]
    block = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 0.0]])
    balanced = smd(np.vstack([block, block]), np.array([1, 1, 1, 0, 0, 0]))
    checks.append(balanced.masmd == 0.0)

    rng = np.random.default_rng(61)
    x = rng.normal(size=(40, 3))
    z = np.array([1] * 15 + [0] * 25)
    plain = smd(x, z).smd_per_covariate
    weighted = smd(x, z, weights=np.ones(40)).smd_per_covariate
    checks.append(bool(np.all(np.abs(plain - weighted) < 1e-10)))
    report(6, all(checks), "gap/inconsistency/smd unit examples and unit-weight reduction")


def benchmark_csv_path():
    env = os.environ.get("DCQE_NSW_PSID_CSV")
    if env:
        return Path(env)
    return Path(__file__).resolve().parents[1] / "data" / "nsw_psid.csv"


def test_criterion_7_benchmark_reproduction():
    path = benchmark_csv_path()
    if not path.is_file():
        print("criterion 7: SKIP - benchmark CSV not supplied "
              "(set DCQE_NSW_PSID_CSV or add data/nsw_psid.csv)")
        pytest.skip("job-training benchmark CSV not supplied; criterion 7 skipped")
    results = run_experiment_two(path, seed=0, bootstrap_replicates=DESK_REPLICATES)
    rows = by_label(results)
    ca_ipw = rows[("IPW", "CA")].estimate_mean
    checks = [
        abs(ca_ipw - 1.732) <= 0.35,
        rows[("PSM", "L-IA")].estimate_mean < 0.0,
        rows[("IPW", "L-IA")].estimate_mean < 0.0,
        rows[("DC-QE(PSM)", "W-clb")].inconsistency_ca.mean
        < rows[("PSM", "L-IA")].inconsistency_ca.mean,
        rows[("DC-QE(PSM)", "T-clb")].masmd.mean < rows[("DC-QE(PSM)", "L-clb")].masmd.mean,
    ]
    report(7, all(checks), f"CA IPW ATT {ca_ipw:.4f} (target 1.732+-0.35), "
           "left-side individual estimates negative, inconsistency and balance orderings")


def test_criterion_8_cli_determinism(tmp_path):
    config = tmp_path / "det.conf"
    config.write_text(
        "data.subjects = 80\nbootstrap.replicates = 6\nestimation.benchmark = 1.0\nseed = 5\n",
        encoding="utf-8",
    )
    # The pytest ``pythonpath`` setting does not reach child processes.
    src = Path(dcqe.__file__).resolve().parent.parent
    digests = []
    for name in ("first", "second"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "dcqe.cli", "simulate",
             "--config", str(config), "--out", str(out)],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)),
        )
        assert proc.returncode == 0, proc.stderr
        digests.append((out / "results.csv").read_bytes())
    passed = digests[0] == digests[1]
    report(8, passed, "two `dcqe simulate` runs produced byte-identical results.csv")

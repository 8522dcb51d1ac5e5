"""Benchmark data generation, scenario orchestration, and bootstrap evaluation.

A scenario fixes a partition, a collaboration scope, an analysis mode
(collaborative pipeline, centralized baseline, or single-party baseline), an
estimator and an estimand. Evaluation re-runs the full pipeline on bootstrap
resamples of the scope's subjects: anchors are regenerated, reductions and
alignments refitted, and propensities re-estimated per replicate. Propensity
inconsistency is measured against the known treatment probabilities (when
available) and against a centralized fit on the same subjects with every
covariate; covariate balance is always measured on the ground-truth
covariates, which only the evaluation harness can see.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

import numpy as np

from .causal import ESTIMANDS, _ipw_estimate, estimate_propensity, estimate_psm, \
    ipw_weights, match_pairs, matched_sample
from .collaboration import assemble_collaborative, fit_integration, generate_anchor, \
    make_intermediate
from .datamodel import CollaborationScope, Dataset, PartitionSpec, partition, \
    scope_col_indices, scope_row_indices, scoped_partition
from .errors import ConfigError, DcqeError
from .metrics import BalanceReport, BootstrapDistribution, gap, inconsistency, smd
from .numerics import ensure_vector, sigmoid
from .tabular import TabularSchema, ingest_csv

# The package functions and classes this module calls by name, as bound at
# import; ``_worker_count`` compares them with the bindings of the moment.
_PIPELINE = {name: value for name, value in globals().items()
             if callable(value) and getattr(value, "__module__", "").startswith(f"{__package__}.")}

ANALYSIS_MODES = ("dcqe", "centralized", "individual")
ESTIMATORS = ("PSM", "IPW")

_MAX_REDRAWS = 100

# Fixed tags separating the seed streams of the built-in experiments.
_SEED_TAG_SYNTHETIC_ROWS = 101
_SEED_TAG_SHUFFLE = 202
_SEED_TAG_BENCHMARK_ROWS = 303


def derive_seed(*parts: int) -> int:
    """Deterministic child seed from a tuple of non-negative integers."""
    seq = np.random.SeedSequence(tuple(int(p) for p in parts))
    return int(seq.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class ArtificialDataConfig:
    """Settings for the synthetic benchmark generator."""

    subjects: int = 1000
    covariate_count: int = 6
    correlation: float = 0.5
    noise_sd: float = 0.1
    seed: int = 0


def generate_artificial(config: ArtificialDataConfig) -> tuple[Dataset, np.ndarray]:
    """Correlated Gaussian covariates, logistic treatment, additive outcome.

    Covariates are drawn from N(0, S) with unit variances and constant
    pairwise correlation. The treatment probability is the logistic function
    of the covariate mean, the outcome is the covariate sum plus the
    treatment indicator plus Gaussian noise, so the data-generating ATE is
    exactly 1. Returns the dataset and the true treatment probabilities.
    """
    n, m = config.subjects, config.covariate_count
    if n < 2:
        raise ConfigError("artificial data needs at least two subjects")
    if m < 1:
        raise ConfigError("artificial data needs at least one covariate")
    if m > 1 and not -1.0 / (m - 1) < config.correlation < 1.0:
        raise ConfigError(
            f"correlation must lie in (-1/{m - 1}, 1) for a positive-definite covariance"
        )
    if not config.noise_sd > 0:
        raise ConfigError("noise_sd must be positive")

    cov = np.full((m, m), config.correlation)
    np.fill_diagonal(cov, 1.0)
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise ConfigError("covariance matrix is not positive definite") from exc

    rng = np.random.default_rng(config.seed)
    x = rng.standard_normal((n, m)) @ chol.T
    true_scores = sigmoid(x.sum(axis=1) / m)
    z = (rng.random(n) < true_scores).astype(np.int64)
    y = x.sum(axis=1) + z + rng.normal(0.0, config.noise_sd, n)
    return Dataset(x, z, y), true_scores


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to evaluate one estimator on one collaboration."""

    partition: PartitionSpec
    scope: CollaborationScope
    analysis: str = "dcqe"
    estimator: str = "IPW"
    estimand: str = "ATE"
    intermediate_dim: int | None = None
    collaborative_dim: int | None = None
    anchor_size: int | None = None
    bootstrap_replicates: int = 1000
    resample: bool = True
    master_seed: int = 0
    benchmark: float | None = None
    collaboration_label: str | None = None


@dataclass(frozen=True)
class MetricSummary:
    """No-resample value of a metric plus its bootstrap mean and spread."""

    point: float
    mean: float
    se: float


@dataclass(frozen=True, eq=False)
class ScenarioResult:
    """Point estimate, bootstrap distribution and evaluation metrics of one scenario."""

    estimator: str
    collaboration: str
    estimand: str
    analysis: str
    subject_count: int
    point_estimate: float
    bootstrap: BootstrapDistribution
    estimate_mean: float
    estimate_se: float
    """Sample SD of the bootstrap estimates. For PSM (matching with replacement)
    the bootstrap SE is known to be unreliable (Abadie & Imbens 2008)."""
    gap: float | None
    inconsistency_true: MetricSummary | None
    inconsistency_ca: MetricSummary
    masmd: MetricSummary
    balance: BalanceReport
    collaborative_dim: int | None
    master_seed: int
    config: ScenarioConfig


@dataclass(frozen=True, eq=False)
class _Replicate:
    estimate: float
    inconsistency_true: float | None
    inconsistency_ca: float
    balance: BalanceReport
    collaborative_dim: int | None


def _sample_se(values: np.ndarray) -> float:
    return float(values.std(ddof=1)) if values.shape[0] > 1 else 0.0


def _summary(point: float, values: np.ndarray) -> MetricSummary:
    return MetricSummary(point=point, mean=float(values.mean()), se=_sample_se(values))


_SCOPE_LABELS = {"left": "L-clb", "right": "R-clb", "top": "T-clb",
                 "bottom": "B-clb", "whole": "W-clb", "custom": "clb"}


def _default_label(config: ScenarioConfig) -> str:
    if config.analysis == "centralized":
        return "CA"
    if config.analysis == "individual":
        return "IA"
    return _SCOPE_LABELS[config.scope.kind]


def _validate_scenario(config: ScenarioConfig, spec: PartitionSpec, subject_count: int) -> None:
    if config.analysis not in ANALYSIS_MODES:
        raise ConfigError(f"unknown analysis mode {config.analysis!r}")
    if config.estimator not in ESTIMATORS:
        raise ConfigError(f"unknown estimator {config.estimator!r}")
    if config.estimand not in ESTIMANDS:
        raise ConfigError(f"unknown estimand {config.estimand!r}")
    if config.bootstrap_replicates < 1:
        raise ConfigError("bootstrap replicate count must be at least 1")
    if config.master_seed < 0:
        raise ConfigError("master seed must be non-negative")
    if config.analysis != "dcqe":
        return
    if config.intermediate_dim is None or config.collaborative_dim is None:
        raise ConfigError("collaborative analysis needs intermediate and collaborative dimensions")
    smallest = min(spec.col_blocks[l] for l in config.scope.col_indices)
    if not 1 <= config.intermediate_dim < smallest:
        raise ConfigError(
            "reduction must be strict: intermediate dimension must be in "
            f"[1, {smallest - 1}] for this scope, got {config.intermediate_dim}"
        )
    anchor_size = config.anchor_size if config.anchor_size is not None else subject_count
    if anchor_size < 1:
        raise ConfigError("anchor size must be positive")
    if not 1 <= config.collaborative_dim <= anchor_size:
        raise ConfigError(
            f"collaborative dimension must be in [1, {anchor_size}], got {config.collaborative_dim}"
        )


# The run function a forked bootstrap worker inherited from its parent.
_worker_run = None


def _adopt_run(run) -> None:
    global _worker_run
    _worker_run = run


def _run_range(start: int, stop: int) -> list:
    return [_worker_run(i) for i in range(start, stop)]


def _available_cpus() -> int:
    """CPUs this process may run on: its affinity mask, or every CPU where there is none."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _worker_count(count: int) -> int:
    """Worker processes ``_run_all`` forks for ``count`` runs; below two it forks none.

    One per CPU in the affinity mask, at most ``count``. The runs stay in
    this process where processes cannot be forked, while other threads run
    (a lock one of them holds would stay held in the forked copy), and while
    a caller has rebound a package function that a run calls by name (a
    tracer, a profiler or a mock: what it records would stay in a worker).
    """
    workers = min(_available_cpus(), count)
    if workers < 2 or threading.active_count() > 1 \
            or any(globals().get(name) is not fn for name, fn in _PIPELINE.items()):
        return 1
    import multiprocessing
    return workers if "fork" in multiprocessing.get_all_start_methods() else 1


def _run_all(run, count: int) -> list:
    """``[run(i) for i in range(count)]``, split over ``_worker_count(count)`` forked processes.

    Each worker runs one contiguous range of indices. Workers are forked
    after set-up, so they inherit ``run`` and its data, and only the results
    are sent back, in index order. A worker that dies raises ``DcqeError``.
    """
    workers = _worker_count(count)
    if workers < 2:
        return [run(i) for i in range(count)]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool
    bounds = [count * k // workers for k in range(workers + 1)]
    try:
        with ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                                 _adopt_run, (run,)) as pool:
            ranges = [pool.submit(_run_range, start, stop)
                      for start, stop in zip(bounds, bounds[1:])]
            return [result for done in ranges for result in done.result()]
    except BrokenProcessPool as exc:
        raise DcqeError(f"a bootstrap worker process died: {exc}") from exc


def run_scenario(data: Dataset, config: ScenarioConfig,
                 true_scores: np.ndarray | None = None) -> ScenarioResult:
    """Evaluate one scenario with the full-pipeline bootstrap.

    Replicate ``b`` draws its own random stream from ``(master_seed, 1 + b)``;
    the no-resample point run uses ``(master_seed, 0)``. Resamples that lose a
    treatment group are redrawn. With ``resample`` disabled every replicate
    equals the point run, so the bootstrap mean equals the point estimate.

    The point run and the replicates run in forked worker processes, one per
    CPU in the process's affinity mask (``os.sched_getaffinity``), each on a
    contiguous range of runs. For a fixed BLAS thread count, results do not
    depend on the worker count. The runs are made in order in this process
    when it is pinned to one CPU (``taskset -c 0``), runs other threads, or
    has a package function that a run calls rebound (a tracer or a mock).
    Each worker runs its own BLAS, so set ``OPENBLAS_NUM_THREADS=1`` (or the
    variable of your BLAS) to keep workers from oversubscribing the CPUs;
    pinning also lowers OpenBLAS's default thread count, which follows the
    visible CPUs. A worker that dies raises ``DcqeError``.
    """
    spec = config.partition
    spec.validate_for(data)
    config.scope.validate_for(spec)
    _validate_scenario(config, spec, data.subject_count)

    rows = scope_row_indices(spec, config.scope)
    cols = scope_col_indices(spec, config.scope)
    sub_spec = scoped_partition(spec, config.scope)
    scoped_cov = data.covariates[np.ix_(rows, cols)]
    full_cov = data.covariates[rows]
    z_all = data.treatments[rows]
    y_all = data.outcomes[rows]
    n_scope = rows.shape[0]
    full_width = cols.shape[0] == data.covariate_count

    true_sub = None
    if true_scores is not None:
        true_sub = ensure_vector(true_scores, "true_scores", length=data.subject_count)[rows]

    is_dcqe = config.analysis == "dcqe"
    if is_dcqe:
        scope_columns = data.covariates[:, cols]
        anchor_bounds = np.column_stack([scope_columns.min(axis=0), scope_columns.max(axis=0)])
        anchor_size = config.anchor_size if config.anchor_size is not None else data.subject_count

    def run_once(seed_index: int) -> _Replicate:
        rng = np.random.default_rng(np.random.SeedSequence((config.master_seed, seed_index)))
        anchor_seed = int(rng.integers(0, 2**63))
        if seed_index > 0:  # a bootstrap replicate; run 0 is the point run
            # Redraw when a group vanishes; a single-subject group is also
            # rejected because group variances (balance) are undefined there.
            for _ in range(_MAX_REDRAWS):
                idx = rng.integers(0, n_scope, size=n_scope)
                drawn = int(z_all[idx].sum())
                if 2 <= drawn <= n_scope - 2:
                    break
            else:
                raise DcqeError("bootstrap resampling kept losing a treatment group")
        else:
            idx = np.arange(n_scope)
        z = z_all[idx]
        y = y_all[idx]
        ground_truth = full_cov[idx]

        if is_dcqe:
            views = partition(Dataset(scoped_cov[idx], z, y), sub_spec)
            anchor = generate_anchor(anchor_bounds, anchor_size, anchor_seed, sub_spec.col_blocks)
            reps = [
                make_intermediate(v, anchor.block(v.col_index), config.intermediate_dim)
                for v in views
            ]
            integrations = fit_integration(reps, config.collaborative_dim)
            collab = assemble_collaborative(
                reps,
                integrations,
                {v.row_index: v.treatments for v in views},
                {v.row_index: v.outcomes for v in views},
            )
            scores = estimate_propensity(collab.values, z, source="dcqe")
            effective_dim = collab.collaborative_dim
        else:
            scores = estimate_propensity(scoped_cov[idx], z, source=config.analysis)
            effective_dim = None

        if config.estimator == "PSM":
            matching = match_pairs(scores, z)
            estimate = estimate_psm(matching, y, config.estimand).value
            t_rows, c_rows = matched_sample(matching, config.estimand)
            balance = smd(
                np.vstack([ground_truth[t_rows], ground_truth[c_rows]]),
                np.concatenate([
                    np.ones(t_rows.shape[0], dtype=np.int64),
                    np.zeros(c_rows.shape[0], dtype=np.int64),
                ]),
            )
        else:
            weights = ipw_weights(scores, z, config.estimand)
            estimate = _ipw_estimate(weights, z, y, config.estimand).value
            balance = smd(ground_truth, z, weights=weights)

        # Centralized reference: the same subjects with every covariate. When
        # the scenario itself already is that analysis, its scores are reused,
        # which makes the self-inconsistency structurally zero.
        if not is_dcqe and full_width:
            reference = scores
        else:
            reference = estimate_propensity(ground_truth, z, source="centralized")
        inc_ca = inconsistency(scores.values, reference.values)
        inc_true = None
        if true_sub is not None:
            inc_true = inconsistency(scores.values, true_sub[idx])
        return _Replicate(estimate, inc_true, inc_ca, balance, effective_dim)

    runs = _run_all(run_once, 1 + config.bootstrap_replicates if config.resample else 1)
    point = runs[0]
    replicates = runs[1:] if config.resample else [point] * config.bootstrap_replicates

    estimates = np.array([r.estimate for r in replicates])
    estimator_label = f"DC-QE({config.estimator})" if is_dcqe else config.estimator
    dist = BootstrapDistribution(estimates, estimand=config.estimand, method=estimator_label)

    inc_true_summary = None
    if point.inconsistency_true is not None:
        inc_true_summary = _summary(
            point.inconsistency_true, np.array([r.inconsistency_true for r in replicates])
        )

    return ScenarioResult(
        estimator=estimator_label,
        collaboration=config.collaboration_label or _default_label(config),
        estimand=config.estimand,
        analysis=config.analysis,
        subject_count=n_scope,
        point_estimate=point.estimate,
        bootstrap=dist,
        estimate_mean=float(estimates.mean()),
        estimate_se=_sample_se(estimates),
        gap=gap(dist, config.benchmark) if config.benchmark is not None else None,
        inconsistency_true=inc_true_summary,
        inconsistency_ca=_summary(
            point.inconsistency_ca, np.array([r.inconsistency_ca for r in replicates])
        ),
        masmd=_summary(point.balance.masmd, np.array([r.balance.masmd for r in replicates])),
        balance=point.balance,
        collaborative_dim=point.collaborative_dim,
        master_seed=config.master_seed,
        config=config,
    )


def run_experiment_one(seed: int, bootstrap_replicates: int = 1000,
                       subject_count: int = 1000) -> list[ScenarioResult]:
    """Synthetic benchmark: both estimators across collaboration scopes.

    A 2 x 2 grid of equally sized parties over six correlated covariates,
    intermediate dimension 2, collaborative dimension 3 for the left-side
    collaboration and 6 for the top-side and whole collaborations, ATE
    against the data-generating benchmark of 1.
    """
    data, true_scores = generate_artificial(
        ArtificialDataConfig(subjects=subject_count, seed=seed)
    )
    half = subject_count // 2
    spec = PartitionSpec((half, subject_count - half), (3, 3))
    layout = [
        ("IA", "individual", CollaborationScope.single_party(0, 0), None),
        ("L-clb", "dcqe", CollaborationScope.build("left", spec), 3),
        ("T-clb", "dcqe", CollaborationScope.build("top", spec), 6),
        ("W-clb", "dcqe", CollaborationScope.build("whole", spec), 6),
        ("CA", "centralized", CollaborationScope.build("whole", spec), None),
    ]
    results = []
    index = 0
    for estimator in ESTIMATORS:
        for label, analysis, scope, collab_dim in layout:
            config = ScenarioConfig(
                partition=spec,
                scope=scope,
                analysis=analysis,
                estimator=estimator,
                estimand="ATE",
                intermediate_dim=2 if analysis == "dcqe" else None,
                collaborative_dim=collab_dim,
                anchor_size=subject_count,
                bootstrap_replicates=bootstrap_replicates,
                master_seed=derive_seed(seed, _SEED_TAG_SYNTHETIC_ROWS, index),
                benchmark=1.0,
                collaboration_label=label,
            )
            results.append(run_scenario(data, config, true_scores))
            index += 1
    return results


# Column layout of the job-training benchmark file. The partition puts the
# demographic and education variables with the left-side parties and the
# race and prior-earnings variables with the right-side parties.
NSW_PSID_SCHEMA = TabularSchema(
    covariates=("age", "education", "married", "nodegree", "black", "hispanic", "re74", "re75"),
    treatment="treatment",
    outcome="re78",
)
_LEFT_COLUMNS = ("age", "married", "education", "nodegree")
_RIGHT_COLUMNS = ("hispanic", "black", "re74", "re75")

# Benchmark effect (thousand dollars): difference of mean 1978 earnings
# between groups of the randomized job-training study.
NSW_BENCHMARK = 1.794

_BENCHMARK_BLOCK = 1337


def load_experiment_two_data(data_path, seed: int) -> tuple[Dataset, PartitionSpec]:
    """Ingest the combined job-training CSV and split it into four parties.

    Subjects are shuffled under ``seed`` and trimmed to two equal row blocks
    (1337 each when the file is large enough); outcomes are converted to
    thousand-dollar units.
    """
    raw, _ = ingest_csv(data_path, NSW_PSID_SCHEMA)
    order = [NSW_PSID_SCHEMA.covariates.index(name) for name in _LEFT_COLUMNS + _RIGHT_COLUMNS]
    block = min(_BENCHMARK_BLOCK, raw.subject_count // 2)
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), _SEED_TAG_SHUFFLE)))
    keep = rng.permutation(raw.subject_count)[: 2 * block]
    data = Dataset(
        covariates=raw.covariates[np.ix_(keep, order)],
        treatments=raw.treatments[keep],
        outcomes=raw.outcomes[keep] / 1000.0,
    )
    return data, PartitionSpec((block, block), (4, 4))


def run_experiment_two(data_path, seed: int,
                       bootstrap_replicates: int = 1000) -> list[ScenarioResult]:
    """Job-training benchmark: ATT across individual analyses and collaborations.

    Intermediate dimension 3 throughout, collaborative dimension 4 for the
    one-sided collaborations and 8 for the top-side and whole collaborations,
    benchmark 1.794 thousand dollars.
    """
    data, spec = load_experiment_two_data(data_path, seed)
    layout = [
        ("L-IA", "individual", CollaborationScope.single_party(0, 0), None),
        ("R-IA", "individual", CollaborationScope.single_party(0, 1), None),
        ("L-clb", "dcqe", CollaborationScope.build("left", spec), 4),
        ("R-clb", "dcqe", CollaborationScope.build("right", spec), 4),
        ("T-clb", "dcqe", CollaborationScope.build("top", spec), 8),
        ("W-clb", "dcqe", CollaborationScope.build("whole", spec), 8),
        ("CA", "centralized", CollaborationScope.build("whole", spec), None),
    ]
    results = []
    index = 0
    for estimator in ESTIMATORS:
        for label, analysis, scope, collab_dim in layout:
            config = ScenarioConfig(
                partition=spec,
                scope=scope,
                analysis=analysis,
                estimator=estimator,
                estimand="ATT",
                intermediate_dim=3 if analysis == "dcqe" else None,
                collaborative_dim=collab_dim,
                anchor_size=data.subject_count,
                bootstrap_replicates=bootstrap_replicates,
                master_seed=derive_seed(seed, _SEED_TAG_BENCHMARK_ROWS, index),
                benchmark=NSW_BENCHMARK,
                collaboration_label=label,
            )
            results.append(run_scenario(data, config))
            index += 1
    return results

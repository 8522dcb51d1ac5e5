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

from dataclasses import dataclass

import numpy as np

from . import runner
from .causal import ESTIMANDS, _ipw_estimate, estimate_propensity, estimate_psm, \
    ipw_weights, match_pairs, matched_sample
from .collaboration import Intermediate, anchor_ranges, assemble_collaborative, \
    fit_integration, generate_anchor, make_intermediate
from .datamodel import CollaborationScope, Dataset, PartitionSpec, _party_blocks, \
    scoped_partition
from .errors import ConfigError, DcqeError, InvalidDataError
from .metrics import _smd, gap, inconsistency, smd
from .numerics import ensure_vector, sigmoid
from .tabular import ingest_csv

# The package functions and classes this module calls by name, as bound at
# import; ``_worker_count`` compares them with the bindings of the moment.
_PIPELINE = {name: value for name, value in globals().items()
             if callable(value) and getattr(value, "__module__", "").startswith(f"{__package__}.")}

ANALYSIS_MODES = ("dcqe", "centralized", "individual")
ESTIMATORS = ("PSM", "IPW")
# The metrics a scenario reports beside its effect estimate, in report order.
METRICS = ("inconsistency_true", "inconsistency_ca", "masmd")

_MAX_REDRAWS = 100

# Fixed tags separating the seed streams of the built-in experiments.
_SEED_TAG_SYNTHETIC_ROWS = 101
_SEED_TAG_SHUFFLE = 202
_SEED_TAG_BENCHMARK_ROWS = 303


def derive_seed(*parts: int) -> int:
    """Deterministic child seed from a tuple of non-negative integers."""
    seq = np.random.SeedSequence(tuple(int(p) for p in parts))
    return int(seq.generate_state(1, np.uint64)[0])


def check_replicates_and_seed(replicates: int, seed: int) -> None:
    """The rules of a bootstrap replicate count and a master seed; ``ConfigError`` if broken."""
    if replicates < 1:
        raise ConfigError(f"bootstrap replicate count must be at least 1, got {replicates}")
    if seed < 0:
        raise ConfigError(f"master seed must be non-negative, got {seed}")


@dataclass(frozen=True)
class ArtificialDataConfig:
    """Settings for the synthetic benchmark generator; invalid ones raise ``ConfigError``."""

    subjects: int = 1000
    covariate_count: int = 6
    correlation: float = 0.5
    noise_sd: float = 0.1
    seed: int = 0

    def __post_init__(self):
        n, m = self.subjects, self.covariate_count
        if n < 2:
            raise ConfigError(f"artificial data needs at least two subjects, got {n}")
        if m < 1:
            raise ConfigError(f"artificial data needs at least one covariate, got {m}")
        if m > 1 and not -1.0 / (m - 1) < self.correlation < 1.0:
            raise ConfigError(
                f"correlation must lie in (-1/{m - 1}, 1) for a positive-definite covariance, "
                f"got {self.correlation!r}"
            )
        if not 0 < self.noise_sd < np.inf:
            raise ConfigError(f"noise_sd must be positive and finite, got {self.noise_sd!r}")


def generate_artificial(config: ArtificialDataConfig) -> tuple[Dataset, np.ndarray]:
    """Correlated Gaussian covariates, logistic treatment, additive outcome.

    Covariates are drawn from N(0, S) with unit variances and constant
    pairwise correlation. The treatment probability is the logistic function
    of the covariate mean, the outcome is the covariate sum plus the
    treatment indicator plus Gaussian noise, so the data-generating ATE is
    exactly 1. Returns the dataset and the true treatment probabilities.
    """
    n, m = config.subjects, config.covariate_count
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
    """Everything needed to evaluate one estimator on one collaboration, checked on construction.

    A DC-QE config left without sizes gets them from its partition and scope:
    an anchor of one row per subject of the partition and a collaborative
    width of every covariate of the scope. Other analyses keep both unset.
    """

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

    def __post_init__(self):
        if self.analysis not in ANALYSIS_MODES:
            raise ConfigError(f"unknown analysis mode {self.analysis!r}")
        if self.estimator not in ESTIMATORS:
            raise ConfigError(f"unknown estimator {self.estimator!r}")
        if self.estimand not in ESTIMANDS:
            raise ConfigError(f"unknown estimand {self.estimand!r}")
        check_replicates_and_seed(self.bootstrap_replicates, self.master_seed)
        if self.benchmark is not None and not np.isfinite(self.benchmark):
            raise ConfigError(f"benchmark must be finite, got {self.benchmark!r}")
        sub_spec = scoped_partition(self.partition, self.scope)[0]
        if self.analysis != "dcqe":
            return
        if self.intermediate_dim is None:
            raise ConfigError("collaborative analysis needs an intermediate dimension")
        if self.anchor_size is None:
            object.__setattr__(self, "anchor_size", self.partition.subject_count)
        if self.collaborative_dim is None:
            object.__setattr__(self, "collaborative_dim", sub_spec.covariate_count)
        smallest = min(sub_spec.col_blocks)
        if not 1 <= self.intermediate_dim < smallest:
            raise ConfigError(
                "reduction must be strict: intermediate dimension must be in "
                f"[1, {smallest - 1}] for this scope, got {self.intermediate_dim}"
            )
        if self.anchor_size < 1:
            raise ConfigError(f"anchor size must be positive, got {self.anchor_size}")
        if not 1 <= self.collaborative_dim <= self.anchor_size:
            raise ConfigError(
                f"collaborative dimension must be in [1, {self.anchor_size}], "
                f"got {self.collaborative_dim}"
            )


@dataclass(frozen=True)
class MetricSummary:
    """No-resample value of a metric plus its bootstrap mean and spread."""

    point: float
    mean: float
    se: float


@dataclass(frozen=True, eq=False)
class ScenarioResult:
    """Point estimate, bootstrap estimates and evaluation metrics of one scenario, all finite."""

    estimator: str
    collaboration: str
    subject_count: int
    point_estimate: float
    bootstrap_estimates: np.ndarray
    """The replicate estimates, in replicate order."""
    estimate_mean: float
    estimate_se: float
    """Sample SD of the bootstrap estimates. For PSM (matching with replacement)
    the bootstrap SE is known to be unreliable (Abadie & Imbens 2008)."""
    gap: float | None
    inconsistency_true: MetricSummary | None
    inconsistency_ca: MetricSummary
    masmd: MetricSummary
    collaborative_dim: int | None
    config: ScenarioConfig

    def numbers(self) -> dict[str, float | None]:
        """Every reported number under its ``results.csv`` column name, in column order;
        None where the scenario has none (a gap without benchmark, or no true scores)."""
        summaries = {f"{name}_{stat}": getattr(getattr(self, name), stat, None)
                     for name in METRICS for stat in ("mean", "se", "point")}
        return {"estimate_mean": self.estimate_mean, "estimate_se": self.estimate_se,
                "point_estimate": self.point_estimate, "gap": self.gap, **summaries}


@dataclass(frozen=True, eq=False)
class _Replicate:
    estimate: float
    inconsistency_true: float | None
    inconsistency_ca: float
    masmd: float
    collaborative_dim: int | None


def _sample_se(values: np.ndarray) -> float:
    return float(values.std(ddof=1)) if values.shape[0] > 1 else 0.0


def _summary(name: str, point: _Replicate, replicates: list[_Replicate]) -> MetricSummary | None:
    """The summary of one metric of the runs; None where the point run has no value."""
    if getattr(point, name) is None:
        return None
    values = np.array([getattr(r, name) for r in replicates])
    return MetricSummary(point=getattr(point, name), mean=float(values.mean()),
                         se=_sample_se(values))


# The label of a scenario given none: by its analysis, or by its scope kind for DC-QE.
_LABELS = {"centralized": "CA", "individual": "IA", "left": "L-clb", "right": "R-clb",
           "top": "T-clb", "bottom": "B-clb", "whole": "W-clb", "custom": "clb"}


def _two_per_group(treated: int, count: int) -> bool:
    """Whether a sample can be run: balance needs two subjects in each treatment group."""
    return 2 <= treated <= count - 2


def _worker_count(count: int) -> int:
    """Bootstrap workers: ``runner._worker_count(count)``, but one while a caller has rebound
    a function a run calls by name (a tracer or a mock: its records would stay in a worker)."""
    rebound = any(globals().get(name) is not fn for name, fn in _PIPELINE.items())
    return 1 if rebound else runner._worker_count(count)


def run_scenario(data: Dataset, config: ScenarioConfig,
                 true_scores: np.ndarray | None = None) -> ScenarioResult:
    """Evaluate one scenario with the full-pipeline bootstrap.

    Replicate ``b`` draws its own random stream from ``(master_seed, 1 + b)``;
    the no-resample point run uses ``(master_seed, 0)``. A run works on its
    distinct (row block, subject) units, each weighted by how often its block
    drew it, and the point run has one unit per row. The scope and every
    resample need two subjects in each treatment group: a scope without them
    raises ``InvalidDataError`` before any run, and such a resample is
    redrawn. With ``resample`` disabled every replicate equals the point run,
    so the bootstrap mean equals the point estimate. A DC-QE scenario reads
    the anchor's ranges once, over the dataset, and a run factors its anchor
    draws once. The result's ``numbers()`` are checked once, at the end: the
    first that is not finite, for example an SE that overflows, raises
    ``InvalidDataError`` naming its column.

    A scope that covers every row, or every column, reads the dataset's
    arrays without copying them. The runs are split over forked workers, one
    fork and one pipe per CPU in the affinity mask, unless this process is
    pinned to one CPU, runs other threads or has a pipeline function rebound.
    Every worker is reaped before this returns or raises; one that dies
    raises ``DcqeError``. Results do not depend on the worker count. The
    effect and balance sum over the subjects with numpy, not with BLAS dot
    products, which OpenBLAS splits across threads; the IRLS products and the
    QR factors left to BLAS and LAPACK gave the same bits at 1, 2 and 4
    OpenBLAS threads up to 16 000 subjects by 16 covariates, but not at
    50 000 by 12. Set ``OPENBLAS_NUM_THREADS=1`` (or the variable of your
    BLAS) so that the workers do not oversubscribe the CPUs.
    """
    spec = config.partition
    spec.validate_for(data)

    sub_spec, rows, cols = scoped_partition(spec, config.scope)
    n_scope = rows.shape[0]
    full_width = cols.shape[0] == data.covariate_count
    in_scope = slice(None) if n_scope == data.subject_count else rows  # all rows: views, no copies
    full_cov = data.covariates[in_scope]
    scoped_cov = None if full_width else full_cov[:, cols]
    z_all = data.treatments[in_scope]
    y_all = data.outcomes[in_scope]
    is_dcqe = config.analysis == "dcqe"
    label = config.collaboration_label or _LABELS[config.scope.kind if is_dcqe else config.analysis]
    treated = int(z_all.sum())
    if not _two_per_group(treated, n_scope):
        size = min(treated, n_scope - treated)
        group = "treated" if size == treated else "control"
        raise InvalidDataError(f"collaboration {label}: the scope's {n_scope} subjects include "
                               f"{'only one' if size else 'no'} {group} subject")

    true_sub = None if true_scores is None else \
        ensure_vector(true_scores, "true_scores", length=data.subject_count)[in_scope]

    bounds = np.cumsum((0,) + sub_spec.row_blocks) if is_dcqe else (0, n_scope)
    if is_dcqe:  # each column's range over the dataset, read down its strided column
        ranges = anchor_ranges([(x.min(), x.max()) for x in (data.covariates[:, j] for j in cols)])

    def reduce_party(k: int, l: int, block, factor, counts) -> Intermediate:
        """``make_intermediate`` of the scope's party (k, l), a failure named by its grid place."""
        own = sub_spec.col_slice(l)
        try:
            return make_intermediate(block, factor[:, np.r_[0, 1 + own.start:1 + own.stop]],
                                     ranges[own], config.intermediate_dim, counts)
        except InvalidDataError as exc:
            raise InvalidDataError(f"collaboration {label}: party ({config.scope.row_indices[k]}, "
                                   f"{config.scope.col_indices[l]}): {exc}") from exc

    def run_once(seed_index: int) -> _Replicate:
        rng = np.random.default_rng(np.random.SeedSequence((config.master_seed, seed_index)))
        anchor_seed = int(rng.integers(0, 2**63))
        if seed_index > 0:  # a bootstrap replicate; run 0 is the point run
            for _ in range(_MAX_REDRAWS):
                idx = rng.integers(0, n_scope, size=n_scope)
                if _two_per_group(int(z_all[idx].sum()), n_scope):
                    break
            else:
                raise DcqeError(f"collaboration {label}: bootstrap resampling kept drawing fewer "
                                "than two subjects of a treatment group")
        else:
            idx = np.arange(n_scope)
        # The run's units: its distinct (row block, subject) pairs, in block and
        # then subject order, each counted as often as that block drew the subject.
        tallies = [np.bincount(idx[a:b], minlength=n_scope) for a, b in zip(bounds, bounds[1:])]
        held = [np.flatnonzero(tally > 0) for tally in tallies]
        units = np.concatenate(held)
        counts = np.concatenate([tally[h] for tally, h in zip(tallies, held)]).astype(float)
        z = z_all[units]
        y = y_all[units]
        ground_truth = full_cov[units]
        scoped = ground_truth if full_width else scoped_cov[units]

        if is_dcqe:
            factor = generate_anchor(cols.shape[0], config.anchor_size, anchor_seed)
            unit_spec = PartitionSpec(tuple(h.shape[0] for h in held), sub_spec.col_blocks)
            intermediates = [[reduce_party(k, l, block, factor, counts[unit_spec.row_slice(k)])
                              for l, block in enumerate(row)]
                             for k, row in enumerate(_party_blocks(scoped, unit_spec))]
            collab = assemble_collaborative(
                intermediates, fit_integration(intermediates, config.collaborative_dim))
            del intermediates  # not needed past here: free them before the fits
            scores = estimate_propensity(collab, z, counts)
            effective_dim = collab.shape[1]
        else:
            scores = estimate_propensity(scoped, z, counts)
            effective_dim = None

        if config.estimator == "PSM":
            matching = match_pairs(scores, z)
            estimate = estimate_psm(matching, y, config.estimand, counts)
            t_rows, c_rows, pair_counts = matched_sample(matching, config.estimand, counts)
            truth = np.ascontiguousarray(ground_truth.T)  # variables-major
            smds = _smd(truth.take(t_rows, axis=1), truth.take(c_rows, axis=1),
                        pair_counts, pair_counts)
        else:
            weights = ipw_weights(scores, z, config.estimand)
            estimate = _ipw_estimate(weights, z, y, counts)
            smds = smd(ground_truth, z, weights=weights, counts=counts)
        masmd = float(np.max(np.abs(smds)))

        # Centralized reference: the same subjects with every covariate. When
        # the scenario itself already is that analysis, its scores are reused,
        # which makes the self-inconsistency structurally zero. It sees no row
        # blocks, so it is fitted once per distinct subject and read per unit.
        if not is_dcqe and full_width:
            reference = scores
        else:
            total = sum(tallies)
            subjects = np.flatnonzero(total > 0)
            reference = np.empty(n_scope)
            try:
                reference[subjects] = estimate_propensity(full_cov[subjects], z_all[subjects],
                                                          total[subjects].astype(float))
            except InvalidDataError as exc:
                raise InvalidDataError(
                    f"collaboration {label}: centralized reference fit: {exc}") from exc
            reference = reference[units]
        inc_ca = inconsistency(scores, reference, counts)
        inc_true = None
        if true_sub is not None:
            inc_true = inconsistency(scores, true_sub[units], counts)
        return _Replicate(estimate, inc_true, inc_ca, masmd, effective_dim)

    n_runs = 1 + config.bootstrap_replicates if config.resample else 1
    runs = runner._run_all(run_once, n_runs, _worker_count(n_runs))
    point = runs[0]
    replicates = runs[1:] if config.resample else [point] * config.bootstrap_replicates

    estimates = ensure_vector([r.estimate for r in replicates], "estimates")
    with np.errstate(over="ignore", invalid="ignore"):  # a number that overflows is named below
        result = ScenarioResult(
            estimator=f"DC-QE({config.estimator})" if is_dcqe else config.estimator,
            collaboration=label,
            subject_count=n_scope,
            point_estimate=point.estimate,
            bootstrap_estimates=estimates,
            estimate_mean=float(estimates.mean()),
            estimate_se=_sample_se(estimates),
            gap=gap(estimates, config.benchmark) if config.benchmark is not None else None,
            **{name: _summary(name, point, replicates) for name in METRICS},
            collaborative_dim=point.collaborative_dim,
            config=config,
        )
    for name, value in result.numbers().items():
        if value is not None and not np.isfinite(value):
            raise InvalidDataError(f"{name} is not finite: {value!r}")
    return result


def _run_suite(data: Dataset, spec: PartitionSpec, layout, seed: int, seed_tag: int,
               intermediate_dim: int, true_scores: np.ndarray | None = None,
               **shared) -> list[ScenarioResult]:
    """Every estimator on every ``(label, analysis, scope)`` row of ``layout``.

    Scenario ``i`` of the estimator-major order gets the master seed
    ``derive_seed(seed, seed_tag, i)`` and the sizes ``ScenarioConfig`` fills;
    ``shared`` holds the ``ScenarioConfig`` fields every scenario shares.
    """
    results = []
    for estimator in ESTIMATORS:
        for label, analysis, scope in layout:
            config = ScenarioConfig(
                partition=spec,
                scope=scope,
                analysis=analysis,
                estimator=estimator,
                intermediate_dim=intermediate_dim if analysis == "dcqe" else None,
                master_seed=derive_seed(seed, seed_tag, len(results)),
                collaboration_label=label,
                **shared,
            )
            results.append(run_scenario(data, config, true_scores))
    return results


def run_experiment_one(seed: int, bootstrap_replicates: int = 1000,
                       subject_count: int = 1000) -> list[ScenarioResult]:
    """Synthetic benchmark: both estimators across collaboration scopes.

    A 2 x 2 grid of equally sized parties over six correlated covariates,
    intermediate dimension 2, a collaborative width of every covariate of
    the scope (3 for the left-side collaboration, 6 for the top-side and
    whole collaborations), ATE against the data-generating benchmark of 1.
    """
    data, true_scores = generate_artificial(
        ArtificialDataConfig(subjects=subject_count, seed=seed)
    )
    half = subject_count // 2
    spec = PartitionSpec((half, subject_count - half), (3, 3))
    layout = [
        ("IA", "individual", CollaborationScope.single_party(0, 0)),
        ("L-clb", "dcqe", CollaborationScope.build("left", spec)),
        ("T-clb", "dcqe", CollaborationScope.build("top", spec)),
        ("W-clb", "dcqe", CollaborationScope.build("whole", spec)),
        ("CA", "centralized", CollaborationScope.build("whole", spec)),
    ]
    return _run_suite(data, spec, layout, seed, _SEED_TAG_SYNTHETIC_ROWS, 2, true_scores,
                      estimand="ATE", bootstrap_replicates=bootstrap_replicates, benchmark=1.0)


# Covariate columns of the job-training benchmark file, read in this order
# beside its "treatment" and "re78" (outcome) columns. The partition puts the
# demographic and education variables with the left-side parties and the
# race and prior-earnings variables with the right-side parties.
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
    raw = ingest_csv(data_path, _LEFT_COLUMNS + _RIGHT_COLUMNS, "treatment", "re78")
    block = min(_BENCHMARK_BLOCK, raw.subject_count // 2)
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), _SEED_TAG_SHUFFLE)))
    keep = rng.permutation(raw.subject_count)[: 2 * block]
    data = Dataset(
        covariates=raw.covariates[keep],
        treatments=raw.treatments[keep],
        outcomes=raw.outcomes[keep] / 1000.0,
    )
    return data, PartitionSpec((block, block), (4, 4))


def run_experiment_two(data_path, seed: int,
                       bootstrap_replicates: int = 1000) -> list[ScenarioResult]:
    """Job-training benchmark: ATT across individual analyses and collaborations.

    Intermediate dimension 3 throughout, a collaborative width of every
    covariate of the scope (4 for the one-sided collaborations, 8 for the
    top-side and whole collaborations), benchmark 1.794 thousand dollars.
    """
    data, spec = load_experiment_two_data(data_path, seed)
    layout = [
        ("L-IA", "individual", CollaborationScope.single_party(0, 0)),
        ("R-IA", "individual", CollaborationScope.single_party(0, 1)),
        ("L-clb", "dcqe", CollaborationScope.build("left", spec)),
        ("R-clb", "dcqe", CollaborationScope.build("right", spec)),
        ("T-clb", "dcqe", CollaborationScope.build("top", spec)),
        ("W-clb", "dcqe", CollaborationScope.build("whole", spec)),
        ("CA", "centralized", CollaborationScope.build("whole", spec)),
    ]
    return _run_suite(data, spec, layout, seed, _SEED_TAG_BENCHMARK_ROWS, 3, estimand="ATT",
                      bootstrap_replicates=bootstrap_replicates, benchmark=NSW_BENCHMARK)

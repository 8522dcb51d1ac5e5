import csv
import multiprocessing
import os
import platform
import resource
import signal
import subprocess
import sys
import threading
import tracemalloc
import warnings
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import oracles
from test_collaboration import party_share
from dcqe import experiments, runner
from dcqe.causal import estimate_ipw, estimate_propensity
from dcqe.collaboration import anchor_ranges, fit_integration, generate_anchor, \
    make_intermediate
from dcqe.datamodel import CollaborationScope, Dataset, PartitionSpec, partition, \
    scoped_partition
from dcqe.errors import ConfigError, DcqeError, InvalidDataError
from dcqe.experiments import (
    METRICS,
    ArtificialDataConfig,
    ScenarioConfig,
    derive_seed,
    generate_artificial,
    run_experiment_one,
    run_experiment_two,
    run_scenario,
)
from dcqe.numerics import svd_truncated


class TestGenerateArtificial:
    def test_moments_at_scale(self):
        data, _ = generate_artificial(ArtificialDataConfig(subjects=100_000, seed=1))
        empirical = np.cov(data.covariates.T)
        expected = np.full((6, 6), 0.5)
        np.fill_diagonal(expected, 1.0)
        assert np.max(np.abs(empirical - expected)) < 0.02
        assert abs(data.treatments.mean() - 0.5) < 0.01

    def test_true_scores_match_logistic_of_covariate_mean(self):
        data, true_scores = generate_artificial(ArtificialDataConfig(seed=4))
        expected = 1.0 / (1.0 + np.exp(-data.covariates.sum(axis=1) / 6.0))
        np.testing.assert_allclose(true_scores, expected, atol=1e-12)

    def test_naive_difference_of_means_is_biased_upward(self):
        data, _ = generate_artificial(ArtificialDataConfig(seed=1))
        naive = data.outcomes[data.treatments == 1].mean() - \
            data.outcomes[data.treatments == 0].mean()
        assert abs(naive - 4.15) < 0.5

    def test_deterministic(self):
        first, scores_a = generate_artificial(ArtificialDataConfig(seed=9))
        second, scores_b = generate_artificial(ArtificialDataConfig(seed=9))
        assert np.array_equal(first.covariates, second.covariates)
        assert np.array_equal(first.treatments, second.treatments)
        assert np.array_equal(first.outcomes, second.outcomes)
        assert np.array_equal(scores_a, scores_b)

    def test_invalid_configs_rejected(self):
        with pytest.raises(ConfigError):
            generate_artificial(ArtificialDataConfig(correlation=-0.5))
        with pytest.raises(ConfigError):
            generate_artificial(ArtificialDataConfig(correlation=1.0))
        with pytest.raises(ConfigError):
            generate_artificial(ArtificialDataConfig(noise_sd=0.0))
        with pytest.raises(ConfigError):
            generate_artificial(ArtificialDataConfig(subjects=1))

    @pytest.mark.parametrize("settings", [
        dict(subjects=1), dict(covariate_count=0), dict(correlation=1.0),
        dict(correlation=float("nan")), dict(noise_sd=0.0), dict(noise_sd=float("inf")),
        dict(noise_sd=float("nan")),
    ])
    def test_invalid_settings_rejected_at_construction(self, settings):
        with pytest.raises(ConfigError, match=f"got {next(iter(settings.values()))!r}"):
            ArtificialDataConfig(**settings)


def small_scenario(**overrides):
    spec = PartitionSpec((40, 40), (3, 3))
    settings = dict(
        partition=spec,
        scope=CollaborationScope.build("whole", spec),
        analysis="dcqe",
        estimator="IPW",
        estimand="ATE",
        intermediate_dim=2,
        collaborative_dim=6,
        anchor_size=80,
        bootstrap_replicates=10,
        master_seed=3,
        benchmark=1.0,
    )
    settings.update(overrides)
    return ScenarioConfig(**settings)


class TestRunScenario:
    def test_single_replicate_without_resampling_is_the_point_run(self):
        data, scores = generate_artificial(ArtificialDataConfig(subjects=80, seed=2))
        config = small_scenario(bootstrap_replicates=1, resample=False)
        result = run_scenario(data, config, scores)
        assert result.estimate_mean == result.point_estimate
        assert result.estimate_se == 0.0
        assert result.gap == abs(result.point_estimate - 1.0)
        assert result.inconsistency_true.mean == result.inconsistency_true.point
        assert result.masmd.se == 0.0

    def test_point_run_uses_every_subject_once(self):
        data, scores = generate_artificial(ArtificialDataConfig(subjects=80, seed=2))
        config = small_scenario(analysis="centralized", intermediate_dim=None,
                                collaborative_dim=None, bootstrap_replicates=3)
        fitted = estimate_propensity(data.covariates, data.treatments)
        expected = estimate_ipw(fitted, data.treatments, data.outcomes, "ATE")
        assert run_scenario(data, config, scores).point_estimate == expected

    def test_deterministic_given_master_seed(self):
        data, scores = generate_artificial(ArtificialDataConfig(subjects=80, seed=5))
        config = small_scenario(estimator="PSM", bootstrap_replicates=8)
        first = run_scenario(data, config, scores)
        second = run_scenario(data, config, scores)
        assert np.array_equal(first.bootstrap_estimates, second.bootstrap_estimates)
        assert first.inconsistency_ca == second.inconsistency_ca
        assert first.masmd == second.masmd

    def test_centralized_self_inconsistency_is_structurally_zero(self):
        data, scores = generate_artificial(ArtificialDataConfig(subjects=120, seed=6))
        config = small_scenario(
            partition=PartitionSpec((60, 60), (3, 3)),
            analysis="centralized",
            intermediate_dim=None,
            collaborative_dim=None,
            bootstrap_replicates=6,
        )
        result = run_scenario(data, config, scores)
        assert result.inconsistency_ca.point == 0.0
        assert result.inconsistency_ca.mean == 0.0
        assert result.inconsistency_ca.se == 0.0
        assert result.collaboration == "CA"

    def test_degenerate_resamples_are_redrawn(self):
        rng = np.random.default_rng(11)
        covariates = rng.normal(size=(12, 2))
        treatments = np.zeros(12, dtype=int)
        treatments[:2] = 1  # two treated subjects: many resamples drop below two
        from dcqe.datamodel import Dataset

        data = Dataset(covariates, treatments, rng.normal(size=12))
        spec = PartitionSpec((12,), (2,))
        config = ScenarioConfig(
            partition=spec,
            scope=CollaborationScope.build("whole", spec),
            analysis="centralized",
            estimator="IPW",
            estimand="ATE",
            bootstrap_replicates=40,
            master_seed=1,
            benchmark=0.0,
        )
        result = run_scenario(data, config)
        assert np.all(np.isfinite(result.bootstrap_estimates))

    def test_labels_and_counts(self):
        data, scores = generate_artificial(ArtificialDataConfig(subjects=80, seed=7))
        spec = PartitionSpec((40, 40), (3, 3))
        config = small_scenario(
            scope=CollaborationScope.single_party(0, 0),
            analysis="individual",
            intermediate_dim=None,
            collaborative_dim=None,
            bootstrap_replicates=4,
        )
        result = run_scenario(data, config, scores)
        assert result.collaboration == "IA"
        assert result.estimator == "IPW"
        assert result.subject_count == 40

    def test_strict_reduction_enforced(self):
        data, _ = generate_artificial(ArtificialDataConfig(subjects=80, seed=8))
        with pytest.raises(ConfigError, match="reduction must be strict"):
            run_scenario(data, small_scenario(intermediate_dim=3))

    def test_rules_checked_at_construction(self):
        # No data is needed: every rule depends on the partition and the scope.
        with pytest.raises(ConfigError, match="intermediate dimension .* got 3"):
            small_scenario(intermediate_dim=3)
        with pytest.raises(ConfigError, match=r"\[1, 80\], got 81"):
            small_scenario(anchor_size=None, collaborative_dim=81)
        with pytest.raises(ConfigError, match="^collaborative analysis needs an intermediate"):
            small_scenario(intermediate_dim=None)
        with pytest.raises(InvalidDataError, match="column block 2 out of range"):
            small_scenario(scope=CollaborationScope.custom((0,), (2,)))
        small_scenario(analysis="centralized", intermediate_dim=None, collaborative_dim=None,
                       scope=CollaborationScope.single_party(1, 1))

    @pytest.mark.parametrize("effect", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_benchmark_rejected_at_construction(self, effect):
        with pytest.raises(ConfigError, match=f"benchmark must be finite, got {effect!r}"):
            small_scenario(benchmark=effect)

    def test_collaborative_dim_bounded_by_anchor(self):
        data, _ = generate_artificial(ArtificialDataConfig(subjects=80, seed=8))
        with pytest.raises(ConfigError):
            run_scenario(data, small_scenario(collaborative_dim=90))

    def test_width_beyond_the_anchor_directions_runs_at_their_count(self):
        # Four width-2 parties of a 6-covariate scope image seven anchor directions,
        # the ones column and six covariates: a width of 10 on a 200-row anchor runs
        # at 7. Only the anchor size bounds the width that may be asked for.
        data, scores = generate_artificial(ArtificialDataConfig(subjects=200, seed=4))
        spec = PartitionSpec((100, 100), (3, 3))
        config = ScenarioConfig(partition=spec, scope=CollaborationScope.build("whole", spec),
                                intermediate_dim=2, collaborative_dim=10, anchor_size=200,
                                bootstrap_replicates=2)
        assert run_scenario(data, config, scores).collaborative_dim == 7


class TestScenarioSizes:
    """A DC-QE config left without sizes gets them from its partition and scope."""

    SPEC = PartitionSpec((4, 5, 6), (2, 3, 4))

    @pytest.mark.parametrize("scope, width", [
        (CollaborationScope.build("left", SPEC), 2),
        (CollaborationScope.build("right", SPEC), 4),
        (CollaborationScope.build("top", SPEC), 9),
        (CollaborationScope.build("bottom", SPEC), 9),
        (CollaborationScope.build("whole", SPEC), 9),
        (CollaborationScope.custom((0, 2), (1, 2)), 7),
    ], ids=lambda value: value.kind if isinstance(value, CollaborationScope) else None)
    def test_unset_sizes_are_the_scope_width_and_the_subject_count(self, scope, width):
        config = ScenarioConfig(partition=self.SPEC, scope=scope, intermediate_dim=1)
        assert (config.collaborative_dim, config.anchor_size) == (width, 15)
        for analysis in ("centralized", "individual"):
            other = ScenarioConfig(partition=self.SPEC, scope=scope, analysis=analysis)
            assert (other.collaborative_dim, other.anchor_size) == (None, None)


class TestConfigRejections:
    @pytest.mark.parametrize("build, message", [
        (lambda: generate_artificial(ArtificialDataConfig(
            covariate_count=6, correlation=float(np.nextafter(-0.2, 1)))),
         "covariance matrix is not positive definite"),
        (lambda: small_scenario(anchor_size=0), "anchor size must be positive, got 0"),
    ], ids=["correlation-at-the-bound", "empty-anchor"])
    def test_rejected_with_message(self, build, message):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            build()


class TestScopeWithOneTreatmentGroup:
    @pytest.mark.parametrize("treatments, missing", [
        ([1, 1, 1, 0, 1, 0], "no control"),
        ([0, 0, 0, 1, 0, 1], "no treated"),
        ([1, 0, 1, 0, 1, 0], "only one control"),  # balance needs two subjects per group
        ([0, 1, 0, 1, 0, 1], "only one treated"),
    ], ids=["no-control", "no-treated", "one-control", "one-treated"])
    def test_rejected_before_any_run(self, treatments, missing):
        rng = np.random.default_rng(0)
        data = Dataset(rng.normal(size=(6, 2)), treatments, rng.normal(size=6))
        spec = PartitionSpec((3, 3), (1, 1))
        config = ScenarioConfig(partition=spec, scope=CollaborationScope.build("top", spec),
                                analysis="centralized", bootstrap_replicates=2,
                                collaboration_label="T-top")
        message = f"^collaboration T-top: the scope's 3 subjects include {missing} subject$"
        with pytest.raises(InvalidDataError, match=message):
            run_scenario(data, config)

    def test_redraw_cap_names_the_collaboration_and_the_rule(self, monkeypatch):
        monkeypatch.setattr(experiments, "_MAX_REDRAWS", 0)  # no resample is kept
        data, _ = generate_artificial(ArtificialDataConfig(subjects=80, seed=4))
        message = ("^collaboration W-all: bootstrap resampling kept drawing fewer than two "
                   "subjects of a treatment group$")
        with pytest.raises(DcqeError, match=message):
            run_scenario(data, small_scenario(bootstrap_replicates=1, collaboration_label="W-all"))


class TestReportedNumbersAreFinite:
    """``run_scenario`` checks every number it reports, once, and names the first
    that is not finite; nothing on the way warns."""

    @staticmethod
    def run_without_warnings(data, config, scores=None):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return run_scenario(data, config, scores)

    @pytest.mark.parametrize("estimator", ["IPW", "PSM"])
    def test_overflowing_estimates_are_named(self, estimator):
        data, scores = generate_artificial(ArtificialDataConfig(subjects=80, seed=2))
        outcomes = np.where(data.treatments == 1, 1e308, -1e308)
        big = Dataset(data.covariates, data.treatments, outcomes)
        with pytest.raises(InvalidDataError, match="^estimates contains non-finite entries$"):
            self.run_without_warnings(big, small_scenario(estimator=estimator), scores)

    def test_overflowing_se_is_named(self):
        # Every estimate is finite, near 1e306, but their spread overflows in the square.
        data, scores = generate_artificial(ArtificialDataConfig(subjects=40, seed=0))
        y = np.zeros(40)
        y[np.flatnonzero(data.treatments == 1)[0]] = 1e307
        spec = PartitionSpec((20, 20), (3, 3))
        config = small_scenario(partition=spec, scope=CollaborationScope.build("whole", spec),
                                estimand="ATT", collaborative_dim=4, anchor_size=None,
                                bootstrap_replicates=20, master_seed=0, benchmark=None)
        with pytest.raises(InvalidDataError, match="^estimate_se is not finite: inf$"):
            self.run_without_warnings(Dataset(data.covariates, data.treatments, y), config, scores)

    def test_numbers_are_named_in_report_order(self):
        data, _ = generate_artificial(ArtificialDataConfig(subjects=80, seed=2))
        result = run_scenario(data, small_scenario(bootstrap_replicates=3, benchmark=None))
        numbers = result.numbers()
        assert list(numbers) == ["estimate_mean", "estimate_se", "point_estimate", "gap"] + [
            f"{name}_{stat}" for name in METRICS for stat in ("mean", "se", "point")]
        assert numbers["gap"] is None and result.inconsistency_true is None
        assert all(numbers[f"inconsistency_true_{stat}"] is None
                   for stat in ("mean", "se", "point"))
        assert numbers["masmd_se"] == result.masmd.se
        assert numbers["point_estimate"] == result.point_estimate

    def test_finite_run_reports_plain_numbers(self):
        data, scores = generate_artificial(ArtificialDataConfig(subjects=80, seed=2))
        result = self.run_without_warnings(data, small_scenario(bootstrap_replicates=4), scores)
        assert result.bootstrap_estimates.dtype == np.float64
        assert result.bootstrap_estimates.shape == (4,)
        assert result.estimate_mean == float(result.bootstrap_estimates.mean())
        assert all(type(value) is float for value in (
            result.point_estimate, result.estimate_mean, result.estimate_se, result.gap,
            result.masmd.point, result.masmd.mean, result.masmd.se))


class TestReferenceScenario:
    """``run_scenario`` against ``oracles.reference_scenario``, which recomputes each run
    serially from the method's steps: the same seed stream and redraw rule, party
    PCA by the SVD of the standardized block, the pseudoinverse alignment, the
    ``logaddexp`` IRLS fit, brute-force matching and loop or rational formulas.

    Every reported number must agree within ``BOUND``, relative to the larger of
    1 and its size; the largest gap measured on these cases is 1.0e-15. The
    oracle runs on the resampled rows and the package on their distinct (row
    block, subject) units with counts, so matches are compared per resample
    position, each mapped to its unit. A PSM match that differs is reported
    by name: none does on these cases. In the whole, left and right cases some
    subjects are drawn into both row blocks, so each of them is two units.
    """

    BOUND = 1e-10
    SPEC = PartitionSpec((100, 100), (3, 3))
    # (analysis, estimator, estimand, scope, collaborative width)
    CASES = [
        ("dcqe", "PSM", "ATE", CollaborationScope.build("whole", SPEC), 4),
        ("dcqe", "IPW", "ATT", CollaborationScope.build("left", SPEC), 2),
        ("dcqe", "IPW", "ATE", CollaborationScope.build("top", SPEC), 4),
        ("dcqe", "PSM", "ATT", CollaborationScope.build("right", SPEC), 2),
        ("dcqe", "IPW", "ATE", CollaborationScope.build("bottom", SPEC), 3),
        ("centralized", "IPW", "ATE", CollaborationScope.build("whole", SPEC), None),
        ("centralized", "PSM", "ATE", CollaborationScope.custom((0, 1), (1,)), None),
        ("individual", "PSM", "ATT", CollaborationScope.single_party(1, 0), None),
        ("individual", "IPW", "ATT", CollaborationScope.single_party(0, 1), None),
    ]

    @staticmethod
    def unit_index(positions, row_blocks):
        """The package's unit of each resample position: (row block, subject) pairs,
        ordered by block and then by subject."""
        block = np.repeat(np.arange(len(row_blocks)), row_blocks)
        return np.unique(block * (positions.max() + 1) + positions, return_inverse=True)[1]

    @staticmethod
    def numbers(result):
        """Each reported number of a ``ScenarioResult`` or a ``reference_scenario`` dict."""
        get = result.get if isinstance(result, dict) else lambda name: getattr(result, name)
        out = {f"bootstrap_estimates[{b}]": v for b, v in enumerate(get("bootstrap_estimates"))}
        out.update((name, get(name)) for name in
                   ("point_estimate", "estimate_mean", "estimate_se", "gap"))
        for name in ("inconsistency_true", "inconsistency_ca", "masmd"):
            summary = get(name)
            values = summary if isinstance(summary, tuple) else \
                (summary.point, summary.mean, summary.se)
            out.update((f"{name}.{stat}", v) for stat, v in zip(("point", "mean", "se"), values))
        return out

    def test_every_reported_number_matches_the_oracle(self, monkeypatch):
        data, true_scores = generate_artificial(ArtificialDataConfig(subjects=200, seed=0))
        package_pairs = []

        def recorded(scores, treatments):
            matching = match_pairs(scores, treatments)
            package_pairs.append(matching.pairs)
            return matching

        match_pairs = experiments.match_pairs
        monkeypatch.setattr(experiments, "match_pairs", recorded)
        monkeypatch.setattr(runner, "_available_cpus", lambda: 1)  # runs here, in order
        gaps, moved, shared = {}, [], 0
        for case, (analysis, estimator, estimand, scope, width) in enumerate(self.CASES):
            config = ScenarioConfig(
                partition=self.SPEC, scope=scope, analysis=analysis, estimator=estimator,
                estimand=estimand, intermediate_dim=2 if analysis == "dcqe" else None,
                collaborative_dim=width, bootstrap_replicates=5, master_seed=case, benchmark=1.0)
            package_pairs.clear()
            result = run_scenario(data, config, true_scores)
            reference = oracles.reference_scenario(data, config, true_scores)
            assert len(package_pairs) == (len(reference["runs"]) if estimator == "PSM" else 0)
            sub_spec = scoped_partition(self.SPEC, scope)[0]
            blocks = sub_spec.row_blocks if analysis == "dcqe" else (sub_spec.subject_count,)
            for run, theirs in enumerate(reference["runs"]):
                positions = theirs["positions"]
                unit = self.unit_index(positions, blocks)
                shared += np.intersect1d(positions[:blocks[0]], positions[blocks[0]:]).size
                if estimator == "PSM":
                    ours, expected = package_pairs[run][unit], unit[theirs["pairs"]]
                    moved += [f"case {case} run {run} position {i}: unit {ours[i]} vs {expected[i]}"
                              for i in np.flatnonzero(ours != expected)]
            expected = self.numbers(reference)
            for name, value in self.numbers(result).items():
                gaps[f"case {case} {name}"] = abs(value - expected[name]) / max(1.0, abs(value))
        largest = max(gaps, key=gaps.get)
        print(f"largest gap {gaps[largest]:.1e} at {largest}; bound {self.BOUND:g}; "
              f"{len(moved)} PSM matches differ; {shared} subjects drawn into both row blocks")
        assert shared > 0, "no case draws a subject into both row blocks"
        assert not moved, "PSM matches differ: " + "; ".join(moved[:10])
        assert gaps[largest] <= self.BOUND, f"{largest}: gap {gaps[largest]:.3g}"


CPUS = runner._available_cpus()
CAN_FORK = hasattr(os, "fork")
needs_workers = pytest.mark.skipif(CPUS < 2 or not CAN_FORK,
                                   reason="parallel replicates need 2 CPUs and fork")
needs_pinning = pytest.mark.skipif(not CAN_FORK or not hasattr(os, "sched_setaffinity"),
                                   reason="a pinned child needs fork and sched_setaffinity")


def _pinned_call(fn, *args):
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    return fn(*args)


def in_pinned_child(fn, *args):
    """``fn(*args)`` in a forked child process pinned to one CPU."""
    with ProcessPoolExecutor(1, multiprocessing.get_context("fork")) as pool:
        return pool.submit(_pinned_call, fn, *args).result(timeout=300)


def result_numbers(result):
    """Every number of a ScenarioResult, as bytes, for bit-for-bit comparison."""
    values = [np.nan if value is None else value for value in result.numbers().values()]
    values += [result.subject_count, result.collaborative_dim or 0]
    return np.array(values, dtype=float).tobytes(), result.bootstrap_estimates.tobytes()


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _dead_worker_error(death):
    """The error ``_run_all`` raises when every worker calls ``death``, within the alarm bound."""
    parent = os.getpid()

    def dying(index):
        if os.getpid() != parent:
            death()
        return index

    previous = signal.signal(signal.SIGALRM, _raise_alarm)
    signal.alarm(120)
    try:
        with pytest.raises(DcqeError, match="a worker process died") as caught:
            runner._run_all(dying, 4)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert type(caught.value) is DcqeError
    return caught.value


def _failing_run(index):
    # Every run but the first fails, so more than one worker raises.
    if index >= 1:
        raise InvalidDataError(f"run {index} failed")
    return index


class _Alarm(Exception):
    pass


def _raise_alarm(signum, frame):
    raise _Alarm


class TestParallelReplicates:
    @needs_workers
    @needs_pinning
    @pytest.mark.parametrize("estimator", ["PSM", "IPW"])
    @pytest.mark.parametrize("analysis", ["dcqe", "centralized", "individual"])
    def test_parallel_equals_serial_bit_for_bit(self, estimator, analysis):
        data, scores = generate_artificial(ArtificialDataConfig(subjects=80, seed=4))
        scope = (CollaborationScope.single_party(0, 0) if analysis == "individual"
                 else small_scenario().scope)
        dims = dict(intermediate_dim=None, collaborative_dim=None) if analysis != "dcqe" else {}
        # B = 1 is two runs; 2 * CPUS + 1 gives every worker more than one.
        for replicates, resample in [(1, True), (2 * CPUS + 1, True), (3, False)]:
            config = small_scenario(estimator=estimator, analysis=analysis, scope=scope,
                                    bootstrap_replicates=replicates, resample=resample,
                                    **dims)
            serial = in_pinned_child(run_scenario, data, config, scores)
            runs = 1 + replicates if resample else 1
            # The unpinned call below really forks: no other thread, nothing rebound.
            assert threading.active_count() == 1
            assert experiments._worker_count(runs) == min(CPUS, runs)
            parallel = run_scenario(data, config, scores)
            assert result_numbers(parallel) == result_numbers(serial), (replicates, resample)
            assert threading.active_count() == 1  # the runner starts no thread

    @needs_workers
    def test_runs_are_made_in_workers_one_range_each_in_index_order(self):
        count = 2 * CPUS + 1
        runs = runner._run_all(lambda i: (i, os.getpid()), count)
        assert [i for i, _ in runs] == list(range(count))
        # Any idle worker may take a range, but a range stays in one worker.
        bounds = [count * k // CPUS for k in range(CPUS + 1)]
        for start, stop in zip(bounds, bounds[1:]):
            assert len({pid for _, pid in runs[start:stop]}) == 1
        assert os.getpid() not in {pid for _, pid in runs}

    @needs_workers
    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap setting is glibc's")
    def test_worker_reuses_its_heap(self):
        # 16000 x 8 arrays, two alive at a time as in a replicate's arithmetic:
        # with glibc's default thresholds each cycle faults in fresh pages.
        def faults(index):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            for _ in range(50):
                [np.ones((16000, 8)) for _ in range(2)]
            return os.getpid(), resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

        assert experiments._worker_count(CPUS) == CPUS
        runs = runner._run_all(faults, CPUS)
        assert os.getpid() not in {pid for pid, _ in runs}
        assert max(count for _, count in runs) < 2000, runs

    @needs_workers
    def test_dead_worker_raises_instead_of_hanging(self):
        error = _dead_worker_error(lambda: os._exit(1))
        # The message gives the worker's wait status.
        assert str(error) == "a worker process died: exit code 1"
        assert_no_child_left()

    @needs_workers
    def test_killed_worker_raises_instead_of_hanging(self):
        error = _dead_worker_error(lambda: os.kill(os.getpid(), signal.SIGKILL))
        assert str(error) == f"a worker process died: killed by signal {signal.SIGKILL:d}"
        assert_no_child_left()

    @needs_workers
    def test_every_worker_is_reaped_on_return_and_on_raise(self):
        count = 2 * CPUS + 1
        assert runner._run_all(lambda i: i, count) == list(range(count))
        assert_no_child_left()
        with pytest.raises(InvalidDataError, match="run 1 failed"):
            runner._run_all(_failing_run, count)
        assert_no_child_left()

    @needs_workers
    def test_unflushed_output_is_written_once(self):
        # A worker that exited through the interpreter would flush its copy
        # of the parent's stdout buffer again.
        code = "\n".join([
            "import sys",
            "from dcqe import experiments, runner",
            "assert experiments._worker_count(4) > 1",
            "sys.stdout.write('buffered before the fork\\n')",
            "assert runner._run_all(lambda i: i, 4) == [0, 1, 2, 3]",
            "try:",
            "    runner._run_all(lambda i: 1 / i, 4)",
            "except ZeroDivisionError:",
            "    pass",
        ])
        src = Path(experiments.__file__).resolve().parent.parent
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=dict(env, PYTHONPATH=str(src)), timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "buffered before the fork\n"

    def test_no_fork_while_another_thread_runs(self):
        parent = os.getpid()
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(60,))
        other.start()
        try:
            assert experiments._worker_count(4) == 1
            runs = runner._run_all(lambda i: os.getpid(), 4)
        finally:
            release.set()
            other.join(60)
        assert not other.is_alive()
        assert runs == [parent] * 4

    @needs_workers
    def test_replicate_error_keeps_type_and_message(self):
        count = 2 * CPUS + 1
        assert experiments._worker_count(count) == CPUS
        errors = []
        for run in (lambda: [_failing_run(i) for i in range(count)],
                    lambda: runner._run_all(_failing_run, count)):
            with pytest.raises(InvalidDataError, match="^run 1 failed$") as caught:
                run()
            errors.append((type(caught.value), str(caught.value)))
        assert errors[0] == errors[1] == (InvalidDataError, "run 1 failed")

    def test_rebound_pipeline_function_keeps_runs_in_this_process(self, monkeypatch):
        # A tracer or a mock that records calls must see every run.
        data, scores = generate_artificial(ArtificialDataConfig(subjects=80, seed=4))
        config = small_scenario(bootstrap_replicates=2 * CPUS + 1)
        unpatched = run_scenario(data, config, scores)
        original, pids = experiments.estimate_propensity, []

        def recording(*args, **kwargs):
            pids.append(os.getpid())
            return original(*args, **kwargs)

        monkeypatch.setattr(experiments, "estimate_propensity", recording)
        assert experiments._worker_count(config.bootstrap_replicates + 1) == 1
        patched = run_scenario(data, config, scores)
        # Each run fits the collaborative scores and the centralized reference.
        assert pids == [os.getpid()] * 2 * (config.bootstrap_replicates + 1)
        assert result_numbers(patched) == result_numbers(unpatched)

    def test_ipw_weights_computed_once_per_run(self, monkeypatch):
        data, _ = generate_artificial(ArtificialDataConfig(subjects=80, seed=4))
        original, calls = experiments.ipw_weights, []

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(experiments, "ipw_weights", counting)
        monkeypatch.setattr(runner, "_available_cpus", lambda: 1)  # the runs record here
        run_scenario(data, small_scenario(bootstrap_replicates=3))
        assert len(calls) == 4

    def test_import_leaves_process_pool_modules_unloaded(self):
        # Unloaded after the import, and after a run that forks where it can.
        code = "\n".join([
            "import sys, dcqe",
            "from dcqe import experiments as e",
            "from dcqe.datamodel import CollaborationScope, PartitionSpec",
            "def pools():",
            "    return sorted(m for m in sys.modules",
            "                  if m.split('.')[0] in ('multiprocessing', 'concurrent'))",
            "print(pools())",
            "data, _ = e.generate_artificial(e.ArtificialDataConfig(subjects=80, seed=4))",
            "spec = PartitionSpec((40, 40), (3, 3))",
            "config = e.ScenarioConfig(spec, CollaborationScope.build('whole', spec),",
            "                          intermediate_dim=2, collaborative_dim=6,",
            "                          bootstrap_replicates=4)",
            "print(e._worker_count(5))",
            "e.run_scenario(data, config)",
            "print(pools())",
        ])
        src = Path(experiments.__file__).resolve().parent.parent
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=str(src)), check=True,
                              timeout=120)
        workers = min(CPUS, 5) if CAN_FORK else 1
        assert done.stdout.split() == ["[]", str(workers), "[]"]

    def test_whole_scope_is_not_copied_before_the_runs(self, monkeypatch):
        data, scores = generate_artificial(ArtificialDataConfig(subjects=4000, seed=4))
        spec = PartitionSpec((2000, 2000), (3, 3))
        config = small_scenario(partition=spec, scope=CollaborationScope.build("whole", spec),
                                anchor_size=100, bootstrap_replicates=1, resample=False)
        original, held = runner._run_all, []

        def measured(run, count, workers):
            held.append(tracemalloc.get_traced_memory()[0] - baseline)
            return original(run, count, workers)

        monkeypatch.setattr(runner, "_run_all", measured)
        tracemalloc.start()
        try:
            baseline = tracemalloc.get_traced_memory()[0]
            run_scenario(data, config, scores)
        finally:
            tracemalloc.stop()
        # What run_scenario holds when it reaches the runs: the row and column
        # indices of the scope, but no copy of its covariates.
        assert len(held) == 1
        assert held[0] < data.covariates.nbytes / 2


class TestBootstrapRate:
    def test_centralized_se_shrinks_like_root_n(self):
        # The bootstrap SE is conditional on the realized dataset and the
        # inverse-probability weights give it heavy tails at n=500, so the
        # square-root rate only shows on a pinned draw; this one sits at 2.16.
        ses = {}
        for n in (500, 2000):
            data, _ = generate_artificial(ArtificialDataConfig(subjects=n, seed=0))
            spec = PartitionSpec((n // 2, n // 2), (3, 3))
            config = ScenarioConfig(
                partition=spec,
                scope=CollaborationScope.build("whole", spec),
                analysis="centralized",
                estimator="IPW",
                estimand="ATE",
                bootstrap_replicates=200,
                master_seed=17,
                benchmark=1.0,
            )
            ses[n] = run_scenario(data, config).estimate_se
        ratio = ses[500] / ses[2000]
        assert 1.6 <= ratio <= 2.4


class TestAlignmentRank:
    def test_shared_basis_tail_error_is_monotone_in_rank(self):
        data, _ = generate_artificial(ArtificialDataConfig(seed=19))
        spec = PartitionSpec((500, 500), (3, 3))
        ranges = anchor_ranges(np.column_stack([data.covariates.min(0), data.covariates.max(0)]))
        factor = generate_anchor(6, 1000, 23)
        combined = np.hstack([
            make_intermediate(block, *party_share(factor, ranges, spec.col_slice(l)), 2)[1]
            for row in partition(data, spec) for l, block in enumerate(row)])
        errors = []
        for rank in range(1, min(combined.shape) + 1):
            truncated = svd_truncated(combined, rank)
            errors.append(np.linalg.norm(combined - truncated.reconstruct()))
        assert all(b <= a + 1e-9 for a, b in zip(errors, errors[1:]))

    def test_no_svd_input_is_taller_than_the_combined_width(self, monkeypatch):
        # Party PCA and alignment decompose R factors, never the subject- or
        # anchor-tall matrices themselves.
        shapes, widths = [], []
        svd, fit = np.linalg.svd, experiments.fit_integration

        def recording_svd(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return svd(a, *args, **kwargs)

        def recording_fit(reps, collaborative_dim):
            widths.append(sum(anchor.shape[1] for row in reps for _, anchor in row))
            return fit(reps, collaborative_dim)

        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        monkeypatch.setattr(experiments, "fit_integration", recording_fit)
        monkeypatch.setattr(runner, "_available_cpus", lambda: 1)  # the runs record here
        data, true_scores = generate_artificial(ArtificialDataConfig(subjects=4000, seed=2))
        spec = PartitionSpec((2000, 2000), (3, 3))
        config = ScenarioConfig(partition=spec, scope=CollaborationScope.build("whole", spec),
                                analysis="dcqe", estimator="PSM", intermediate_dim=2,
                                collaborative_dim=6, bootstrap_replicates=2, master_seed=3)
        run_scenario(data, config, true_scores)
        assert widths == [8, 8, 8]
        assert shapes and max(rows for rows, _ in shapes) <= 8, shapes

    def test_one_anchor_tall_qr_per_run_and_an_alignment_qr_of_seven_rows(self, monkeypatch):
        # The anchor's draws are factored once per run; the parties ship 7-row
        # images (the ones column and six covariates), so the alignment factors a
        # 7 x 8 combined image. The other QR inputs are the parties' unit blocks.
        shapes = {"fit": [], "other": []}
        stage = ["other"]
        qr, fit = np.linalg.qr, experiments.fit_integration

        def recording_qr(a, *args, **kwargs):
            shapes[stage[0]].append(np.shape(a))
            return qr(a, *args, **kwargs)

        def recording_fit(reps, collaborative_dim):
            stage[0] = "fit"
            try:
                return fit(reps, collaborative_dim)
            finally:
                stage[0] = "other"

        monkeypatch.setattr(np.linalg, "qr", recording_qr)
        monkeypatch.setattr(experiments, "fit_integration", recording_fit)
        monkeypatch.setattr(runner, "_available_cpus", lambda: 1)  # the runs record here
        data, true_scores = generate_artificial(ArtificialDataConfig(subjects=4000, seed=2))
        spec = PartitionSpec((2000, 2000), (3, 3))
        config = ScenarioConfig(partition=spec, scope=CollaborationScope.build("whole", spec),
                                analysis="dcqe", estimator="PSM", intermediate_dim=2,
                                collaborative_dim=6, anchor_size=3000, bootstrap_replicates=2,
                                master_seed=3)
        run_scenario(data, config, true_scores)
        assert shapes["fit"] == [(7, 8)] * 3
        assert [s for s in shapes["other"] if s[0] > 2000] == [(3000, 7)] * 3
        assert len(shapes["other"]) == 3 * 5
        assert all(cols == 3 for rows, cols in shapes["other"] if rows <= 2000)


class TestPublicProtocolIsThePipeline:
    def test_hand_built_grid_matches_the_run_bit_for_bit(self, monkeypatch):
        # Rebinding the two names records what the one run passes: with ``resample`` off
        # the point run is the only run, made here whatever the worker count.
        anchors, assembled = [], []
        anchor_fn, assemble_fn = experiments.generate_anchor, experiments.assemble_collaborative

        def recording_anchor(*args):
            anchors.append(anchor_fn(*args))
            return anchors[-1]

        def recording_assemble(intermediates, maps):
            assembled.append((intermediates, maps, assemble_fn(intermediates, maps)))
            return assembled[-1][2]

        monkeypatch.setattr(experiments, "generate_anchor", recording_anchor)
        monkeypatch.setattr(experiments, "assemble_collaborative", recording_assemble)
        data, _ = generate_artificial(ArtificialDataConfig(subjects=400, seed=8))
        spec = PartitionSpec((200, 200), (3, 3))
        config = ScenarioConfig(partition=spec, scope=CollaborationScope.build("whole", spec),
                                analysis="dcqe", estimator="IPW", intermediate_dim=2,
                                collaborative_dim=6, bootstrap_replicates=2, resample=False)
        run_scenario(data, config)
        assert len(anchors) == len(assembled) == 1
        (factor,), ((run_grid, run_maps, run_collab),) = anchors, assembled
        assert factor.shape == (7, 7)

        ranges = anchor_ranges(np.column_stack([data.covariates.min(0), data.covariates.max(0)]))
        grid = [[make_intermediate(block, *party_share(factor, ranges, spec.col_slice(l)), 2)
                 for l, block in enumerate(row)] for row in partition(data, spec)]
        maps = fit_integration(grid, 6)
        assert [len(row) for row in run_grid] == [2, 2]
        for run_row, row in zip(run_grid, grid):
            for run_pair, pair in zip(run_row, row):
                assert all(np.array_equal(a, b) for a, b in zip(run_pair, pair))
        assert len(run_maps) == len(maps) == 2
        assert all(np.array_equal(a, b) for a, b in zip(run_maps, maps))
        collab = assemble_fn(grid, maps)
        assert collab.shape == (400, 6)
        assert np.array_equal(run_collab, collab)


@pytest.fixture(scope="module")
def results():
    return run_experiment_one(0, bootstrap_replicates=40)


class TestExperimentOne:
    def test_table_structure(self, results):
        assert len(results) == 10
        labels = [(r.estimator, r.collaboration) for r in results]
        assert labels == [
            ("PSM", "IA"), ("DC-QE(PSM)", "L-clb"), ("DC-QE(PSM)", "T-clb"),
            ("DC-QE(PSM)", "W-clb"), ("PSM", "CA"),
            ("IPW", "IA"), ("DC-QE(IPW)", "L-clb"), ("DC-QE(IPW)", "T-clb"),
            ("DC-QE(IPW)", "W-clb"), ("IPW", "CA"),
        ]
        assert all(r.config.estimand == "ATE" for r in results)

    def test_requested_widths_are_the_scope_covariate_counts(self, results):
        requested = {r.collaboration: r.config.collaborative_dim for r in results}
        assert requested == {"IA": None, "L-clb": 3, "T-clb": 6, "W-clb": 6, "CA": None}

    def test_collaborative_widths(self, results):
        by_label = {(r.estimator, r.collaboration): r for r in results}
        assert by_label[("DC-QE(PSM)", "L-clb")].collaborative_dim == 3
        # The top-side request of 6 clamps to the combined width of 4.
        assert by_label[("DC-QE(PSM)", "T-clb")].collaborative_dim == 4
        assert by_label[("DC-QE(PSM)", "W-clb")].collaborative_dim == 6

    def test_centralized_rows_have_zero_self_inconsistency(self, results):
        for r in results:
            if r.collaboration == "CA":
                assert r.inconsistency_ca.mean == 0.0
                assert r.inconsistency_ca.se == 0.0

    def test_collaboration_beats_individual_analysis(self, results):
        by_label = {(r.estimator, r.collaboration): r for r in results}
        assert by_label[("DC-QE(PSM)", "W-clb")].gap < by_label[("PSM", "IA")].gap
        assert by_label[("DC-QE(IPW)", "W-clb")].gap < by_label[("IPW", "IA")].gap

    def test_reference_rows_near_published_values(self, results):
        # Windows are a few bootstrap standard errors wide around the
        # published point values; the data seed is fixed.
        by_label = {(r.estimator, r.collaboration): r for r in results}
        assert by_label[("IPW", "CA")].estimate_mean == pytest.approx(0.982, abs=0.33)
        assert by_label[("PSM", "CA")].inconsistency_true.mean == pytest.approx(0.046, abs=0.035)
        assert by_label[("IPW", "CA")].masmd.mean == pytest.approx(0.0314, abs=0.045)
        assert by_label[("PSM", "IA")].inconsistency_true.mean == pytest.approx(0.0747, abs=0.03)


def write_benchmark_fixture(path, n=600, seed=0):
    """Synthetic stand-in shaped like the job-training benchmark file."""
    rng = np.random.default_rng(seed)
    treated = rng.random(n) < 0.12
    age = rng.integers(17, 56, n)
    education = rng.integers(4, 17, n)
    married = (rng.random(n) < 0.6).astype(int)
    nodegree = (education < 12).astype(int)
    black = (rng.random(n) < 0.3).astype(int)
    hispanic = ((rng.random(n) < 0.1) & (black == 0)).astype(int)
    re74 = np.where(rng.random(n) < 0.25, 0.0, rng.gamma(2.0, 7000.0, n))
    re75 = np.where(rng.random(n) < 0.25, 0.0, 0.7 * re74 + rng.gamma(1.5, 3000.0, n))
    re78 = 0.6 * re75 + rng.gamma(1.5, 4000.0, n) + treated * 1500.0
    header = ["treatment", "age", "education", "married", "nodegree",
              "black", "hispanic", "re74", "re75", "re78"]
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for i in range(n):
            writer.writerow([
                int(treated[i]), age[i], education[i], married[i], nodegree[i],
                black[i], hispanic[i],
                f"{re74[i]:.2f}", f"{re75[i]:.2f}", f"{re78[i]:.2f}",
            ])
    return path


class TestExperimentTwo:
    def test_structure_on_synthetic_fixture(self, tmp_path):
        fixture = write_benchmark_fixture(tmp_path / "benchmark.csv")
        results = run_experiment_two(fixture, seed=0, bootstrap_replicates=4)
        assert len(results) == 14
        labels = [r.collaboration for r in results]
        assert labels[:7] == ["L-IA", "R-IA", "L-clb", "R-clb", "T-clb", "W-clb", "CA"]
        assert labels[7:] == labels[:7]
        assert all(r.config.estimand == "ATT" for r in results)
        assert all(r.inconsistency_true is None for r in results)
        # 600 rows trim to two blocks of 300.
        whole = [r for r in results if r.collaboration == "W-clb"][0]
        assert whole.subject_count == 600
        individual = [r for r in results if r.collaboration == "L-IA"][0]
        assert individual.subject_count == 300
        assert all(np.isfinite(r.estimate_mean) for r in results)

    def test_seed_stream_and_dimensions(self, tmp_path):
        fixture = write_benchmark_fixture(tmp_path / "benchmark.csv")
        results = run_experiment_two(fixture, seed=0, bootstrap_replicates=2)
        assert len(results) == 14
        for i, result in enumerate(results):
            assert result.config.master_seed == derive_seed(0, 303, i)
            dcqe = result.config.analysis == "dcqe"
            assert result.config.intermediate_dim == (3 if dcqe else None)
            assert result.config.anchor_size == (600 if dcqe else None)
        requested = {r.collaboration: r.config.collaborative_dim for r in results}
        assert requested == {"L-IA": None, "R-IA": None, "L-clb": 4, "R-clb": 4, "T-clb": 8,
                             "W-clb": 8, "CA": None}

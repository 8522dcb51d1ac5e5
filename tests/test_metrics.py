import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from dcqe.errors import InvalidDataError
from dcqe.metrics import gap, inconsistency, smd

unit_floats = st.floats(0.01, 0.99, allow_nan=False, allow_infinity=False)


def score_vectors(length):
    return hnp.arrays(np.float64, length, elements=unit_floats)


class TestGap:
    def test_all_estimates_equal_benchmark(self):
        assert gap(np.array([1.5, 1.5, 1.5]), 1.5) == 0.0

    def test_single_estimate(self):
        assert gap(np.array([2.0]), 1.0) == 1.0

    def test_symmetric_pair(self):
        assert gap(np.array([0.0, 2.0]), 1.0) == 1.0

    def test_rejects_empty_or_non_finite_estimates(self):
        with pytest.raises(InvalidDataError, match="at least one estimate"):
            gap(np.array([]), 1.0)
        with pytest.raises(InvalidDataError, match="estimates contains non-finite entries"):
            gap(np.array([1.0, np.inf]), 1.0)

    @settings(max_examples=50, deadline=None)
    @given(score_vectors(12), st.floats(-5, 5, allow_nan=False))
    def test_dominates_absolute_bias(self, estimates, benchmark):
        value = gap(estimates, benchmark)
        assert value >= abs(float(estimates.mean()) - benchmark) - 1e-12


class TestInconsistency:
    def test_identical_vectors(self):
        scores = np.array([0.25, 0.5, 0.75])
        assert inconsistency(scores, scores.copy()) == 0.0

    def test_quarter_shift_is_exact(self):
        assert inconsistency([0.25, 0.75], [0.5, 0.5]) == 0.25

    def test_decimal_example(self):
        # 0.2 and 0.6-0.4 differ in their binary representations, so the
        # comparison is at the resolution float64 allows.
        assert inconsistency([0.2, 0.8], [0.4, 0.6]) == pytest.approx(0.2, abs=1e-15)

    def test_length_mismatch(self):
        message = "score vectors differ in length: 2 vs 1"
        with pytest.raises(InvalidDataError, match=f"^{re.escape(message)}$"):
            inconsistency([0.2, 0.8], [0.4])

    @settings(max_examples=50, deadline=None)
    @given(score_vectors(10), score_vectors(10), score_vectors(10))
    def test_metric_axioms(self, a, b, c):
        assert inconsistency(a, b) == inconsistency(b, a)
        assert inconsistency(a, a) == 0.0
        if not np.array_equal(a, b):
            assert inconsistency(a, b) > 0.0
        assert inconsistency(a, c) <= inconsistency(a, b) + inconsistency(b, c) + 1e-12


def grouped_covariates(seed=0, n=100, m=4):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, m)) * rng.uniform(0.5, 3.0, m) + rng.normal(size=m)
    z = np.zeros(n, dtype=int)
    z[: n // 3] = 1
    rng.shuffle(z)
    return x, z


class TestSmd:
    def test_identical_group_distributions(self):
        block = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 0.0]])
        x = np.vstack([block, block])
        z = np.array([1, 1, 1, 0, 0, 0])
        np.testing.assert_array_equal(smd(x, z), 0.0)

    def test_seeded_instance_matches_loop_oracle(self):
        x, z = grouped_covariates(seed=31)
        np.testing.assert_allclose(smd(x, z), oracles.smd_formula(x, z), atol=1e-12)

    def test_weighted_matches_loop_oracle(self):
        x, z = grouped_covariates(seed=32)
        rng = np.random.default_rng(5)
        w = rng.uniform(0.5, 4.0, x.shape[0])
        expected = oracles.smd_formula(x, z, weights=w)
        np.testing.assert_allclose(smd(x, z, weights=w), expected, atol=1e-12)

    def test_unit_weights_reduce_to_unweighted(self):
        x, z = grouped_covariates(seed=33)
        unweighted = smd(x, z)
        weighted = smd(x, z, weights=np.ones(x.shape[0]))
        np.testing.assert_allclose(weighted, unweighted, atol=1e-10)

    def test_constant_equal_weights_reduce_to_unweighted(self):
        x, z = grouped_covariates(seed=34)
        unweighted = smd(x, z)
        weighted = smd(x, z, weights=np.full(x.shape[0], 2.5))
        np.testing.assert_allclose(weighted, unweighted, atol=1e-10)

    def test_zero_variance_equal_means_gives_zero(self):
        x = np.column_stack([np.full(8, 3.0), np.arange(8.0)])
        z = np.array([1, 1, 1, 1, 0, 0, 0, 0])
        assert smd(x, z)[0] == 0.0

    def test_zero_variance_unequal_means_raises(self):
        x = np.column_stack([np.repeat([1.0, 0.0], 4), np.arange(8.0)])
        z = np.array([1, 1, 1, 1, 0, 0, 0, 0])
        message = "covariate 0 has zero variance but unequal group means"
        with pytest.raises(InvalidDataError, match=f"^{re.escape(message)}$"):
            smd(x, z)

    def test_affine_rescaling_invariance(self):
        x, z = grouped_covariates(seed=35)
        base = smd(x, z)
        for a, b in ((2.0, 0.0), (-1.5, 3.0), (0.001, -9.0), (250.0, 4.2)):
            transformed = smd(a * x + b, z)
            np.testing.assert_allclose(transformed, np.sign(a) * base, atol=1e-10)

    @pytest.mark.parametrize("column", ["means", "variances"])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_overflowing_covariate_named_without_warning(self, column, weighted):
        x, z = grouped_covariates(seed=37, n=30)
        x[:, 2] = np.where(z == 1, 1e308, -1e308) if column == "means" else \
            np.tile([1e308, -1e308, 0.0], 10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidDataError,
                               match="covariate 2: its group means or variances overflow"):
                smd(x, z, weights=np.full(30, 2.0) if weighted else None)

    def test_requires_both_groups(self):
        with pytest.raises(InvalidDataError):
            smd(np.ones((4, 2)), [1, 1, 1, 1])

    def test_rejects_non_positive_weights(self):
        x, z = grouped_covariates(seed=36, n=12)
        with pytest.raises(InvalidDataError):
            smd(x, z, weights=np.zeros(12))


class TestRejectionMessages:
    @pytest.mark.parametrize("treatments", [[1, 0, 0, 0, 0], [0, 1, 1, 1, 1]],
                             ids=["one-treated", "one-control"])
    def test_weighted_smd_with_a_one_subject_group(self, treatments):
        x = np.random.default_rng(0).normal(size=(5, 2))
        with pytest.raises(InvalidDataError,
                           match="^weighted balance needs effective group size above one$"):
            smd(x, treatments, weights=np.ones(5))

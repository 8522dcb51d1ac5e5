import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from dcqe.causal import PROPENSITY_CLIP, estimate_propensity
from dcqe.collaboration import make_intermediate
from dcqe.errors import InvalidDataError
from dcqe.metrics import smd
from dcqe.numerics import (
    LOGISTIC_RIDGE,
    LOGISTIC_TOL,
    ensure_binary_labels,
    ensure_matrix,
    logistic_fit,
    pca_fit,
    pseudoinverse,
    sigmoid,
    svd_truncated,
)

finite_elements = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


def random_matrices(max_rows=20, max_cols=20):
    return st.tuples(st.integers(1, max_rows), st.integers(1, max_cols)).flatmap(
        lambda shape: hnp.arrays(np.float64, shape, elements=finite_elements)
    )


def reduce_party(data, target_dim, anchor_block=None):
    """``make_intermediate`` of one party holding ``data``, with ``data`` as its anchor block.

    The anchor block goes in uncompressed: its factor is ``[1, anchor_block]``
    and every column's range is (0, 1), so the anchor image is its own.
    """
    anchor_block = data if anchor_block is None else anchor_block
    factor = np.column_stack([np.ones(anchor_block.shape[0]), anchor_block])
    return make_intermediate(data, factor, np.tile([0.0, 1.0], (data.shape[1], 1)), target_dim)


def jacobi_variances(data, count):
    """The ``count`` largest eigenvalues of the standardized data's sample covariance."""
    scaled = standardized(data)
    return oracles.jacobi_eigenvalues(scaled.T @ scaled / (data.shape[0] - 1))[:count]


def standardized(data):
    """Columns centered and divided by their sample SD, from the loop oracle."""
    means, sds = oracles.column_stats(data)
    return (data - np.array(means)) / np.array(sds)


class TestStandardize:
    """``pca_fit`` standardizes with column means and sample SDs before the SVD."""

    def test_two_point_sample(self):
        model = pca_fit([[1.0], [3.0]], 1)
        assert model.means[0] == 2.0
        assert model.stddevs[0] == math.sqrt(2.0)

    def test_constant_column_uses_unit_divisor(self):
        model = pca_fit([[5.0, 1.0], [5.0, 2.0], [5.0, 4.0]], 1)
        assert model.means[0] == 5.0
        assert model.stddevs[0] == 1.0

    def test_constant_party_column_gives_finite_zero_free_reduction(self):
        rng = np.random.default_rng(6)
        data = np.column_stack([np.full(30, 5.0), rng.normal(size=(30, 2))])
        data_image, _ = reduce_party(data, 2)
        assert np.all(np.isfinite(data_image))
        # The constant column standardizes to zeros and moves nothing.
        moved = data.copy()
        moved[:, 0] = -3.0
        np.testing.assert_allclose(reduce_party(moved, 2)[0], data_image, atol=1e-12)

    def test_matches_column_stat_oracle(self):
        rng = np.random.default_rng(42)
        data = rng.normal(3.0, 2.5, size=(4, 2))
        model = pca_fit(data, 1)
        means, sds = oracles.column_stats(data)
        np.testing.assert_allclose(model.means, means, rtol=0, atol=1e-12)
        np.testing.assert_allclose(model.stddevs, sds, rtol=0, atol=1e-12)

    def test_fit_data_is_centered_and_scaled(self):
        rng = np.random.default_rng(7)
        data = rng.normal(size=(60, 5)) * [1, 2, 3, 4, 5]
        model = pca_fit(data, 4)
        out = (data - model.means) / model.stddevs
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-8)
        np.testing.assert_allclose(out.std(axis=0, ddof=1), 1.0, atol=1e-8)
        # The party's reduced data keeps zero mean and the explained variances.
        data_image, _ = reduce_party(data, 4)
        np.testing.assert_allclose(data_image.mean(axis=0), 0.0, atol=1e-8)
        np.testing.assert_allclose(data_image.var(axis=0, ddof=1), jacobi_variances(data, 4),
                                   atol=1e-8)

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidDataError):
            pca_fit([[1.0, np.nan], [2.0, 3.0]], 1)

    @pytest.mark.parametrize("cells", [
        pytest.param([1e308, 1e308], id="mean-overflows"),
        pytest.param([1e308, -1e308], id="sd-overflows"),
    ])
    def test_overflowing_column_named_without_warning(self, cells):
        data = np.random.default_rng(8).normal(size=(40, 3))
        data[:2, 2] = cells
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidDataError,
                               match="data column 2: its mean or standard deviation overflows"):
                pca_fit(data, 2)


class TestPca:
    def test_rank_one_data_captures_all_variance(self):
        rng = np.random.default_rng(0)
        base = rng.normal(size=40)
        data = np.column_stack([base, 3.0 * base + 1.0])
        data_image, _ = reduce_party(data, 1)
        # Standardized rank-1 data has total variance 2, all on one direction.
        assert data_image[:, 0].var(ddof=1) == pytest.approx(2.0, abs=1e-8)

    def test_reduction_drops_only_the_last_direction(self):
        rng = np.random.default_rng(1)
        data = rng.normal(size=(50, 4))
        full = pca_fit(data, 4)
        data_image, _ = reduce_party(data, 3)
        residual = standardized(data) - data_image @ full.components[:, :3].T
        # What the reduction loses is the data's share along the fourth component.
        np.testing.assert_allclose(residual, np.outer(residual @ full.components[:, 3],
                                                      full.components[:, 3]), atol=1e-8)
        lost = np.sum(residual ** 2) / (data.shape[0] - 1)
        assert lost == pytest.approx(jacobi_variances(data, 4)[3], abs=1e-8)

    def test_explained_variance_matches_jacobi_oracle(self):
        rng = np.random.default_rng(5)
        data = rng.normal(size=(50, 6)) @ rng.normal(size=(6, 6))
        data_image, _ = reduce_party(data, 4)
        np.testing.assert_allclose(data_image.var(axis=0, ddof=1), jacobi_variances(data, 4),
                                   atol=1e-6)

    def test_components_orthonormal_and_variance_sorted(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            data = rng.normal(size=(30, 5)) * rng.uniform(0.5, 4.0, 5)
            model = pca_fit(data, 5)
            gram = model.components.T @ model.components
            np.testing.assert_allclose(gram, np.eye(5), atol=1e-8)
            variances = reduce_party(data, 4)[0].var(axis=0, ddof=1)
            assert np.all(np.diff(variances) <= 1e-12)
            assert np.all(variances >= 0)

    def test_sign_convention(self):
        rng = np.random.default_rng(9)
        model = pca_fit(rng.normal(size=(25, 4)), 4)
        lead = np.argmax(np.abs(model.components), axis=0)
        assert np.all(model.components[lead, np.arange(4)] >= 0)

    def test_reduction_never_lengthens_distances(self):
        rng = np.random.default_rng(3)
        data = rng.normal(size=(20, 4))
        scaled = standardized(data)
        projected, _ = reduce_party(data, 3)
        for i in range(0, 20, 5):
            for j in range(1, 20, 7):
                original = np.linalg.norm(scaled[i] - scaled[j])
                mapped = np.linalg.norm(projected[i] - projected[j])
                assert mapped <= original + 1e-8

    def test_row_of_column_means_maps_to_zero(self):
        rng = np.random.default_rng(4)
        data = rng.normal(size=(30, 3))
        _, anchor_image = reduce_party(data, 2, data.mean(axis=0, keepdims=True))
        np.testing.assert_allclose(anchor_image, 0.0, atol=1e-10)

    def test_anchor_projection_matches_loop_oracle(self):
        rng = np.random.default_rng(11)
        data = rng.normal(size=(12, 3))
        model = pca_fit(data, 2)
        means, sds = oracles.column_stats(data)
        fresh = rng.normal(size=(5, 3))
        expected = np.empty((5, 2))
        for i in range(5):
            row = [(fresh[i, t] - means[t]) / sds[t] for t in range(3)]
            for j in range(2):
                expected[i, j] = sum(row[t] * model.components[t, j] for t in range(3))
        np.testing.assert_allclose(reduce_party(data, 2, fresh)[1], expected, atol=1e-12)

    def test_target_dim_out_of_range(self):
        data = np.eye(3)
        for target_dim in (0, 4):
            message = f"target_dim must be in [1, 3], got {target_dim}"
            with pytest.raises(InvalidDataError, match=f"^{re.escape(message)}$"):
                pca_fit(data, target_dim)


class TestTruncatedSvd:
    def test_diagonal_matrix(self):
        result = svd_truncated(np.diag([3.0, 2.0, 1.0]), 2)
        np.testing.assert_allclose(result.sigma, [3.0, 2.0])

    def test_identity(self):
        result = svd_truncated(np.eye(3), 3)
        np.testing.assert_allclose(result.sigma, [1.0, 1.0, 1.0])

    def test_reconstruction_error_equals_tail_from_jacobi_oracle(self):
        rng = np.random.default_rng(8)
        data = rng.normal(size=(8, 5))
        result = svd_truncated(data, 3)
        error = np.linalg.norm(data - result.reconstruct())
        all_singular = oracles.jacobi_singular_values(data)
        expected = math.sqrt(all_singular[3] ** 2 + all_singular[4] ** 2)
        assert error == pytest.approx(expected, abs=1e-6)

    @settings(max_examples=40, deadline=None)
    @given(random_matrices(12, 12))
    def test_full_rank_reconstructs_input(self, data):
        result = svd_truncated(data, min(data.shape))
        np.testing.assert_allclose(result.reconstruct(), data, atol=1e-8)

    def test_factors_orthonormal(self):
        rng = np.random.default_rng(10)
        data = rng.normal(size=(9, 6))
        result = svd_truncated(data, 4)
        np.testing.assert_allclose(result.u.T @ result.u, np.eye(4), atol=1e-8)
        np.testing.assert_allclose(result.v.T @ result.v, np.eye(4), atol=1e-8)

    def test_zero_singular_values_are_dropped(self):
        rng = np.random.default_rng(2)
        column = rng.normal(size=(6, 1))
        data = column @ rng.normal(size=(1, 4))  # rank one
        result = svd_truncated(data, 3)
        assert result.rank == 1
        np.testing.assert_allclose(result.reconstruct(), data, atol=1e-10)

    def test_rank_out_of_range(self):
        for rank in (0, 4):
            message = f"rank must be in [1, 3], got {rank}"
            with pytest.raises(InvalidDataError, match=f"^{re.escape(message)}$"):
                svd_truncated(np.eye(3), rank)


class TestPseudoinverse:
    def test_identity(self):
        np.testing.assert_allclose(pseudoinverse(np.eye(4)), np.eye(4), atol=1e-12)

    def test_diagonal_with_zero_keeps_zero(self):
        result = pseudoinverse(np.diag([2.0, 0.0]))
        np.testing.assert_allclose(result, np.diag([0.5, 0.0]), atol=1e-12)

    def test_penrose_conditions_on_seeded_matrix(self):
        rng = np.random.default_rng(14)
        a = rng.normal(size=(4, 3))
        plus = pseudoinverse(a)
        np.testing.assert_allclose(a @ plus @ a, a, atol=1e-8)
        np.testing.assert_allclose(plus @ a @ plus, plus, atol=1e-8)
        np.testing.assert_allclose((a @ plus).T, a @ plus, atol=1e-8)
        np.testing.assert_allclose((plus @ a).T, plus @ a, atol=1e-8)

    @settings(max_examples=60, deadline=None)
    @given(random_matrices(20, 20))
    def test_penrose_conditions_property(self, a):
        # Tolerances on the first two conditions scale with the factor they
        # reproduce, otherwise matrices of uniformly tiny magnitude make the
        # absolute comparison meaningless. The projector conditions are
        # checked absolutely (projections have unit scale). Rounding grows
        # with the retained condition number, so adversarially ill-conditioned
        # inputs (far outside anything a random draw produces) are skipped.
        singular = np.linalg.svd(a, compute_uv=False)
        if singular[0] > 0:
            kept = singular[singular > 1e-12 * singular[0]]
            assume(singular[0] / kept[-1] < 1e7)
        plus = pseudoinverse(a)
        scale_a = 1e-8 * max(1.0, float(np.abs(a).max()))
        scale_plus = 1e-8 * max(1.0, float(np.abs(plus).max()))
        np.testing.assert_allclose(a @ plus @ a, a, atol=scale_a)
        np.testing.assert_allclose(plus @ a @ plus, plus, atol=scale_plus)
        np.testing.assert_allclose((a @ plus).T, a @ plus, atol=1e-8)
        np.testing.assert_allclose((plus @ a).T, plus @ a, atol=1e-8)


def seeded_logistic_data(seed=21, n=200, m=3):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, m))
    logits = 0.4 + x @ np.array([1.0, -0.7, 0.3][:m])
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-logits))).astype(int)
    return x, y


class TestLogistic:
    @pytest.mark.parametrize("size", [1e154, 1e200, 1e306])
    def test_overflowing_features_raise_without_warning(self, size):
        # At 1e153 the same column still fits: its Hessian stays below the largest double.
        x = np.random.default_rng(9).normal(size=(40, 2))
        x[:, 1] = np.linspace(-size, size, 40)
        y = np.array([0, 1] * 20)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidDataError, match="the logistic fit overflows a double"):
                logistic_fit(x, y)
            x[:, 1] /= size / 1e153
            assert logistic_fit(x, y).converged

    def test_intercept_only_symmetric_case(self):
        x = np.zeros((10, 2))
        y = np.array([1, 0] * 5)
        model = logistic_fit(x, y)
        assert model.intercept == pytest.approx(0.0, abs=1e-6)
        np.testing.assert_allclose(model.coefficients, 0.0, atol=1e-6)

    def test_separable_data_stays_finite_and_monotone(self):
        x = np.linspace(-2, 2, 30).reshape(-1, 1)
        y = (x[:, 0] > 0).astype(int)
        model = logistic_fit(x, y)
        assert np.isfinite(model.intercept)
        assert np.all(np.isfinite(model.coefficients))
        probs = estimate_propensity(x, y)
        assert np.all(np.diff(probs) >= 0)

    def test_matches_gradient_ascent_oracle(self):
        x, y = seeded_logistic_data()
        model = logistic_fit(x, y)
        expected = oracles.gradient_ascent_logistic(x, y)
        np.testing.assert_allclose(
            np.concatenate([[model.intercept], model.coefficients]), expected, atol=1e-4
        )

    def test_single_class_raises(self):
        message = "labels contain a single class"
        with pytest.raises(InvalidDataError, match=f"^{re.escape(message)}$"):
            logistic_fit(np.ones((4, 1)), [1, 1, 1, 1])

    def test_loglik_trace_is_monotone(self):
        for seed in (21, 33, 77):
            x, y = seeded_logistic_data(seed=seed)
            model = logistic_fit(x, y)
            assert model.converged
            assert np.all(np.diff(model.loglik_trace) >= -1e-10)

    def test_predict_zero_parameters_gives_half(self):
        # Balanced labels on uninformative features: the fit stays at zero.
        scores = estimate_propensity(np.ones((6, 2)), [1, 0] * 3)
        assert np.all(scores == 0.5)

    def test_predict_saturates_at_the_propensity_clip(self):
        x = np.linspace(-2, 2, 30).reshape(-1, 1)
        probs = estimate_propensity(x, (x[:, 0] > 0).astype(int))
        assert probs.min() == PROPENSITY_CLIP[0]
        assert probs.max() == PROPENSITY_CLIP[1]

    def test_predict_matches_sigmoid_oracle(self):
        x, y = seeded_logistic_data(seed=31, n=40)
        model = logistic_fit(x, y)
        expected = [
            1.0 / (1.0 + math.exp(-(model.intercept
                                    + sum(x[i, j] * model.coefficients[j] for j in range(3)))))
            for i in range(40)
        ]
        np.testing.assert_allclose(estimate_propensity(x, y), expected, atol=1e-12)


def oracle_logistic_problem(n, m, seed, slope, tail):
    """Features with optional heavy tails and labels from a logistic model.

    Large slopes push the fit towards separation, where Newton steps
    overshoot and step halving and the iteration limit come into play.
    """
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, m))
    if tail:
        x[:, 0] = rng.standard_t(2.0, size=n)
    x *= rng.uniform(0.01, 100.0, size=m)
    logits = slope * (x / x.std(axis=0)) @ rng.normal(size=m) + rng.normal()
    y = (rng.random(n) < oracles.masked_sigmoid(logits)).astype(int)
    return x, y


def irls_problems(test):
    """Run ``test(x, y)`` on ``oracle_logistic_problem`` cases with both classes present."""
    # At n >= 8000 the log-likelihood's last bit exceeds the 1e-12 margin of
    # the step-halving test, so a last-ulp change there flips halving steps.
    @settings(max_examples=60, deadline=None)
    @given(st.integers(20, 400) | st.integers(8000, 32_000), st.integers(1, 6),
           st.integers(0, 2**32 - 1), st.sampled_from([0.1, 0.3, 1.0, 4.0, 30.0]),
           st.booleans())
    @example(n=27_853, m=4, seed=8, slope=0.1, tail=False)  # rounding-triggered halving
    @example(n=16_000, m=4, seed=0, slope=1.0, tail=False)
    @example(n=25, m=6, seed=5, slope=4.0, tail=True)  # separated: three halving steps
    @example(n=60, m=5, seed=40, slope=4.0, tail=True)  # hits LOGISTIC_MAX_ITER
    def run(self, n, m, seed, slope, tail):
        x, y = oracle_logistic_problem(n, m, seed, slope, tail)
        assume(0 < y.sum() < n)
        test(self, x, y)
    return run


def parameters(model):
    return np.concatenate([[model.intercept], model.coefficients])


class TestIrlsMatchesMaskedOracle:
    """``sigmoid`` gives the masked two-branch sigmoid bit for bit; the IRLS fit
    equals its verbatim softplus copy bit for bit and stays within a stated
    bound of the earlier ``logaddexp`` fit, and every converged fit is stationary."""

    def test_sigmoid_bitwise_at_extremes_and_nan(self):
        tiny = np.finfo(float).tiny
        special = np.array([
            0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324, tiny, -tiny, 1e-17, -1e-17,
            0.5, -0.5, 36.7, -36.7, 37.5, -37.5, 700.0, -700.0, 709.8, -709.8,
            745.2, -745.2, 1e308, -1e308, np.inf, -np.inf, np.nan, -np.nan,
        ])
        rng = np.random.default_rng(8)
        magnitudes = 10.0 ** rng.uniform(-320, 3, size=200_000)
        values = np.concatenate([special, magnitudes * rng.choice([-1.0, 1.0], size=200_000)])
        new, old = sigmoid(values), oracles.masked_sigmoid(values)
        assert new.dtype == old.dtype == np.float64
        # NaN maps to NaN (its sign bit may differ); every other value bit for bit.
        nan = np.isnan(old)
        assert np.array_equal(np.isnan(new), nan) and nan.sum() == 2
        assert np.array_equal(new[~nan].view(np.int64), old[~nan].view(np.int64))

    @irls_problems
    def test_fit_bitwise_equal(self, x, y):
        new, old = logistic_fit(x, y), oracles.softplus_logistic_fit(x, y)
        assert new.intercept == old.intercept
        assert np.array_equal(new.coefficients, old.coefficients)
        assert new.n_iter == old.n_iter
        assert new.converged == old.converged
        assert np.array_equal(new.loglik_trace, old.loglik_trace)

    # A converged fit stops within about LOGISTIC_TOL of the optimum, so two
    # fits of one problem differ by at most about twice that; the bound scales
    # with the largest parameter where it exceeds 1. Fits stopped at
    # LOGISTIC_MAX_ITER follow the same Newton path. Measured on 700 cases:
    # at most 1.6e-9 when converged, 1.4e-15 relative at the iteration limit.
    @irls_problems
    def test_fit_near_logaddexp_oracle(self, x, y):
        new, old = parameters(logistic_fit(x, y)), parameters(oracles.reference_logistic_fit(x, y))
        assert np.max(np.abs(new - old)) <= 2 * LOGISTIC_TOL * max(1.0, np.max(np.abs(old)))

    # The penalized gradient, evaluated without the package: each component
    # is far below the largest value it could take, sum_i |x_ij| (residuals
    # lie in [-1, 1]). Measured on 300 converged cases: at most 4.9e-10 of it.
    @irls_problems
    def test_converged_fit_is_stationary(self, x, y):
        model = logistic_fit(x, y)
        assume(model.converged)
        theta = parameters(model)
        design = np.hstack([np.ones((x.shape[0], 1)), x])
        penalty = np.r_[0.0, np.full(x.shape[1], LOGISTIC_RIDGE)]
        residual = y - oracles.masked_sigmoid(design @ theta)
        gradient = design.T @ residual - penalty * theta
        assert np.all(np.abs(gradient) <= 1e-6 * np.abs(design).sum(axis=0))


class TestDeterminism:
    def test_identical_inputs_give_bit_identical_outputs(self):
        rng = np.random.default_rng(100)
        data = rng.normal(size=(40, 6))
        first = pca_fit(data, 3)
        second = pca_fit(data.copy(), 3)
        assert np.array_equal(first.components, second.components)
        assert np.array_equal(first.stddevs, second.stddevs)

        s1 = svd_truncated(data, 4)
        s2 = svd_truncated(data.copy(), 4)
        assert np.array_equal(s1.u, s2.u)
        assert np.array_equal(s1.sigma, s2.sigma)
        assert np.array_equal(s1.v, s2.v)

        x, y = seeded_logistic_data(seed=5)
        m1 = logistic_fit(x, y)
        m2 = logistic_fit(x.copy(), y.copy())
        assert m1.intercept == m2.intercept
        assert np.array_equal(m1.coefficients, m2.coefficients)


def layouts(values):
    """The same values C-ordered, F-ordered and as a column slice of a wider array."""
    wide = np.zeros((values.shape[0], values.shape[1] + 2))
    wide[:, 1:-1] = values
    return [np.ascontiguousarray(values), np.asfortranarray(values), wide[:, 1:-1]]


def bits(*arrays):
    return [np.asarray(a, dtype=float).tobytes() for a in arrays]


@pytest.mark.parametrize("seed", [0, 1, 2])
class TestLayoutIndependence:
    """The kernels reduce a variables-major copy, so the input's layout cannot move a bit."""

    def test_pca_fit(self, seed):
        data = np.random.default_rng(seed).normal(size=(1000, 4)) * [1.0, 10.0, 0.1, 3.0]
        fits = [pca_fit(view, 2) for view in layouts(data)]
        got = [bits(f.means, f.stddevs, f.components) for f in fits]
        assert got[1] == got[0] and got[2] == got[0]

    def test_logistic_fit(self, seed):
        x, y = seeded_logistic_data(seed=seed, n=2000)
        fits = [logistic_fit(view, y) for view in layouts(x)]
        got = [bits(f.intercept, f.coefficients, f.loglik_trace) for f in fits]
        assert got[1] == got[0] and got[2] == got[0]

    def test_smd(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(2000, 5)) + 100.0
        z = (rng.random(2000) < 0.4).astype(int)
        weights = rng.uniform(0.5, 4.0, 2000)
        for w in (None, weights):
            got = [bits(smd(view, z, weights=w)) for view in layouts(x)]
            assert got[1] == got[0] and got[2] == got[0]


class TestRejectionMessages:
    @pytest.mark.parametrize("call, message", [
        (lambda: ensure_matrix(np.zeros((0, 3))), "data must be non-empty, got shape (0, 3)"),
        (lambda: ensure_matrix(np.zeros((2, 0)), "x"), "x must be non-empty, got shape (2, 0)"),
        (lambda: ensure_binary_labels(np.zeros((2, 2))), "labels must be 1-dimensional"),
        (lambda: ensure_binary_labels(0, "z"), "z must be 1-dimensional"),
    ], ids=["no-rows", "no-columns", "2-d-labels", "0-d-labels"])
    def test_rejected_with_message(self, call, message):
        with pytest.raises(InvalidDataError, match=f"^{re.escape(message)}$"):
            call()

"""Row counts against repeated rows, for each kernel a bootstrap replicate weights.

A replicate runs on its distinct units, row ``i`` standing for ``counts[i]``
equal rows. Each weighted kernel must match the unweighted kernel on
``np.repeat(rows, counts)`` within ``BOUND``, relative to the larger of 1 and
the value's size, and with unit counts it must return the bits of the
unweighted formulas the package used before counts existed, written out
here (``previous_*``) or kept in ``oracles``.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles
from dcqe.causal import _ipw_estimate, estimate_psm, ipw_weights, match_pairs, matched_sample
from dcqe.errors import InvalidDataError
from dcqe.metrics import _smd, inconsistency, smd
from dcqe.numerics import _orient_columns, _pca, logistic_fit

BOUND = 1e-10


@st.composite
def counted_rows(draw, min_rows=8, max_rows=60, min_cols=2, max_cols=4):
    """Correlated rows, 0/1 labels with both classes twice, outcomes, and counts 1 to 4."""
    n = draw(st.integers(min_rows, max_rows))
    m = draw(st.integers(min_cols, max_cols))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((n, m)) @ rng.standard_normal((m, m))
    z = (rng.random(n) < 1.0 / (1.0 + np.exp(-x[:, 0] / 2))).astype(np.int64)
    assume(2 <= z.sum() <= n - 2)
    y = x.sum(axis=1) + z + rng.standard_normal(n)
    counts = np.array(draw(st.lists(st.integers(1, 4), min_size=n, max_size=n)), dtype=float)
    return x, z, y, counts


def repeated(counts, *arrays):
    """Each array with row ``i`` repeated ``counts[i]`` times."""
    reps = counts.astype(np.int64)
    return [np.repeat(a, reps, axis=0) for a in arrays]


def assert_close(actual, expected):
    actual, expected = np.asarray(actual, dtype=float), np.asarray(expected, dtype=float)
    gap = np.abs(actual - expected) / np.maximum(1.0, np.abs(expected))
    assert actual.shape == expected.shape and np.max(gap, initial=0.0) <= BOUND, np.max(gap)


def scores_of(x):
    """Propensity-like scores strictly inside (0, 1), distinct with probability one."""
    return 1.0 / (1.0 + np.exp(-(x[:, 0] - x[:, -1]) / 3))


def previous_pca(arr, target_dim):
    """``_pca``'s means, SDs and components before counts: numpy's own moments."""
    n, m = arr.shape
    cols = np.ascontiguousarray(arr.T)
    means, stddevs = cols.mean(axis=1), cols.std(axis=1, ddof=1)
    stddevs = np.where(stddevs < 1e-12, 1.0, stddevs)
    standardized = (cols - means[:, None]) / stddevs[:, None]
    factor = np.linalg.qr(standardized.T, mode="r") if n > m else standardized.T
    components = np.linalg.svd(factor, full_matrices=target_dim > min(n, m))[2][:target_dim].T
    components = components.copy()
    _orient_columns(components)
    return means, stddevs, components, standardized


def previous_moments(cols, weights=None):
    """``metrics._group_moments`` before counts."""
    if weights is None:
        return cols.mean(axis=1), cols.var(axis=1, ddof=1)
    total = weights.sum()
    denom = total * total - float((weights * weights).sum())
    mean = (cols * weights).sum(axis=1) / total
    return mean, total / denom * ((cols - mean[:, None]) ** 2 * weights).sum(axis=1)


class TestPca:
    @settings(max_examples=80, deadline=None)
    @given(counted_rows(min_cols=3))
    def test_counts_match_repeated_rows(self, case):
        x, _, _, counts = case
        dim = x.shape[1] - 1
        model, standardized = _pca(x.T.copy(), dim, counts=counts)
        expanded, expanded_standardized = _pca(repeated(counts, x)[0].T.copy(), dim)
        # Components are defined only up to a gap in the spectrum below them, and
        # their signs only where one entry leads in magnitude.
        sv = np.linalg.svd(expanded_standardized, compute_uv=False)
        assume(np.min(np.diff(-sv[:dim + 1])) > 1e-3 * sv[0])
        lead = -np.sort(-np.abs(expanded.components), axis=0)
        assume(np.all(lead[0] - lead[1] > 1e-6))
        assert_close(model.means, expanded.means)
        assert_close(model.stddevs, expanded.stddevs)
        assert_close(model.components, expanded.components)
        assert_close(np.repeat(standardized, counts.astype(np.int64), axis=1),
                     expanded_standardized)

    @settings(max_examples=40, deadline=None)
    @given(counted_rows(min_rows=2))
    def test_unit_counts_are_bitwise_the_plain_rows(self, case):
        x = case[0]
        model, standardized = _pca(x.T.copy(), 1, counts=np.ones(x.shape[0]))
        means, stddevs, components, previous = previous_pca(x, 1)
        for ours, theirs in [(model.means, means), (model.stddevs, stddevs),
                             (model.components, components), (standardized, previous)]:
            assert np.array_equal(ours, theirs)

    def test_row_count_rule_counts_the_repeated_rows(self):
        one_row = np.array([[1.0, 2.0, 3.0]])
        with pytest.raises(InvalidDataError, match="at least two rows"):
            _pca(one_row.T.copy(), 1)
        model, _ = _pca(one_row.T.copy(), 1, counts=[2.0])
        assert np.array_equal(model.means, one_row[0])

    def test_counts_of_the_wrong_length_are_rejected(self):
        with pytest.raises(InvalidDataError, match="counts must have length 3"):
            _pca(np.eye(3).T.copy(), 1, counts=[1.0, 2.0])


class TestLogistic:
    @settings(max_examples=60, deadline=None)
    @given(counted_rows(min_rows=30, max_rows=120))
    def test_counts_match_repeated_rows(self, case):
        x, z, _, counts = case
        ours, theirs = logistic_fit(x, z, counts), logistic_fit(*repeated(counts, x, z))
        assume(ours.converged and theirs.converged)
        assert_close(np.r_[ours.intercept, ours.coefficients],
                     np.r_[theirs.intercept, theirs.coefficients])

    @settings(max_examples=40, deadline=None)
    @given(counted_rows(min_rows=30, max_rows=120))
    def test_unit_counts_are_bitwise_the_plain_fit(self, case):
        x, z = case[:2]
        ours, theirs = logistic_fit(x, z, np.ones(x.shape[0])), oracles.softplus_logistic_fit(x, z)
        assert ours.intercept == theirs.intercept
        assert np.array_equal(ours.coefficients, theirs.coefficients)
        assert np.array_equal(ours.loglik_trace, theirs.loglik_trace)


class TestEffects:
    @settings(max_examples=80, deadline=None)
    @given(counted_rows(), st.sampled_from(["ATE", "ATT"]))
    def test_ipw_counts_match_repeated_rows(self, case, estimand):
        x, z, y, counts = case
        weights = ipw_weights(scores_of(x), z, estimand)
        expanded = repeated(counts, weights, z, y)
        assert_close(_ipw_estimate(weights, z, y, counts), _ipw_estimate(*expanded))

    @settings(max_examples=40, deadline=None)
    @given(counted_rows(), st.sampled_from(["ATE", "ATT"]))
    def test_ipw_unit_counts_are_bitwise_the_plain_sums(self, case, estimand):
        x, z, y, _ = case
        w = ipw_weights(scores_of(x), z, estimand)
        wt, wc = np.where(z == 1, w, 0.0), np.where(z == 1, 0.0, w)
        previous = float((wt * y).sum() / wt.sum() - (wc * y).sum() / wc.sum())
        assert _ipw_estimate(w, z, y, np.ones(z.shape[0])) == previous

    @settings(max_examples=80, deadline=None)
    @given(counted_rows(), st.sampled_from(["ATE", "ATT"]))
    def test_psm_counts_match_repeated_rows(self, case, estimand):
        x, z, y, counts = case
        scores = scores_of(x)
        ours = estimate_psm(match_pairs(scores, z), y, estimand, counts)
        e, zz, yy = repeated(counts, scores, z, y)
        assert_close(ours, estimate_psm(match_pairs(e, zz), yy, estimand))

    @settings(max_examples=40, deadline=None)
    @given(counted_rows(), st.sampled_from(["ATE", "ATT"]))
    def test_psm_unit_counts_are_bitwise_the_plain_means(self, case, estimand):
        x, z, y, _ = case
        matching = match_pairs(scores_of(x), z)
        t, c, pairs = matching.treated, matching.control, matching.pairs
        treated_diffs, control_diffs = y[t] - y[pairs[t]], y[pairs[c]] - y[c]
        previous = float(np.mean(treated_diffs)) if estimand == "ATT" else \
            float((treated_diffs.sum() + control_diffs.sum()) / z.shape[0])
        assert estimate_psm(matching, y, estimand, np.ones(z.shape[0])) == previous


class TestBalance:
    @settings(max_examples=80, deadline=None)
    @given(counted_rows(), st.sampled_from(["ATE", "ATT"]), st.booleans())
    def test_counts_match_repeated_rows(self, case, estimand, weighted):
        x, z, _, counts = case
        w = ipw_weights(scores_of(x), z, estimand) if weighted else None
        xx, zz = repeated(counts, x, z)
        ww = None if w is None else repeated(counts, w)[0]
        assert_close(smd(x, z, weights=w, counts=counts), smd(xx, zz, weights=ww))

    @settings(max_examples=80, deadline=None)
    @given(counted_rows(), st.sampled_from(["ATE", "ATT"]))
    def test_matched_sample_counts_match_repeated_rows(self, case, estimand):
        x, z, _, counts = case
        scores = scores_of(x)
        t_rows, c_rows, pair_counts = matched_sample(match_pairs(scores, z), estimand, counts)
        truth = np.ascontiguousarray(x.T)
        ours = _smd(truth[:, t_rows], truth[:, c_rows], pair_counts, pair_counts)
        xx, e, zz = repeated(counts, x, scores, z)
        t_all, c_all, ones = matched_sample(match_pairs(e, zz), estimand)
        wide = np.ascontiguousarray(xx.T)
        assert_close(ours, _smd(wide[:, t_all], wide[:, c_all], ones, ones))

    @settings(max_examples=40, deadline=None)
    @given(counted_rows(), st.sampled_from(["ATE", "ATT"]), st.booleans())
    def test_unit_counts_are_bitwise_the_plain_moments(self, case, estimand, weighted):
        x, z, _, _ = case
        w = ipw_weights(scores_of(x), z, estimand) if weighted else None
        cols = np.ascontiguousarray(x.T)
        groups = [cols.compress(z == 1, axis=1), cols.compress(z == 0, axis=1)]
        weights = [None, None] if w is None else [w[z == 1], w[z == 0]]
        (mean_t, var_t), (mean_c, var_c) = map(previous_moments, groups, weights)
        previous = (mean_t - mean_c) / np.sqrt((var_t + var_c) / 2.0)
        assert np.array_equal(smd(x, z, weights=w, counts=np.ones(z.shape[0])), previous)

    def test_group_size_rules_count_the_repeated_rows(self):
        x = np.array([[0.0], [1.0], [2.0], [3.0]])
        z = np.array([1, 0, 0, 1])
        counts = np.array([2.0, 1.0, 1.0, 1.0])
        # One treated unit counted twice against the same unit twice over.
        np.testing.assert_allclose(_smd(x[[0]].T, x[[1, 2]].T, counts[[0]], counts[[1, 2]]),
                                   _smd(x[[0, 0]].T, x[[1, 2]].T, np.ones(2), np.ones(2)))
        with pytest.raises(InvalidDataError, match="at least two subjects per group"):
            _smd(x[[0]].T, x[[1, 2]].T, np.ones(1), np.ones(2))
        assert smd(x, z, counts=counts).shape == (1,)


class TestInconsistency:
    @settings(max_examples=80, deadline=None)
    @given(counted_rows())
    def test_counts_match_repeated_rows(self, case):
        x, z, _, counts = case
        a, b = scores_of(x), 1.0 / (1.0 + np.exp(-x[:, 1]))
        assert_close(inconsistency(a, b, counts), inconsistency(*repeated(counts, a, b)))

    @settings(max_examples=40, deadline=None)
    @given(counted_rows())
    def test_unit_counts_are_bitwise_the_plain_rms(self, case):
        x, z, _, _ = case
        a, b = scores_of(x), 1.0 / (1.0 + np.exp(-x[:, 1]))
        previous = float(np.sqrt(np.mean((a - b) ** 2)))
        assert inconsistency(a, b, np.ones(a.shape[0])) == previous

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from dcqe.causal import (
    PROPENSITY_CLIP,
    estimate_ipw,
    estimate_propensity,
    estimate_psm,
    ipw_weights,
    match_pairs,
    matched_sample,
)
from dcqe.errors import InvalidDataError
from dcqe.experiments import ArtificialDataConfig, generate_artificial


def random_instance(rng, max_n=200, tie_grid=None):
    n = int(rng.integers(4, max_n + 1))
    z = np.zeros(n, dtype=int)
    z[: int(rng.integers(1, n))] = 1
    rng.shuffle(z)
    if z.sum() == 0:
        z[0] = 1
    if z.sum() == n:
        z[0] = 0
    scores = rng.random(n)
    if tie_grid:
        scores = np.round(scores * tie_grid) / tie_grid
    return scores, z


class TestPropensity:
    def test_uninformative_features_predict_base_rate(self):
        z = np.array([1, 1, 1, 0, 0, 0, 0, 0, 0, 0])
        scores = estimate_propensity(np.zeros((10, 3)), z)
        np.testing.assert_allclose(scores, 0.3, atol=1e-6)

    def test_matches_gradient_ascent_oracle(self):
        rng = np.random.default_rng(18)
        x = rng.normal(size=(200, 3))
        logits = -0.2 + x @ np.array([0.8, -0.4, 0.1])
        z = (rng.random(200) < 1.0 / (1.0 + np.exp(-logits))).astype(int)
        scores = estimate_propensity(x, z)
        theta = oracles.gradient_ascent_logistic(x, z)
        expected = 1.0 / (1.0 + np.exp(-(theta[0] + x @ theta[1:])))
        np.testing.assert_allclose(scores, np.clip(expected, 1e-6, 1 - 1e-6), atol=1e-4)

    def test_single_class_raises(self):
        message = "labels contain a single class"
        with pytest.raises(InvalidDataError, match=f"^{re.escape(message)}$"):
            estimate_propensity(np.ones((4, 2)), [1, 1, 1, 1])


class TestMatching:
    def test_three_subject_enumeration(self):
        scores = np.array([0.6, 0.5, 0.9])
        z = np.array([1, 0, 0])
        result = match_pairs(scores, z)
        assert result.pairs[0] == 1  # |0.6-0.5| < |0.6-0.9|
        assert result.pairs[1] == 0
        assert result.pairs[2] == 0

    def test_all_equal_scores_pick_smallest_index(self):
        scores = np.full(6, 0.5)
        z = np.array([1, 0, 1, 0, 1, 0])
        result = match_pairs(scores, z)
        assert result.pairs[0] == 1 and result.pairs[2] == 1 and result.pairs[4] == 1
        assert result.pairs[1] == 0 and result.pairs[3] == 0 and result.pairs[5] == 0

    def test_seeded_instance_equals_brute_force(self):
        rng = np.random.default_rng(50)
        scores, z = random_instance(rng, max_n=50, tie_grid=64)
        result = match_pairs(scores, z)
        np.testing.assert_array_equal(result.pairs, oracles.brute_force_pairs(scores, z))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000), st.booleans())
    def test_matches_brute_force_property(self, seed, with_ties):
        rng = np.random.default_rng(seed)
        scores, z = random_instance(rng, max_n=60, tie_grid=16 if with_ties else None)
        result = match_pairs(scores, z)
        np.testing.assert_array_equal(result.pairs, oracles.brute_force_pairs(scores, z))

    def test_dyadic_affine_maps_leave_matching_unchanged(self):
        # Power-of-two slopes and sixty-fourths keep every score exactly
        # representable, so even tied distances are preserved exactly.
        rng = np.random.default_rng(77)
        base = rng.integers(0, 65, size=40) / 64.0
        z = np.zeros(40, dtype=int)
        z[:17] = 1
        rng.shuffle(z)
        reference = match_pairs(base, z)
        for slope in (0.25, 0.5, 2.0, 8.0):
            for shift in (-2.0, 0.0, 1.5, 16.0):
                mapped = match_pairs(slope * base + shift, z)
                np.testing.assert_array_equal(mapped.pairs, reference.pairs)

    def test_well_separated_scores_survive_generic_affine_maps(self):
        scores = np.array([0.05, 0.2, 0.33, 0.51, 0.68, 0.9])
        z = np.array([1, 0, 1, 0, 1, 0])
        reference = match_pairs(scores, z)
        for slope, shift in ((0.3, 0.1), (1.7, -0.4), (3.14159, 2.71828)):
            mapped = match_pairs(slope * scores + shift, z)
            np.testing.assert_array_equal(mapped.pairs, reference.pairs)

    def test_large_instance_equals_blocked_scan(self):
        rng = np.random.default_rng(2)
        scores = rng.random(20_000)
        z = (rng.random(20_000) < 0.4).astype(int)
        result = match_pairs(scores, z)
        np.testing.assert_array_equal(result.pairs, oracles.blocked_nearest_pairs(scores, z))

    def test_mass_ties_at_clip_bounds_equal_blocked_scan(self):
        rng = np.random.default_rng(3)
        scores = rng.random(5_000)
        scores[rng.random(5_000) < 0.4] = PROPENSITY_CLIP[0]
        scores[rng.random(5_000) < 0.4] = PROPENSITY_CLIP[1]
        z = (rng.random(5_000) < 0.5).astype(int)
        result = match_pairs(scores, z)
        np.testing.assert_array_equal(result.pairs, oracles.blocked_nearest_pairs(scores, z))

    def test_rounding_collapse_picks_smallest_index(self):
        # 0.9 - c rounds to 0.9 for all three controls, so all gaps tie and
        # the first control wins although 3e-20 is the nearest value.
        scores = np.array([0.9, 2e-20, 1e-20, 3e-20])
        z = np.array([1, 0, 0, 0])
        result = match_pairs(scores, z)
        assert result.pairs[0] == 1
        np.testing.assert_array_equal(result.pairs, oracles.blocked_nearest_pairs(scores, z))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10_000))
    def test_mixed_magnitudes_match_blocked_scan_property(self, seed):
        # Treated subjects draw from tiny and large scores, controls from the
        # tiny ones only. The tiny scores share one magnitude from 1e-20 to
        # 1e-6; below about 1e-17 their computed gaps to a large score round
        # to the same value, which sends those queries down the fallback path.
        rng = np.random.default_rng(seed)
        tiny = 10.0 ** float(rng.integers(-20, -5)) * rng.integers(1, 10, size=4)
        pool = np.concatenate([tiny, rng.uniform(0.3, 1.0, size=4)])
        _, z = random_instance(rng, max_n=200)
        scores = np.where(z == 1, rng.choice(pool, z.shape[0]), rng.choice(tiny, z.shape[0]))
        result = match_pairs(scores, z)
        np.testing.assert_array_equal(result.pairs, oracles.blocked_nearest_pairs(scores, z))

    def test_needs_both_groups(self):
        message = "treatments contain a single class"
        with pytest.raises(InvalidDataError, match=f"^{re.escape(message)}$"):
            match_pairs(np.array([0.5, 0.6]), np.array([1, 1]))


class TestPsmEstimates:
    def test_single_pair(self):
        result = match_pairs(np.array([0.5, 0.5]), np.array([1, 0]))
        y = np.array([5.0, 3.0])
        assert estimate_psm(result, y, "ATT") == 2.0
        assert estimate_psm(result, y, "ATE") == 2.0

    def test_identical_outcomes_give_zero(self):
        rng = np.random.default_rng(1)
        scores, z = random_instance(rng, max_n=30)
        result = match_pairs(scores, z)
        y = np.full(z.shape[0], 4.2)
        assert estimate_psm(result, y, "ATE") == 0.0
        assert estimate_psm(result, y, "ATT") == 0.0

    def test_seeded_instance_matches_formula_oracle(self):
        rng = np.random.default_rng(60)
        scores, z = random_instance(rng, max_n=50)
        y = rng.normal(size=z.shape[0])
        result = match_pairs(scores, z)
        for estimand in ("ATE", "ATT"):
            expected = oracles.psm_formula(result.pairs, z, y, estimand)
            assert estimate_psm(result, y, estimand) == pytest.approx(expected, abs=1e-12)

    def test_exact_twins_recover_shift_exactly(self):
        # Every treated subject has a control twin at the same score whose
        # outcome differs by exactly 0.5, and scores across pairs differ.
        scores = np.repeat(np.linspace(0.1, 0.9, 8), 2)
        z = np.tile([1, 0], 8)
        y = np.where(z == 1, 1.5, 1.0)
        result = match_pairs(scores, z)
        assert estimate_psm(result, y, "ATE") == 0.5
        assert estimate_psm(result, y, "ATT") == 0.5

    def test_matched_sample_composition(self):
        scores = np.array([0.2, 0.8, 0.4, 0.6])
        z = np.array([1, 1, 0, 0])
        result = match_pairs(scores, z)
        t_att, c_att, n_att = matched_sample(result, "ATT")
        np.testing.assert_array_equal(t_att, [0, 1])
        np.testing.assert_array_equal(c_att, result.pairs[[0, 1]])
        np.testing.assert_array_equal(n_att, [1.0, 1.0])
        t_ate, c_ate, n_ate = matched_sample(result, "ATE")
        assert t_ate.shape[0] == 4 and c_ate.shape[0] == 4
        np.testing.assert_array_equal(t_ate[:2], [0, 1])
        np.testing.assert_array_equal(c_ate[2:], [2, 3])
        np.testing.assert_array_equal(n_ate, np.ones(4))
        # Each pair occurs as often as the subject that chose it.
        counts = np.array([2.0, 1.0, 3.0, 4.0])
        np.testing.assert_array_equal(matched_sample(result, "ATT", counts)[2], [2.0, 1.0])
        np.testing.assert_array_equal(matched_sample(result, "ATE", counts)[2], counts)


class TestIpwEstimates:
    def test_half_scores_reduce_to_difference_of_means(self):
        scores = np.array([0.5, 0.5])
        z = np.array([1, 0])
        y = np.array([3.0, 1.0])
        assert estimate_ipw(scores, z, y, "ATE") == 2.0

    def test_half_scores_reduce_exactly_on_larger_sample(self):
        # Integer outcomes keep every partial sum exact, so the reduction to
        # a difference of group means holds bitwise despite the different
        # summation orders of the two code paths.
        rng = np.random.default_rng(8)
        z = np.array([1] * 6 + [0] * 10)
        y = rng.integers(-50, 50, size=16).astype(float)
        value = estimate_ipw(np.full(16, 0.5), z, y, "ATE")
        assert value == float(y[z == 1].mean() - y[z == 0].mean())

    def test_constant_scores_reduce_within_rounding(self):
        rng = np.random.default_rng(9)
        z = np.array([1] * 5 + [0] * 7)
        y = rng.normal(size=12)
        value = estimate_ipw(np.full(12, 0.3), z, y, "ATE")
        assert value == pytest.approx(float(y[z == 1].mean() - y[z == 0].mean()), abs=1e-12)

    def test_four_subject_example_matches_rational_oracle(self):
        z = np.array([1, 1, 0, 0])
        y = np.array([2.0, 4.0, 1.0, 3.0])
        e = np.array([0.8, 0.4, 0.5, 0.2])
        for estimand in ("ATE", "ATT"):
            expected = oracles.ipw_formula(e, z, y, estimand)
            assert estimate_ipw(e, z, y, estimand) == pytest.approx(expected, abs=1e-12)

    def test_seeded_instance_matches_rational_oracle(self):
        rng = np.random.default_rng(70)
        scores, z = random_instance(rng, max_n=40)
        scores = np.clip(scores, 0.05, 0.95)
        y = rng.normal(size=z.shape[0])
        for estimand in ("ATE", "ATT"):
            expected = oracles.ipw_formula(scores, z, y, estimand)
            assert estimate_ipw(scores, z, y, estimand) == pytest.approx(expected, abs=1e-9)

    def test_weights_follow_estimand(self):
        scores = np.array([0.25, 0.2])
        z = np.array([1, 0])
        np.testing.assert_allclose(ipw_weights(scores, z, "ATE"), [4.0, 1.25])
        np.testing.assert_allclose(ipw_weights(scores, z, "ATT"), [1.0, 0.25])

    def test_true_scores_recover_unit_effect_at_scale(self):
        data, true_scores = generate_artificial(ArtificialDataConfig(subjects=20_000, seed=11))
        scores = np.clip(true_scores, 1e-6, 1 - 1e-6)
        point = estimate_ipw(scores, data.treatments, data.outcomes, "ATE")
        rng = np.random.default_rng(4040)
        replicates = []
        for _ in range(200):
            idx = rng.integers(0, 20_000, 20_000)
            replicates.append(
                estimate_ipw(scores[idx], data.treatments[idx],
                             data.outcomes[idx], "ATE")
            )
        stderr = np.std(replicates, ddof=1)
        assert abs(point - 1.0) < 4.0 * stderr


class TestOverflowingOutcomes:
    """Outcomes near the largest double overflow the estimators' sums: the value
    comes back as it is, without a warning, for ``run_scenario`` to reject."""

    SCORES = np.array([0.2, 0.8, 0.4, 0.6])
    Z = np.array([1, 1, 0, 0])

    @pytest.mark.parametrize("controls", [0.0, -1e308])
    def test_no_warning(self, controls):
        y = np.array([1e308, 1e308, controls, controls])
        matching = match_pairs(self.SCORES, self.Z)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = [estimate(estimand) for estimand in ("ATE", "ATT") for estimate in (
                lambda e: estimate_ipw(self.SCORES, self.Z, y, e),
                lambda e: estimate_psm(matching, y, e))]
        assert not np.any(np.isfinite(values))


class TestUnknownEstimand:
    """Every estimand-taking function names an estimand it does not know."""

    MATCHING = match_pairs(np.array([0.2, 0.4, 0.6, 0.8]), np.array([1, 0, 1, 0]))

    @pytest.mark.parametrize("call", [
        lambda m: estimate_psm(m, np.zeros(4), "ATC"),
        lambda m: ipw_weights(np.full(4, 0.5), np.array([1, 0, 1, 0]), "ATC"),
        lambda m: matched_sample(m, "ATC"),
    ], ids=["estimate_psm", "ipw_weights", "matched_sample"])
    def test_rejected_by_name(self, call):
        with pytest.raises(InvalidDataError, match="^unknown estimand 'ATC'$"):
            call(self.MATCHING)

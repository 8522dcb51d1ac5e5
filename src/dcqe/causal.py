"""Propensity-score estimation and treatment-effect estimators.

Propensity scores come from a ridge-stabilized logistic regression on either
raw covariates or collaborative representations, as a plain vector clipped
strictly inside (0, 1). Effects, plain floats, come from one-to-one
nearest-neighbor matching with replacement (PSM), which takes any finite
scores, or from self-normalized inverse-probability weighting (IPW), which
divides by them and so needs them strictly inside (0, 1). For the covariate
balance both weigh the subjects: IPW by its weights, PSM by how often each
subject occurs in the matched sample (``matched_sample``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidDataError
from .numerics import _counts, ensure_binary_labels, ensure_vector, logistic_fit, sigmoid

PROPENSITY_CLIP = (1e-6, 1.0 - 1e-6)
ESTIMANDS = ("ATE", "ATT")


def estimate_propensity(features, treatments, counts=None) -> np.ndarray:
    """Fit a logistic model with constant term and return the clipped probabilities.

    ``logistic_fit`` checks the features and treatments and weighs each row by its count.
    """
    model = logistic_fit(features, treatments, counts)
    probs = sigmoid(model.intercept + np.asarray(features, dtype=float) @ model.coefficients)
    return np.clip(probs, *PROPENSITY_CLIP)


@dataclass(frozen=True, eq=False)
class MatchingResult:
    """Nearest-neighbor match (with replacement) for every subject.

    ``pairs[i]`` is the opposite-group subject ``j`` with the smallest
    computed ``|e_i - e_j|``; among subjects whose computed gap is minimal,
    float rounding included, the smallest index wins. Matches may repeat.
    """

    pairs: np.ndarray
    treated: np.ndarray
    control: np.ndarray


def _nearest(queries: np.ndarray, candidates: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The candidate with the smallest computed ``|q - values[c]|`` per query.

    ``candidates`` are subject indices sorted by value; sorted queries search
    fastest. Among equal computed gaps the smallest index wins. The computed
    gap is monotone on each side of a query, so only the nearest distinct
    value below and above can win; a farther value can equal its gap only
    through rounding, and those queries fall back to a direct scan.
    """
    ordered = values[candidates]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    # The sort need not be stable: a value's smallest index may sit anywhere in its run.
    distinct, first = ordered[starts], np.minimum.reduceat(candidates, starts)
    last = distinct.shape[0] - 1
    pos = np.searchsorted(distinct, queries)
    lo, hi = np.maximum(pos - 1, 0), np.minimum(pos, last)
    gap_lo = np.abs(queries - distinct[lo])
    gap_hi = np.abs(queries - distinct[hi])
    take_lo = (gap_lo < gap_hi) | ((gap_lo == gap_hi) & (first[lo] < first[hi]))
    out = np.where(take_lo, first[lo], first[hi])
    gap = np.minimum(gap_lo, gap_hi)
    rounded = (lo > 0) & (np.abs(queries - distinct[np.maximum(lo - 1, 0)]) == gap)
    rounded |= (hi < last) & (np.abs(queries - distinct[np.minimum(hi + 1, last)]) == gap)
    for i in np.flatnonzero(rounded):
        gaps = np.abs(queries[i] - ordered)
        out[i] = candidates[gaps == gaps.min()].min()
    return out


def match_pairs(scores, treatments) -> MatchingResult:
    """Match every subject to its nearest opposite-group subject, with replacement.

    The winner is the smallest index among opposite-group subjects whose
    computed ``|e_i - e_j|`` is minimal, float rounding included. Each group
    is sorted once, as queries and as candidates: O(n log n) time, O(n) memory.
    Any finite 1-d scores will do.
    """
    values = ensure_vector(scores, "scores")
    z = ensure_binary_labels(treatments, "treatments", length=values.shape[0])
    treated, control = np.flatnonzero(z == 1), np.flatnonzero(z == 0)
    by_t, by_c = treated[np.argsort(values[treated])], control[np.argsort(values[control])]
    pairs = np.empty(values.shape[0], dtype=np.intp)
    pairs[by_t] = _nearest(values[by_t], by_c, values)
    pairs[by_c] = _nearest(values[by_c], by_t, values)
    return MatchingResult(pairs=pairs, treated=treated, control=control)


def estimate_psm(matching: MatchingResult, outcomes, estimand: str, counts=None) -> float:
    """Average matched outcome differences, in outcome units.

    ATT averages ``y_i - y_pair(i)`` over treated subjects. ATE additionally
    averages ``y_pair(i) - y_i`` over controls and divides by the full subject
    count, so multiply-matched subjects count once per occurrence. Subject
    ``i`` counts ``counts[i]`` times (once each by default).

    The bootstrap SE of this estimator, which matches with replacement, is
    known to be unreliable (Abadie & Imbens 2008, Econometrica). A value
    that overflows is returned without a warning.
    """
    if estimand not in ESTIMANDS:
        raise InvalidDataError(f"unknown estimand {estimand!r}")
    count = matching.pairs.shape[0]
    y = ensure_vector(outcomes, "outcomes", length=count)
    t, c, n = matching.treated, matching.control, _counts(counts, count)
    with np.errstate(over="ignore", invalid="ignore"):
        treated_diffs = n[t] * (y[t] - y[matching.pairs[t]])
        if estimand == "ATT":
            return float(treated_diffs.sum() / n[t].sum())
        control_diffs = n[c] * (y[matching.pairs[c]] - y[c])
        return float((treated_diffs.sum() + control_diffs.sum()) / n.sum())


def ipw_weights(scores, treatments, estimand: str) -> np.ndarray:
    """Inverse-probability weights for the given estimand.

    ATE weights are 1/e for treated and 1/(1-e) for controls; ATT weights are
    1 for treated and e/(1-e) for controls. Every score must lie strictly
    inside (0, 1).
    """
    if estimand not in ESTIMANDS:
        raise InvalidDataError(f"unknown estimand {estimand!r}")
    e = ensure_vector(scores, "scores")
    if np.any(e <= 0.0) or np.any(e >= 1.0):
        raise InvalidDataError("propensity scores must lie strictly inside (0, 1)")
    z = ensure_binary_labels(treatments, "treatments", length=e.shape[0])
    if estimand == "ATE":
        return np.where(z == 1, 1.0 / e, 1.0 / (1.0 - e))
    return np.where(z == 1, 1.0, e / (1.0 - e))


def estimate_ipw(scores, treatments, outcomes, estimand: str) -> float:
    """Self-normalized inverse-probability-weighted difference of outcome means.

    The weights are those of ``ipw_weights``; each group's weighted mean sums
    over all subjects, with zero weight on the other group. A value that
    overflows is returned without a warning.
    """
    weights = ipw_weights(scores, treatments, estimand)
    return _ipw_estimate(weights, treatments,
                         ensure_vector(outcomes, "outcomes", length=weights.shape[0]))


def _ipw_estimate(weights, treatments, outcomes, counts=None) -> float:
    """``estimate_ipw`` from ``ipw_weights``' weights, checked treatments and outcomes, counts."""
    treated = np.asarray(treatments) == 1
    weights = weights * _counts(counts, weights.shape[0])
    wt = np.where(treated, weights, 0.0)
    wc = np.where(treated, 0.0, weights)
    with np.errstate(over="ignore", invalid="ignore"):
        return float((wt * outcomes).sum() / wt.sum() - (wc * outcomes).sum() / wc.sum())


def matched_sample(matching: MatchingResult, estimand: str, counts=None) -> np.ndarray:
    """How often each subject occurs in the matched sample, one float per subject.

    Subject ``i`` counts ``counts[i]`` times (once each by default); K(i) sums
    the counts of the subjects that chose it as their match. For ATE subject
    ``i`` occurs ``counts[i] + K(i)`` times; for ATT a treated subject occurs
    ``counts[i]`` times and a control K(i) times, from treated choices only
    (the weights of matching with replacement, Abadie & Imbens 2006).
    """
    if estimand not in ESTIMANDS:
        raise InvalidDataError(f"unknown estimand {estimand!r}")
    pairs, t, n = matching.pairs, matching.treated, _counts(counts, matching.pairs.shape[0])
    if estimand == "ATE":
        return n + np.bincount(pairs, weights=n, minlength=n.shape[0])
    sample = np.bincount(pairs[t], weights=n[t], minlength=n.shape[0])
    sample[t] = n[t]
    return sample

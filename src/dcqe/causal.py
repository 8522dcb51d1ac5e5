"""Propensity-score estimation and treatment-effect estimators.

Propensity scores come from a ridge-stabilized logistic regression on either
raw covariates or collaborative representations. Effects are estimated by
one-to-one nearest-neighbor matching with replacement (PSM) or by
self-normalized inverse-probability weighting (IPW).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateLabelsError, DimensionError, InvalidDataError
from .numerics import ensure_matrix, ensure_vector, logistic_fit, logistic_predict

PROPENSITY_CLIP = (1e-6, 1.0 - 1e-6)
SCORE_SOURCES = ("true", "centralized", "individual", "dcqe")
ESTIMANDS = ("ATE", "ATT")


@dataclass(frozen=True, eq=False)
class PropensityScores:
    """Estimated treatment probabilities, clipped strictly inside (0, 1)."""

    values: np.ndarray
    source: str = "dcqe"

    def __post_init__(self):
        values = ensure_vector(self.values, "propensity scores")
        if np.any(values <= 0.0) or np.any(values >= 1.0):
            raise InvalidDataError("propensity scores must lie strictly inside (0, 1)")
        if self.source not in SCORE_SOURCES:
            raise InvalidDataError(f"unknown propensity source {self.source!r}")
        object.__setattr__(self, "values", values)


def estimate_propensity(features, treatments, source: str = "dcqe") -> PropensityScores:
    """Fit a logistic model with constant term and return clipped probabilities."""
    x = ensure_matrix(features, "features")
    model = logistic_fit(x, treatments)
    probs = logistic_predict(model, x)
    return PropensityScores(np.clip(probs, *PROPENSITY_CLIP), source)


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

    @property
    def subject_count(self) -> int:
        return self.pairs.shape[0]


def _score_values(scores) -> np.ndarray:
    if isinstance(scores, PropensityScores):
        return scores.values
    return ensure_vector(scores, "scores")


def _treatment_groups(treatments, length: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    z = np.asarray(treatments)
    if z.ndim != 1 or z.shape[0] != length:
        raise DimensionError("treatments must be a vector matching the score length")
    z = z.astype(np.int64)
    treated = np.flatnonzero(z == 1)
    control = np.flatnonzero(z == 0)
    if treated.size == 0 or control.size == 0:
        raise DegenerateLabelsError("matching needs at least one subject in each group")
    return z, treated, control


def _nearest(queries: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """Index of the candidate with the smallest computed ``|q - c|`` per query.

    Among equal computed gaps the smallest index wins. The computed gap is
    monotone on each side of a query, so only the nearest distinct value
    below and above can win; a farther value can equal its gap only through
    rounding, and those queries fall back to a direct scan.
    """
    order = np.argsort(candidates, kind="stable")
    ordered = candidates[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    values, first = ordered[starts], order[starts]  # smallest index per value
    last = values.shape[0] - 1
    pos = np.searchsorted(values, queries)
    lo, hi = np.maximum(pos - 1, 0), np.minimum(pos, last)
    gap_lo = np.abs(queries - values[lo])
    gap_hi = np.abs(queries - values[hi])
    take_lo = (gap_lo < gap_hi) | ((gap_lo == gap_hi) & (first[lo] < first[hi]))
    out = np.where(take_lo, first[lo], first[hi])
    gap = np.minimum(gap_lo, gap_hi)
    rounded = (lo > 0) & (np.abs(queries - values[np.maximum(lo - 1, 0)]) == gap)
    rounded |= (hi < last) & (np.abs(queries - values[np.minimum(hi + 1, last)]) == gap)
    for i in np.flatnonzero(rounded):
        out[i] = np.argmin(np.abs(queries[i] - candidates))
    return out


def match_pairs(scores, treatments) -> MatchingResult:
    """Match every subject to its nearest opposite-group subject, with replacement.

    The winner is the smallest index among opposite-group subjects whose
    computed ``|e_i - e_j|`` is minimal, float rounding included. Costs
    O(n log n) time and O(n) memory.
    """
    values = _score_values(scores)
    _, treated, control = _treatment_groups(treatments, values.shape[0])
    pairs = np.empty(values.shape[0], dtype=np.intp)
    pairs[treated] = control[_nearest(values[treated], values[control])]
    pairs[control] = treated[_nearest(values[control], values[treated])]
    return MatchingResult(pairs=pairs, treated=treated, control=control)


@dataclass(frozen=True)
class EffectEstimate:
    """A point estimate of a treatment effect in outcome units."""

    estimand: str
    method: str
    value: float


def estimate_psm(matching: MatchingResult, outcomes, estimand: str) -> EffectEstimate:
    """Average matched outcome differences.

    ATT averages ``y_i - y_pair(i)`` over treated subjects. ATE additionally
    averages ``y_pair(i) - y_i`` over controls and divides by the full subject
    count, so multiply-matched subjects count once per occurrence.

    The bootstrap SE of this estimator, which matches with replacement, is
    known to be unreliable (Abadie & Imbens 2008, Econometrica).
    """
    if estimand not in ESTIMANDS:
        raise InvalidDataError(f"unknown estimand {estimand!r}")
    y = ensure_vector(outcomes, "outcomes", length=matching.subject_count)
    t, c = matching.treated, matching.control
    treated_diffs = y[t] - y[matching.pairs[t]]
    if estimand == "ATT":
        value = float(np.mean(treated_diffs))
    else:
        control_diffs = y[matching.pairs[c]] - y[c]
        value = float((treated_diffs.sum() + control_diffs.sum()) / matching.subject_count)
    return EffectEstimate(estimand=estimand, method="PSM", value=value)


def ipw_weights(scores, treatments, estimand: str) -> np.ndarray:
    """Inverse-probability weights for the given estimand.

    ATE weights are 1/e for treated and 1/(1-e) for controls; ATT weights are
    1 for treated and e/(1-e) for controls.
    """
    if estimand not in ESTIMANDS:
        raise InvalidDataError(f"unknown estimand {estimand!r}")
    e = _score_values(scores)
    z, _, _ = _treatment_groups(treatments, e.shape[0])
    if estimand == "ATE":
        return np.where(z == 1, 1.0 / e, 1.0 / (1.0 - e))
    return np.where(z == 1, 1.0, e / (1.0 - e))


def estimate_ipw(scores, treatments, outcomes, estimand: str) -> EffectEstimate:
    """Self-normalized inverse-probability-weighted difference of outcome means.

    The weights are those of ``ipw_weights``; each group's weighted mean sums
    over all subjects, with zero weight on the other group.
    """
    return _ipw_estimate(ipw_weights(scores, treatments, estimand), treatments, outcomes, estimand)


def _ipw_estimate(weights, treatments, outcomes, estimand: str) -> EffectEstimate:
    """``estimate_ipw`` from weights already computed by ``ipw_weights``."""
    treated = np.asarray(treatments).astype(np.int64) == 1
    y = ensure_vector(outcomes, "outcomes", length=weights.shape[0])
    wt = np.where(treated, weights, 0.0)
    wc = np.where(treated, 0.0, weights)
    value = float((wt @ y) / wt.sum() - (wc @ y) / wc.sum())
    return EffectEstimate(estimand=estimand, method="IPW", value=value)


def matched_sample(matching: MatchingResult, estimand: str) -> tuple[np.ndarray, np.ndarray]:
    """Subject indices (with multiplicity) forming the matched sample.

    Returns the treated-side and control-side index arrays: for ATT the
    treated subjects and their matched controls; for ATE every subject plus
    its match, each occurrence kept.
    """
    if estimand not in ESTIMANDS:
        raise InvalidDataError(f"unknown estimand {estimand!r}")
    t, c = matching.treated, matching.control
    if estimand == "ATT":
        return t.copy(), matching.pairs[t].copy()
    treated_rows = np.concatenate([t, matching.pairs[c]])
    control_rows = np.concatenate([matching.pairs[t], c])
    return treated_rows, control_rows

"""Evaluation measures: gap from a benchmark, score inconsistency, balance.

The gap is the root-mean-square deviation of a plain vector of bootstrap
estimates from a benchmark effect. Inconsistency is the root-mean-square
difference between two propensity-score vectors. Covariate balance is the
vector of per-covariate standardized mean differences, with an optional
inverse-probability-weighted variant; a scenario summarizes it by its
maximum magnitude (MASMD).
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidDataError
from .numerics import DEGENERATE_STDDEV, _counts, _moments, ensure_binary_labels, \
    ensure_matrix, ensure_vector


def gap(estimates, benchmark: float) -> float:
    """Root-mean-square deviation of a vector of estimates from the benchmark."""
    values = ensure_vector(estimates, "estimates")
    if values.shape[0] < 1:
        raise InvalidDataError("gap needs at least one estimate")
    return float(np.sqrt(np.mean((values - float(benchmark)) ** 2)))


def inconsistency(scores_a, scores_b, counts=None) -> float:
    """Root-mean-square difference between two propensity-score vectors, entry ``i``
    counted ``counts[i]`` times (once each by default)."""
    a = ensure_vector(scores_a, "scores_a")
    b = ensure_vector(scores_b, "scores_b")
    if a.shape[0] != b.shape[0]:
        raise InvalidDataError(
            f"score vectors differ in length: {a.shape[0]} vs {b.shape[0]}"
        )
    c = _counts(counts, a.shape[0])
    return float(np.sqrt((c * (a - b) ** 2).sum() / c.sum()))


def smd(covariates, treatments, weights=None, counts=None) -> np.ndarray:
    """Standardized mean difference of each covariate between treated and control groups.

    Each covariate's difference in group means is divided by the square root
    of the averaged group variances. With ``weights`` the group moments are
    replaced by their inverse-probability-weighted counterparts. A covariate
    with zero pooled variance yields 0 when the group means agree and raises
    otherwise. Subject ``i`` counts ``counts[i]`` times (once each by default).
    """
    x = ensure_matrix(covariates, "covariates")
    z = ensure_binary_labels(treatments, "treatments", length=x.shape[0])
    if weights is not None:
        weights = ensure_vector(weights, "weights", length=x.shape[0])
        if np.any(weights <= 0):
            raise InvalidDataError("weights must be strictly positive")
    return _smd(x, z == 1, _counts(counts, x.shape[0]), weights)


def _smd(x: np.ndarray, treated: np.ndarray, counts: np.ndarray,
         weights: np.ndarray | None = None) -> np.ndarray:
    """``smd`` of a checked subjects x variables matrix, given the treated mask, the checked
    counts and weights. Each group's moments and scale are ``_moments``' over its rows of positive
    count; the weighted variance has the frequency-weight bias correction sum(cw) / (sum(cw)^2 -
    sum(cw^2)). A covariate whose pooled SD is below ``DEGENERATE_STDDEV`` times the larger scale
    is constant; one whose group means or variances overflow raises ``InvalidDataError``."""
    held, groups = counts > 0, []
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported just below
        for rows in (treated & held, ~treated & held):
            w = None if weights is None else weights.compress(rows)
            counted = counts.compress(rows) if w is None else counts.compress(rows) * w
            total = counted.sum()
            denom = None if w is None else total * total - float((counted * w).sum())
            if w is None and total < 2:
                raise InvalidDataError("balance needs at least two subjects per group")
            if w is not None and denom <= 0:
                raise InvalidDataError("weighted balance needs effective group size above one")
            cols = np.ascontiguousarray(x.compress(rows, axis=0).T)  # rows reduce faster
            mean, squares, scale = _moments(cols, counted)
            var = squares / (total - 1) if w is None else total / denom * squares
            groups.append((mean, var, scale))
        (mean_t, var_t, scale_t), (mean_c, var_c, scale_c) = groups
        scale = np.maximum(scale_t, scale_c)
        pooled = (var_t + var_c) / 2.0
        diff = mean_t - mean_c
        # A cut-off that overflows is inf; a finite pooled variance is then below it anyway.
        degenerate = pooled < (DEGENERATE_STDDEV * scale) ** 2
    overflowing = np.flatnonzero(~(np.isfinite(pooled) & np.isfinite(diff)))
    if overflowing.size:
        raise InvalidDataError(
            f"covariate {overflowing[0]}: its group means or variances overflow a double")
    values = np.where(degenerate, 0.0, diff / np.sqrt(np.where(degenerate, 1.0, pooled)))
    bad = degenerate & (np.abs(diff) > DEGENERATE_STDDEV * scale)
    if bad.any():
        raise InvalidDataError(
            f"covariate {int(np.flatnonzero(bad)[0])} has zero variance but unequal group means"
        )
    return values

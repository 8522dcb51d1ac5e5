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
from .numerics import DEGENERATE_STDDEV, _counts, ensure_binary_labels, ensure_matrix, \
    ensure_vector


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


def _group_moments(cols: np.ndarray, counts: np.ndarray,
                   weights: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """Mean and variance of each row of a variables x subjects array, subject ``i``
    counted ``counts[i]`` times; the weighted variant uses the frequency-weight bias
    correction sum(cw) / (sum(cw)^2 - sum(cw^2)), summed over the counted subjects."""
    if weights is None:
        total = counts.sum()
        if total < 2:
            raise InvalidDataError("balance needs at least two subjects per group")
        mean = (cols * counts).sum(axis=1) / total
        centered = cols - mean[:, None]
        return mean, (centered * centered * counts).sum(axis=1) / (total - 1)
    counted = counts * weights
    total = counted.sum()
    denom = total * total - float((counted * weights).sum())
    if denom <= 0:
        raise InvalidDataError("weighted balance needs effective group size above one")
    mean = (cols * counted).sum(axis=1) / total
    var = total / denom * ((cols - mean[:, None]) ** 2 * counted).sum(axis=1)
    return mean, var


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
    treated = z == 1
    control = z == 0
    w = None
    if weights is not None:
        w = ensure_vector(weights, "weights", length=x.shape[0])
        if np.any(w <= 0):
            raise InvalidDataError("weights must be strictly positive")
    cols, c = np.ascontiguousarray(x.T), _counts(counts, x.shape[0])
    return _smd(cols.compress(treated, axis=1), cols.compress(control, axis=1),
                c[treated], c[control], None if w is None else w[treated],
                None if w is None else w[control])


def _smd(treated: np.ndarray, control: np.ndarray, counts_t: np.ndarray, counts_c: np.ndarray,
         weights_t: np.ndarray | None = None, weights_c: np.ndarray | None = None) -> np.ndarray:
    """``smd`` of checked groups given variables-major, with their counts and checked weights.

    A covariate whose group means or variances overflow a double raises
    ``InvalidDataError`` naming it.
    """
    scale = np.maximum(np.maximum(np.abs(treated).max(axis=1), np.abs(control).max(axis=1)), 1.0)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported just below
        mean_t, var_t = _group_moments(treated, counts_t, weights_t)
        mean_c, var_c = _group_moments(control, counts_c, weights_c)
        pooled = (var_t + var_c) / 2.0
        diff = mean_t - mean_c
        # A cut-off that overflows is inf; a finite pooled variance is then below it anyway.
        degenerate = pooled < (DEGENERATE_STDDEV * scale) ** 2
    overflowing = np.flatnonzero(~(np.isfinite(pooled) & np.isfinite(diff)))
    if overflowing.size:
        raise InvalidDataError(
            f"covariate {overflowing[0]}: its group means or variances overflow a double")
    values = np.zeros(treated.shape[0])
    regular = ~degenerate
    values[regular] = diff[regular] / np.sqrt(pooled[regular])
    bad = degenerate & (np.abs(diff) > DEGENERATE_STDDEV * scale)
    if bad.any():
        raise InvalidDataError(
            f"covariate {int(np.flatnonzero(bad)[0])} has zero variance but unequal group means"
        )
    return values

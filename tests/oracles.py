"""Independent reference implementations used to cross-check the package.

These deliberately avoid the code paths under test: eigenvalues and singular
values come from Jacobi rotations instead of LAPACK drivers, the logistic
reference is plain gradient ascent, treatment-effect formulas are evaluated
with explicit loops (exact rational arithmetic where it matters), and the
matcher is a double loop with explicit tie handling, plus a blocked all-pairs
scan fast enough to check the package's matcher at large n.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np


def jacobi_eigenvalues(matrix, sweeps: int = 100, tol: float = 1e-13) -> np.ndarray:
    """Eigenvalues of a symmetric matrix via classical Jacobi rotations, descending."""
    a = np.array(matrix, dtype=float)
    n = a.shape[0]
    for _ in range(sweeps):
        off = np.sqrt(np.sum(np.tril(a, -1) ** 2))
        if off < tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if a[p, q] == 0.0:
                    continue
                tau = (a[q, q] - a[p, p]) / (2.0 * a[p, q])
                sign = 1.0 if tau >= 0 else -1.0
                t = sign / (abs(tau) + np.sqrt(1.0 + tau * tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = c
                rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
    return np.sort(np.diag(a))[::-1]


def jacobi_singular_values(matrix, sweeps: int = 100, tol: float = 1e-14) -> np.ndarray:
    """Singular values via one-sided Jacobi column orthogonalization, descending."""
    a = np.array(matrix, dtype=float)
    if a.shape[0] < a.shape[1]:
        a = a.T
    n = a.shape[1]
    for _ in range(sweeps):
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                alpha = float(a[:, p] @ a[:, p])
                beta = float(a[:, q] @ a[:, q])
                gamma = float(a[:, p] @ a[:, q])
                if abs(gamma) <= tol * np.sqrt(alpha * beta) or gamma == 0.0:
                    continue
                rotated = True
                zeta = (beta - alpha) / (2.0 * gamma)
                sign = 1.0 if zeta >= 0 else -1.0
                t = sign / (abs(zeta) + np.sqrt(1.0 + zeta * zeta))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = c * t
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
        if not rotated:
            break
    values = np.sqrt(np.sum(a * a, axis=0))
    return np.sort(values)[::-1]


def gradient_ascent_logistic(features, labels, ridge: float = 1e-6,
                             iterations: int = 200_000) -> np.ndarray:
    """Maximize the ridge-penalized Bernoulli likelihood by plain gradient ascent.

    Returns the parameter vector [intercept, coefficients...]. The step size
    is a safe inverse bound on the gradient's Lipschitz constant.
    """
    x = np.asarray(features, dtype=float)
    y = np.asarray(labels, dtype=float)
    n, m = x.shape
    design = np.hstack([np.ones((n, 1)), x])
    mask = np.ones(m + 1)
    mask[0] = 0.0
    lr = 1.0 / (0.25 * float(np.sum(design * design)) + ridge)
    theta = np.zeros(m + 1)
    for step in range(iterations):
        prob = 1.0 / (1.0 + np.exp(-(design @ theta)))
        grad = design.T @ (y - prob) - ridge * mask * theta
        theta += lr * grad
        if step % 1000 == 0 and float(np.max(np.abs(grad))) < 1e-11:
            break
    return theta


def brute_force_pairs(scores, treatments) -> np.ndarray:
    """Exhaustive nearest-neighbor match with replacement; first index wins ties."""
    values = [float(v) for v in scores]
    z = [int(v) for v in treatments]
    n = len(values)
    treated = [i for i in range(n) if z[i] == 1]
    control = [i for i in range(n) if z[i] == 0]
    pairs = [0] * n
    for i in range(n):
        candidates = control if z[i] == 1 else treated
        best = candidates[0]
        best_gap = abs(values[i] - values[best])
        for j in candidates[1:]:
            gap = abs(values[i] - values[j])
            if gap < best_gap:
                best, best_gap = j, gap
        pairs[i] = best
    return np.array(pairs)


# Row-block size for the vectorised nearest-neighbor scan, bounding memory.
_MATCH_BLOCK = 512


def _blocked_nearest(queries: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """Index of the closest candidate for every query; first index wins ties."""
    out = np.empty(queries.shape[0], dtype=np.intp)
    for start in range(0, queries.shape[0], _MATCH_BLOCK):
        stop = start + _MATCH_BLOCK
        gaps = np.abs(queries[start:stop, None] - candidates[None, :])
        out[start:stop] = np.argmin(gaps, axis=1)
    return out


def blocked_nearest_pairs(scores, treatments) -> np.ndarray:
    """Vectorised twin of ``brute_force_pairs``: every treated x control gap, blockwise."""
    values = np.asarray(scores, dtype=float)
    z = np.asarray(treatments).astype(np.int64)
    treated = np.flatnonzero(z == 1)
    control = np.flatnonzero(z == 0)
    pairs = np.empty(values.shape[0], dtype=np.intp)
    pairs[treated] = control[_blocked_nearest(values[treated], values[control])]
    pairs[control] = treated[_blocked_nearest(values[control], values[treated])]
    return pairs


def psm_formula(pairs, treatments, outcomes, estimand: str) -> float:
    """Matched-difference estimator evaluated with explicit loops."""
    z = [int(v) for v in treatments]
    y = [float(v) for v in outcomes]
    n = len(z)
    treated_sum = sum(y[i] - y[pairs[i]] for i in range(n) if z[i] == 1)
    if estimand == "ATT":
        return treated_sum / sum(z)
    control_sum = sum(y[pairs[i]] - y[i] for i in range(n) if z[i] == 0)
    return (treated_sum + control_sum) / n


def ipw_formula(scores, treatments, outcomes, estimand: str) -> float:
    """Self-normalized inverse-probability estimator in exact rational arithmetic."""
    e = [Fraction(v).limit_denominator(10**12) for v in scores]
    z = [int(v) for v in treatments]
    y = [Fraction(v).limit_denominator(10**12) for v in outcomes]
    n = len(z)
    if estimand == "ATE":
        top_t = sum(Fraction(z[i]) / e[i] * y[i] for i in range(n))
        bot_t = sum(Fraction(z[i]) / e[i] for i in range(n))
        top_c = sum(Fraction(1 - z[i]) / (1 - e[i]) * y[i] for i in range(n))
        bot_c = sum(Fraction(1 - z[i]) / (1 - e[i]) for i in range(n))
    else:
        top_t = sum(Fraction(z[i]) * y[i] for i in range(n))
        bot_t = Fraction(sum(z))
        top_c = sum(Fraction(1 - z[i]) * e[i] / (1 - e[i]) * y[i] for i in range(n))
        bot_c = sum(Fraction(1 - z[i]) * e[i] / (1 - e[i]) for i in range(n))
    return float(top_t / bot_t - top_c / bot_c)


def column_stats(matrix) -> tuple[list[float], list[float]]:
    """Column means and sample standard deviations by explicit accumulation."""
    rows = [list(map(float, row)) for row in matrix]
    n = len(rows)
    m = len(rows[0])
    means, sds = [], []
    for j in range(m):
        col = [rows[i][j] for i in range(n)]
        mean = sum(col) / n
        means.append(mean)
        if n > 1:
            sds.append((sum((v - mean) ** 2 for v in col) / (n - 1)) ** 0.5)
        else:
            sds.append(0.0)
    return means, sds


def smd_formula(covariates, treatments, weights=None) -> list[float]:
    """Standardized mean differences with explicit per-group loops."""
    x = [list(map(float, row)) for row in covariates]
    z = [int(v) for v in treatments]
    w = [1.0] * len(z) if weights is None else [float(v) for v in weights]
    out = []
    for j in range(len(x[0])):
        stats = {}
        for group in (1, 0):
            idx = [i for i in range(len(z)) if z[i] == group]
            if weights is None:
                col = [x[i][j] for i in idx]
                mean = sum(col) / len(col)
                var = sum((v - mean) ** 2 for v in col) / (len(col) - 1)
            else:
                sw = sum(w[i] for i in idx)
                sw2 = sum(w[i] ** 2 for i in idx)
                mean = sum(w[i] * x[i][j] for i in idx) / sw
                var = sw / (sw * sw - sw2) * sum(w[i] * (x[i][j] - mean) ** 2 for i in idx)
            stats[group] = (mean, var)
        pooled = (stats[1][1] + stats[0][1]) / 2.0
        out.append((stats[1][0] - stats[0][0]) / pooled ** 0.5)
    return out

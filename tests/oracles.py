"""Independent reference implementations used to cross-check the package.

These deliberately avoid the code paths under test: eigenvalues and singular
values come from Jacobi rotations instead of LAPACK drivers, the logistic
reference is plain gradient ascent, treatment-effect formulas are evaluated
with explicit loops (exact rational arithmetic where it matters), and the
matcher is a double loop with explicit tie handling, plus a blocked all-pairs
scan fast enough to check the package's matcher at large n.

Some references are earlier versions of package code, kept verbatim so that
a rewrite for speed can be required to give bit-identical results: the
variables-major softplus IRLS fit (``softplus_logistic_fit``) and the
cell-by-cell CSV loaders (``cellwise_ingest_csv``,
``cellwise_load_party_files``), and the anchor drawn by numpy's ``uniform``
(``uniform_anchor``). The masked-branch IRLS fit with
``logaddexp`` (``masked_sigmoid``, ``reference_logistic_fit``) is the fit
before that one; the package's fit stays within a stated bound of it. The
alignment that decomposes the anchor-tall combined image and pseudo-inverts
each row block's anchor image (``fit_integration``, ``_shared_basis``) is
the one before the R-factor alignment; the package's maps stay within a
stated bound of its maps.

``reference_scenario`` composes these references into a whole scenario:
every number ``run_scenario`` reports, recomputed one run at a time from the
method's steps, with party PCA by the SVD of each standardized block.
"""

from __future__ import annotations

import csv
from fractions import Fraction
from pathlib import Path
from typing import Sequence

import numpy as np

from dcqe.datamodel import Dataset, PartitionSpec
from dcqe.errors import IngestionError, InvalidDataError
from dcqe.numerics import (
    LOGISTIC_MAX_ITER,
    LOGISTIC_RIDGE,
    LOGISTIC_TOL,
    LogisticModel,
    ensure_binary_labels,
    ensure_matrix,
    pseudoinverse,
    svd_truncated,
)


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


# -- IRLS with the masked two-branch sigmoid, one matvec per use --------------

def masked_sigmoid(eta) -> np.ndarray:
    """Numerically stable logistic function 1 / (1 + exp(-eta))."""
    eta = np.asarray(eta, dtype=float)
    out = np.empty_like(eta)
    pos = eta >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-eta[pos]))
    ex = np.exp(eta[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _penalized_loglik(design: np.ndarray, labels: np.ndarray, theta: np.ndarray,
                      penalty: np.ndarray) -> float:
    eta = design @ theta
    ll = float(np.sum(labels * eta - np.logaddexp(0.0, eta)))
    return ll - 0.5 * float(penalty @ (theta * theta))


def reference_logistic_fit(features, labels) -> LogisticModel:
    """Ridge-penalized logistic regression by Newton steps with step halving."""
    x = ensure_matrix(features, "features")
    y = ensure_binary_labels(labels, "labels", length=x.shape[0]).astype(float)
    n, m = x.shape
    design = np.hstack([np.ones((n, 1)), x])
    penalty = np.full(m + 1, LOGISTIC_RIDGE)
    penalty[0] = 0.0

    theta = np.zeros(m + 1)
    trace = [_penalized_loglik(design, y, theta, penalty)]
    converged = False
    iterations = 0
    for iterations in range(1, LOGISTIC_MAX_ITER + 1):
        prob = masked_sigmoid(design @ theta)
        weight = prob * (1.0 - prob)
        grad = design.T @ (y - prob) - penalty * theta
        hess = (design * weight[:, None]).T @ design
        hess[np.diag_indices_from(hess)] += penalty
        try:
            delta = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            delta = np.linalg.lstsq(hess, grad, rcond=None)[0]

        step = 1.0
        candidate = theta + delta
        value = _penalized_loglik(design, y, candidate, penalty)
        while value < trace[-1] - 1e-12 and step > 1e-12:
            step *= 0.5
            candidate = theta + step * delta
            value = _penalized_loglik(design, y, candidate, penalty)

        change = float(np.max(np.abs(candidate - theta)))
        theta = candidate
        trace.append(value)
        if change < LOGISTIC_TOL:
            converged = True
            break

    return LogisticModel(
        intercept=float(theta[0]),
        coefficients=theta[1:].copy(),
        converged=converged,
        n_iter=iterations,
        loglik_trace=np.asarray(trace),
    )


# -- IRLS on the variables-major design with the softplus log-likelihood ----

def _softplus_linear_and_loglik(design_t: np.ndarray, labels: np.ndarray, theta: np.ndarray,
                                penalty: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    eta = theta @ design_t
    ex = np.exp(-np.abs(eta))
    ll = float(np.sum(labels * eta - (np.maximum(eta, 0.0) + np.log1p(ex))))
    return eta, ex, ll - 0.5 * float(penalty @ (theta * theta))


def softplus_logistic_fit(features, labels) -> LogisticModel:
    """Ridge-penalized logistic regression by Newton steps with step halving."""
    x = ensure_matrix(features, "features")
    y = ensure_binary_labels(labels, "labels", length=x.shape[0]).astype(float)
    n, m = x.shape
    design_t = np.empty((m + 1, n))
    design_t[0] = 1.0
    design_t[1:] = x.T
    penalty = np.full(m + 1, LOGISTIC_RIDGE)
    penalty[0] = 0.0

    diagonal = np.diag_indices(m + 1)

    theta = np.zeros(m + 1)
    eta, ex, value = _softplus_linear_and_loglik(design_t, y, theta, penalty)
    trace = [value]
    converged = False
    iterations = 0
    for iterations in range(1, LOGISTIC_MAX_ITER + 1):
        prob = np.maximum(ex, eta >= 0) / (1.0 + ex)
        weight = prob * (1.0 - prob)
        grad = design_t @ (y - prob) - penalty * theta
        hess = (design_t * weight) @ design_t.T
        hess[diagonal] += penalty
        try:
            delta = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            delta = np.linalg.lstsq(hess, grad, rcond=None)[0]

        step = 1.0
        candidate = theta + delta
        eta, ex, value = _softplus_linear_and_loglik(design_t, y, candidate, penalty)
        while value < trace[-1] - 1e-12 and step > 1e-12:
            step *= 0.5
            candidate = theta + step * delta
            eta, ex, value = _softplus_linear_and_loglik(design_t, y, candidate, penalty)

        change = float(np.max(np.abs(candidate - theta)))
        theta = candidate
        trace.append(value)
        if change < LOGISTIC_TOL:
            converged = True
            break

    return LogisticModel(
        intercept=float(theta[0]),
        coefficients=theta[1:].copy(),
        converged=converged,
        n_iter=iterations,
        loglik_trace=np.asarray(trace),
    )


# -- Alignment through the anchor-tall SVD and one pseudoinverse per row block

def _shared_basis(images: list[np.ndarray], collaborative_dim: int) -> np.ndarray:
    """The shared basis of the row blocks' anchor images, in row-block order."""
    anchor_rows = images[0].shape[0]
    if collaborative_dim < 1:
        raise InvalidDataError(f"collaborative dimension must be positive, got {collaborative_dim}")
    if collaborative_dim > anchor_rows:
        raise InvalidDataError(
            f"collaborative dimension {collaborative_dim} exceeds anchor size {anchor_rows}"
        )
    combined = np.hstack(images)
    # The shared basis cannot be wider than the combined anchor image; requests
    # beyond that (or beyond numerical rank) shrink silently and the effective
    # width is reported by the returned matrices.
    rank = min(collaborative_dim, combined.shape[1])
    basis = svd_truncated(combined, rank).u
    if basis.shape[1] == 0:
        raise InvalidDataError(
            "the combined anchor image has numerical rank 0, so there is no shared basis; "
            "constant party columns are a likely cause"
        )
    return basis


def fit_integration(intermediates: Sequence[Sequence[tuple[np.ndarray, np.ndarray]]],
                    collaborative_dim: int) -> list[np.ndarray]:
    """Fit one alignment map per row block of the party grid from the anchor images.

    The anchor images are concatenated per row block, those are concatenated
    side by side across row blocks, and the leading ``collaborative_dim``
    left singular vectors of the result become the shared basis. Each row
    block's map is the pseudoinverse of its own anchor image times that basis.
    """
    images = [np.hstack([anchor for _, anchor in row]) for row in intermediates]
    basis = _shared_basis(images, collaborative_dim)
    return [pseudoinverse(image) @ basis for image in images]


# -- A whole scenario, recomputed serially from the method's steps -----------

_PROPENSITY_CLIP = (1e-6, 1.0 - 1e-6)


def _rms(values) -> float:
    return float(np.sqrt(np.mean(np.square(values))))


def _resample(config, n: int, treatments: np.ndarray, run: int) -> tuple[int, np.ndarray]:
    """The anchor seed and the subject positions of run ``run``; run 0 keeps every subject.

    Each run draws from its own ``SeedSequence((master_seed, run))``: first the
    anchor seed, then resamples of ``n`` positions until each group keeps at
    least two subjects.
    """
    rng = np.random.default_rng(np.random.SeedSequence((config.master_seed, run)))
    anchor_seed = int(rng.integers(0, 2**63))
    if run == 0:
        return anchor_seed, np.arange(n)
    for _ in range(100):
        idx = rng.integers(0, n, size=n)
        if 2 <= int(treatments[idx].sum()) <= n - 2:
            return anchor_seed, idx
    raise AssertionError("the resampling kept losing a treatment group")


def _party_pair(block: np.ndarray, anchor_block: np.ndarray, dim: int):
    """Party PCA by the SVD of the standardized block: its data and anchor images."""
    mean = block.mean(axis=0)
    sd = block.std(axis=0, ddof=1)
    sd = np.where(sd < 1e-12, 1.0, sd)
    components = np.linalg.svd((block - mean) / sd, full_matrices=False)[2][:dim].T
    return (block - mean) / sd @ components, (anchor_block - mean) / sd @ components


def _collaborative(scoped: np.ndarray, spec, config, anchor: np.ndarray) -> np.ndarray:
    """The parties' images aligned by the pseudoinverse oracle, row blocks stacked."""
    rows = np.cumsum((0,) + spec.row_blocks)
    cols = np.cumsum((0,) + spec.col_blocks)
    grid = [[_party_pair(scoped[rows[k]:rows[k + 1], cols[l]:cols[l + 1]],
                         anchor[:, cols[l]:cols[l + 1]], config.intermediate_dim)
             for l in range(len(spec.col_blocks))] for k in range(len(spec.row_blocks))]
    maps = fit_integration(grid, config.collaborative_dim)
    return np.vstack([np.hstack([data for data, _ in row]) @ m for row, m in zip(grid, maps)])


def _propensity(features: np.ndarray, treatments: np.ndarray) -> np.ndarray:
    model = reference_logistic_fit(features, treatments)
    return np.clip(masked_sigmoid(model.intercept + features @ model.coefficients),
                   *_PROPENSITY_CLIP)


def uniform_anchor(col_ranges, r: int, seed: int) -> np.ndarray:
    """The r x m anchor as numpy's ``uniform`` draws it, column j on ``col_ranges[j]``."""
    ranges = np.asarray(col_ranges, dtype=float)
    return np.random.default_rng(seed).uniform(ranges[:, 0], ranges[:, 1],
                                               size=(r, ranges.shape[0]))


def reference_run(data: Dataset, config, true_scores, run: int) -> dict:
    """One run of ``run_scenario``'s pipeline, from the method's steps.

    Returns the effect estimate, the masmd on the ground-truth covariates, the
    two inconsistencies, and the propensity scores and PSM pairs behind them,
    with the resample's scope positions.
    """
    spec, scope = config.partition, config.scope
    row_offsets = np.cumsum((0,) + spec.row_blocks)
    col_offsets = np.cumsum((0,) + spec.col_blocks)
    rows = np.concatenate([np.arange(row_offsets[k], row_offsets[k + 1])
                           for k in scope.row_indices])
    cols = np.concatenate([np.arange(col_offsets[l], col_offsets[l + 1])
                           for l in scope.col_indices])
    anchor_seed, idx = _resample(config, rows.shape[0], data.treatments[rows], run)
    subjects = rows[idx]
    truth = data.covariates[subjects]
    scoped = truth[:, cols]
    z = data.treatments[subjects]
    y = data.outcomes[subjects]

    if config.analysis == "dcqe":
        lows, highs = data.covariates.min(axis=0)[cols], data.covariates.max(axis=0)[cols]
        anchor_rows = config.anchor_size or data.subject_count
        anchor = np.random.default_rng(anchor_seed).uniform(lows, highs,
                                                            size=(anchor_rows, cols.shape[0]))
        sub_spec = PartitionSpec(tuple(spec.row_blocks[k] for k in scope.row_indices),
                                 tuple(spec.col_blocks[l] for l in scope.col_indices))
        scores = _propensity(_collaborative(scoped, sub_spec, config, anchor), z)
    else:
        scores = _propensity(scoped, z)

    pairs = None
    if config.estimator == "PSM":
        pairs = brute_force_pairs(scores, z)
        estimate = psm_formula(pairs, z, y, config.estimand)
        treated = np.flatnonzero(z == 1)
        control = np.flatnonzero(z == 0)
        if config.estimand == "ATT":
            t_rows, c_rows = treated, pairs[treated]
        else:
            t_rows = np.concatenate([treated, pairs[control]])
            c_rows = np.concatenate([pairs[treated], control])
        labels = np.r_[np.ones(t_rows.shape[0]), np.zeros(c_rows.shape[0])]
        balance = smd_formula(np.vstack([truth[t_rows], truth[c_rows]]), labels)
    else:
        estimate = ipw_formula(scores, z, y, config.estimand)
        if config.estimand == "ATE":
            weights = np.where(z == 1, 1.0 / scores, 1.0 / (1.0 - scores))
        else:
            weights = np.where(z == 1, 1.0, scores / (1.0 - scores))
        balance = smd_formula(truth, z, weights)

    full_width = cols.shape[0] == data.covariate_count
    reference = scores if config.analysis != "dcqe" and full_width else _propensity(truth, z)
    return {
        "estimate": estimate,
        "masmd": max(abs(v) for v in balance),
        "inconsistency_ca": _rms(scores - reference),
        "inconsistency_true": None if true_scores is None else
        _rms(scores - np.asarray(true_scores)[subjects]),
        "scores": scores,
        "pairs": pairs,
        "positions": idx,
    }


def reference_scenario(data: Dataset, config, true_scores=None) -> dict:
    """Every number ``run_scenario`` reports, recomputed serially from the method's steps.

    The runs follow ``reference_run``; run ``b`` of ``1 + B`` is bootstrap
    replicate ``b``, and without resampling every replicate is run 0. The
    summaries are the point run's value, the replicates' mean and their
    sample standard deviation. Also returns the runs themselves, as ``runs``.
    """
    count = 1 + config.bootstrap_replicates if config.resample else 1
    runs = [reference_run(data, config, true_scores, b) for b in range(count)]
    replicates = runs[1:] if config.resample else runs * config.bootstrap_replicates

    def sd(values) -> float:
        return float(np.std(values, ddof=1)) if len(values) > 1 else 0.0

    estimates = np.array([r["estimate"] for r in replicates])
    numbers = {
        "bootstrap_estimates": estimates,
        "point_estimate": runs[0]["estimate"],
        "estimate_mean": float(np.mean(estimates)),
        "estimate_se": sd(estimates),
        "gap": None if config.benchmark is None else _rms(estimates - config.benchmark),
        "runs": runs,
    }
    for name in ("inconsistency_true", "inconsistency_ca", "masmd"):
        values = [r[name] for r in replicates]
        numbers[name] = None if runs[0][name] is None else \
            (runs[0][name], float(np.mean(values)), sd(values))
    return numbers


# -- CSV loaders that parse and check one cell at a time, row by row ---------

def _read_rows(path) -> tuple[list[str], list[list[str]]]:
    path = Path(path)
    if not path.is_file():
        raise IngestionError(f"input file not found: {path}")
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestionError(f"{path}: file is empty, a header row is required") from None
        header = [name.strip() for name in header]
        rows = []
        for number, row in enumerate(reader, start=1):
            if len(row) != len(header):
                raise IngestionError(
                    f"{path}: row {number} has {len(row)} cells, header has {len(header)}"
                )
            rows.append([cell.strip() for cell in row])
    return header, rows


def _column_index(header: list[str], name: str, path) -> int:
    try:
        return header.index(name)
    except ValueError:
        raise IngestionError(f"{path}: missing column {name!r}") from None


def _parse_real(cell: str, row: int, column: str, path) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise IngestionError(
            f"{path}: row {row}, column {column!r}: cannot parse {cell!r} as a real number"
        ) from None
    if not np.isfinite(value):
        raise IngestionError(
            f"{path}: row {row}, column {column!r}: value {cell!r} is not finite"
        )
    return value


def _parse_treatment(cell: str, row: int, column: str, path) -> int:
    if cell == "0":
        return 0
    if cell == "1":
        return 1
    raise IngestionError(
        f"{path}: row {row}, column {column!r}: treatment must be exactly \"0\" or \"1\", "
        f"got {cell!r}"
    )


def cellwise_ingest_csv(path, covariates, treatment: str, outcome: str) -> Dataset:
    """Read a dataset CSV's ``covariates`` columns in that order and its treatment and
    outcome columns."""
    header, rows = _read_rows(path)
    if len(rows) < 2:
        raise IngestionError(f"{path}: need at least 2 data rows, found {len(rows)}")
    cov_idx = [_column_index(header, name, path) for name in covariates]
    z_idx = _column_index(header, treatment, path)
    y_idx = _column_index(header, outcome, path)

    x = np.empty((len(rows), len(cov_idx)))
    treatments = np.empty(len(rows), dtype=np.int64)
    outcomes = np.empty(len(rows))
    for number, row in enumerate(rows, start=1):
        for j, idx in enumerate(cov_idx):
            x[number - 1, j] = _parse_real(row[idx], number, header[idx], path)
        treatments[number - 1] = _parse_treatment(row[z_idx], number, treatment, path)
        outcomes[number - 1] = _parse_real(row[y_idx], number, outcome, path)
    try:
        return Dataset(x, treatments, outcomes)
    except Exception as exc:
        raise IngestionError(f"{path}: {exc}") from exc


def _check_id_alignment(reference: list[str] | None, ids: list[str] | None,
                        reference_path, path) -> None:
    if reference is None or ids is None:
        return
    if len(reference) != len(ids):
        raise IngestionError(
            f"{path}: has {len(ids)} rows, {reference_path} has {len(reference)}"
        )
    for row, (a, b) in enumerate(zip(reference, ids), start=1):
        if a != b:
            raise IngestionError(
                f"{path}: row {row}: id {b!r} does not match {a!r} in {reference_path}"
            )


def _read_label_table(path, id_column: str | None):
    """Read a row block's treatment/outcome CSV plus optional ids."""
    header, rows = _read_rows(path)
    z_idx = _column_index(header, "treatment", path)
    y_idx = _column_index(header, "outcome", path)
    id_idx = header.index(id_column) if id_column and id_column in header else None
    treatments = np.empty(len(rows), dtype=np.int64)
    outcomes = np.empty(len(rows))
    ids = [] if id_idx is not None else None
    for number, row in enumerate(rows, start=1):
        treatments[number - 1] = _parse_treatment(row[z_idx], number, "treatment", path)
        outcomes[number - 1] = _parse_real(row[y_idx], number, "outcome", path)
        if ids is not None:
            ids.append(row[id_idx])
    return treatments, outcomes, ids


def cellwise_load_party_files(party_paths: dict[tuple[int, int], str],
                              block_paths: dict[int, str],
                              id_column: str | None = None) -> tuple[Dataset, PartitionSpec]:
    """Assemble a dataset from per-party covariate files and per-row-block label files."""
    if not party_paths or not block_paths:
        raise IngestionError("run mode needs at least one party file and one block file")
    row_ids = sorted({k for k, _ in party_paths})
    col_ids = sorted({l for _, l in party_paths})
    if row_ids != list(range(len(row_ids))) or col_ids != list(range(len(col_ids))):
        raise IngestionError("party files must cover contiguous block indices starting at 0")
    missing = [(k, l) for k in row_ids for l in col_ids if (k, l) not in party_paths]
    if missing:
        raise IngestionError(f"missing party file for block {missing[0]}")
    if sorted(block_paths) != row_ids:
        raise IngestionError(
            f"block files cover row blocks {sorted(block_paths)}, parties cover {row_ids}"
        )

    col_widths: dict[int, int] = {}
    row_sizes: dict[int, int] = {}
    block_rows = []
    treatments_parts, outcomes_parts = [], []
    for k in row_ids:
        z_col, y_col, label_ids = _read_label_table(block_paths[k], id_column)
        reference_ids, reference_path = label_ids, block_paths[k]
        row_parts = []
        for l in col_ids:
            path = party_paths[(k, l)]
            header, rows = _read_rows(path)
            id_idx = header.index(id_column) if id_column and id_column in header else None
            cov_cols = [i for i in range(len(header)) if i != id_idx]
            if not cov_cols:
                raise IngestionError(f"{path}: no covariate columns found")
            data = np.empty((len(rows), len(cov_cols)))
            ids = [] if id_idx is not None else None
            for number, row in enumerate(rows, start=1):
                for j, idx in enumerate(cov_cols):
                    data[number - 1, j] = _parse_real(row[idx], number, header[idx], path)
                if ids is not None:
                    ids.append(row[id_idx])
            if data.shape[0] != z_col.shape[0]:
                raise IngestionError(
                    f"{path}: has {data.shape[0]} rows, {block_paths[k]} has {z_col.shape[0]}"
                )
            if reference_ids is None and ids is not None:
                reference_ids, reference_path = ids, path
            else:
                _check_id_alignment(reference_ids, ids, reference_path, path)
            width = col_widths.setdefault(l, data.shape[1])
            if width != data.shape[1]:
                raise IngestionError(
                    f"{path}: column block {l} has {data.shape[1]} covariates here "
                    f"but {width} in another row block"
                )
            row_parts.append(data)
        row_sizes[k] = z_col.shape[0]
        block_rows.append(np.hstack(row_parts))
        treatments_parts.append(z_col)
        outcomes_parts.append(y_col)

    spec = PartitionSpec(
        tuple(row_sizes[k] for k in row_ids),
        tuple(col_widths[l] for l in col_ids),
    )
    try:
        dataset = Dataset(
            np.vstack(block_rows),
            np.concatenate(treatments_parts),
            np.concatenate(outcomes_parts),
        )
    except Exception as exc:
        raise IngestionError(str(exc)) from exc
    return dataset, spec

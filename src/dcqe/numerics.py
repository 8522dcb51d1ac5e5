"""Dense linear-algebra and statistics kernels used by the rest of the package.

Everything in this module is deterministic: sign conventions are fixed, no
randomized solvers are used, and identical inputs give bit-identical outputs.
All matrices are plain 2-d float64 ``numpy`` arrays.

Validation happens where an array enters: each public function and
constructor checks the arrays its caller passes (``ensure_matrix`` and its
siblings) and raises ``InvalidDataError`` on a wrong rank, an empty or a
non-finite input. A bootstrap replicate still calls some public functions
on arrays it built or checked itself, so those are checked again: the
benchmark's tracer times the functions by their public names. Binary labels
have one checker, ``ensure_binary_labels``: 0/1 only and both classes present.

Kernels that reduce over the subjects copy their tall subjects x variables
input once into a C-contiguous variables x subjects array and reduce along
its rows: an ``axis=0`` reduction walks a row-major array one short row at
a time, several times slower, and its bits depend on the input's layout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateLabelsError, DimensionError, InvalidDataError

# Type alias used throughout the package for 2-d float arrays.
Matrix = np.ndarray

# Relative cutoff below which singular values are treated as zero.
SINGULAR_VALUE_CUTOFF = 1e-12

# Column standard deviations below this are replaced by 1.0 when standardizing.
DEGENERATE_STDDEV = 1e-12

# Ridge penalty on logistic coefficients (never on the intercept).
LOGISTIC_RIDGE = 1e-6
LOGISTIC_TOL = 1e-8
LOGISTIC_MAX_ITER = 100


def ensure_matrix(data, name: str = "data") -> np.ndarray:
    """Validate and return ``data`` as a finite, non-empty 2-d float array."""
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 2:
        raise InvalidDataError(f"{name} must be 2-dimensional, got ndim={arr.ndim}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise InvalidDataError(f"{name} must be non-empty, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidDataError(f"{name} contains non-finite entries")
    return arr


def ensure_vector(data, name: str = "data", length: int | None = None) -> np.ndarray:
    """Validate and return ``data`` as a finite 1-d float array."""
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 1:
        raise InvalidDataError(f"{name} must be 1-dimensional, got ndim={arr.ndim}")
    if not np.all(np.isfinite(arr)):
        raise InvalidDataError(f"{name} contains non-finite entries")
    if length is not None and arr.shape[0] != length:
        raise DimensionError(f"{name} must have length {length}, got {arr.shape[0]}")
    return arr


def ensure_binary_labels(labels, name: str = "labels", length: int | None = None) -> np.ndarray:
    """Validate 0/1 labels containing at least one example of each class."""
    arr = np.asarray(labels)
    if arr.ndim != 1:
        raise InvalidDataError(f"{name} must be 1-dimensional")
    if length is not None and arr.shape[0] != length:
        raise DimensionError(f"{name} must have length {length}, got {arr.shape[0]}")
    values = arr.astype(float)
    if not np.all(np.isin(values, (0.0, 1.0))):
        raise InvalidDataError(f"{name} must contain only 0 and 1")
    out = values.astype(np.int64)
    if out.min() == out.max():
        raise DegenerateLabelsError(f"{name} contain a single class")
    return out


def sigmoid(eta) -> np.ndarray:
    """Numerically stable logistic function 1 / (1 + exp(-eta))."""
    eta = np.asarray(eta, dtype=float)
    # exp(-|eta|) <= 1 never overflows: the numerator is 1 for eta >= 0, ex below.
    ex = np.exp(-np.abs(eta))
    return np.maximum(ex, eta >= 0) / (1.0 + ex)


def _orient_columns(primary: np.ndarray, partner: np.ndarray | None = None) -> None:
    """Flip column signs in place so each column's largest-magnitude entry is >= 0.

    ``partner`` columns are flipped together with ``primary`` so that factor
    products are preserved. Ties pick the first index, so the convention is
    deterministic.
    """
    lead = np.argmax(np.abs(primary), axis=0)
    flip = primary[lead, np.arange(primary.shape[1])] < 0.0
    primary[:, flip] *= -1.0
    if partner is not None:
        partner[:, flip] *= -1.0


@dataclass(frozen=True, eq=False)
class PcaModel:
    """Column means and standard deviations plus orthonormal principal directions."""

    means: np.ndarray
    stddevs: np.ndarray
    components: np.ndarray


def pca_fit(data: Matrix, target_dim: int) -> PcaModel:
    """Fit a PCA with ``target_dim`` components on standardized ``data``.

    Components are the top right singular vectors of the standardized matrix
    (equivalently the leading eigenvectors of its sample covariance), with the
    sign convention that each component's largest-magnitude entry is
    non-negative. Columns whose sample standard deviation falls below
    ``DEGENERATE_STDDEV`` get a divisor of 1.0; a column whose mean or
    standard deviation overflows raises ``InvalidDataError``.
    """
    return _pca(ensure_matrix(data), target_dim)[0]


def _pca(arr: np.ndarray, target_dim: int, name: str = "data") -> tuple[PcaModel, np.ndarray]:
    """``pca_fit`` of a checked matrix called ``name``, and the standardized matrix,
    variables-major."""
    n, m = arr.shape
    if n < 2:
        raise InvalidDataError("pca_fit needs at least two rows")
    if not 1 <= target_dim <= m:
        raise DimensionError(f"target_dim must be in [1, {m}], got {target_dim}")
    cols = np.ascontiguousarray(arr.T)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported just below
        means = cols.mean(axis=1)
        stddevs = cols.std(axis=1, ddof=1)
    overflowing = np.flatnonzero(~(np.isfinite(means) & np.isfinite(stddevs)))
    if overflowing.size:
        raise InvalidDataError(f"{name} column {overflowing[0]}: its mean or standard deviation "
                               "overflows a double")
    stddevs = np.where(stddevs < DEGENERATE_STDDEV, 1.0, stddevs)
    standardized = (cols - means[:, None]) / stddevs[:, None]
    # A tall block's R factor has its singular values and right vectors; gesdd
    # takes that route itself once n >= 11m/6, so there only forming U is saved.
    factor = np.linalg.qr(standardized.T, mode="r") if n > m else standardized.T
    vt = np.linalg.svd(factor, full_matrices=target_dim > min(n, m))[2]
    components = vt[:target_dim].T.copy()
    _orient_columns(components)
    return PcaModel(means, stddevs, components), standardized


def _project(model: PcaModel, arr: np.ndarray) -> np.ndarray:
    """``make_intermediate``'s image of a checked matrix of the model's width."""
    cols = np.ascontiguousarray(arr.T)
    return ((cols - model.means[:, None]) / model.stddevs[:, None]).T @ model.components


@dataclass(frozen=True, eq=False)
class TruncatedSvd:
    """Leading singular triplets of a matrix, zeros removed."""

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray

    @property
    def rank(self) -> int:
        return self.sigma.shape[0]

    def reconstruct(self) -> np.ndarray:
        return (self.u * self.sigma) @ self.v.T


def svd_truncated(data: Matrix, rank: int) -> TruncatedSvd:
    """Best rank-``rank`` singular value decomposition of ``data``.

    Singular values at or below ``SINGULAR_VALUE_CUTOFF`` times the largest
    one are dropped, so the returned rank can be smaller than requested.
    """
    arr = ensure_matrix(data)
    n, m = arr.shape
    if not 1 <= rank <= min(n, m):
        raise DimensionError(f"rank must be in [1, {min(n, m)}], got {rank}")
    u, s, vt = np.linalg.svd(arr, full_matrices=False)
    positive = int(np.count_nonzero(s > SINGULAR_VALUE_CUTOFF * s[0])) if s[0] > 0 else 0
    keep = min(rank, positive)
    u1 = u[:, :keep].copy()
    v1 = vt[:keep].T.copy()
    _orient_columns(v1, u1)
    return TruncatedSvd(u1, s[:keep].copy(), v1)


def pseudoinverse(data: Matrix) -> np.ndarray:
    """Moore-Penrose inverse via SVD with a relative singular-value cutoff."""
    arr = ensure_matrix(data)
    u, s, vt = np.linalg.svd(arr, full_matrices=False)
    inv = np.zeros_like(s)
    if s.shape[0] and s[0] > 0:
        # Values whose reciprocal would overflow are treated as zero too,
        # keeping the result finite for subnormal inputs.
        mask = (s > SINGULAR_VALUE_CUTOFF * s[0]) & (s >= 1.0 / np.finfo(float).max)
        inv[mask] = 1.0 / s[mask]
    return (vt.T * inv) @ u.T


@dataclass(frozen=True, eq=False)
class LogisticModel:
    """Intercept and coefficients of a binary logistic regression."""

    intercept: float
    coefficients: np.ndarray
    converged: bool = True
    n_iter: int = 0
    loglik_trace: np.ndarray | None = None

    def __post_init__(self):
        if not np.isfinite(self.intercept) or not np.all(np.isfinite(self.coefficients)):
            raise InvalidDataError("logistic parameters must be finite")


def _linear_and_loglik(design_t: np.ndarray, labels: np.ndarray, theta: np.ndarray,
                       penalty: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """``eta = theta @ design_t``, ``exp(-|eta|)`` and the penalized log-likelihood,
    whose softplus ``log(1 + exp(eta))`` is ``max(eta, 0) + log1p(exp(-|eta|))``."""
    eta = theta @ design_t
    ex = np.exp(-np.abs(eta))
    ll = float(np.sum(labels * eta - (np.maximum(eta, 0.0) + np.log1p(ex))))
    return eta, ex, ll - 0.5 * float(penalty @ (theta * theta))


_FIT_OVERFLOWS = "features too large: the logistic fit overflows a double"


@np.errstate(over="ignore", invalid="ignore")  # an overflow raises InvalidDataError instead
def logistic_fit(features: Matrix, labels) -> LogisticModel:
    """Fit a ridge-penalized logistic regression by reweighted least squares.

    The Bernoulli log-likelihood with an L2 penalty of ``LOGISTIC_RIDGE`` on
    the coefficients (not the intercept) is maximized by Newton steps with
    step halving, which keeps the recorded likelihood trace non-decreasing.
    Convergence is declared when the largest parameter change drops below
    ``LOGISTIC_TOL``; after ``LOGISTIC_MAX_ITER`` iterations the best iterate
    is returned with ``converged`` set to False.

    Each evaluated candidate costs one matrix-vector product, one ``exp``
    and one ``log1p``; the accepted candidate's linear predictor and
    ``exp(-|eta|)`` give the next Newton step's probabilities with one
    division, equal bit for bit to ``sigmoid(eta)``. Features so large that
    the Hessian or the likelihood overflows raise ``InvalidDataError``.
    """
    x = ensure_matrix(features, "features")
    y = ensure_binary_labels(labels, "labels", length=x.shape[0]).astype(float)
    n, m = x.shape
    design_t = np.ones((m + 1, n))  # variables-major, whatever the layout of x
    design_t[1:] = x.T
    penalty = np.full(m + 1, LOGISTIC_RIDGE)
    penalty[0] = 0.0

    diagonal = np.diag_indices(m + 1)

    theta = np.zeros(m + 1)
    eta, ex, value = _linear_and_loglik(design_t, y, theta, penalty)
    trace = [value]
    converged = False
    iterations = 0
    for iterations in range(1, LOGISTIC_MAX_ITER + 1):
        prob = np.maximum(ex, eta >= 0) / (1.0 + ex)  # sigmoid(eta)
        weight = prob * (1.0 - prob)
        grad = design_t @ (y - prob) - penalty * theta
        hess = (design_t * weight) @ design_t.T
        hess[diagonal] += penalty
        if not np.isfinite(hess).all():  # the gradient overflows only where this does
            raise InvalidDataError(_FIT_OVERFLOWS)
        try:
            delta = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            delta = np.linalg.lstsq(hess, grad, rcond=None)[0]

        step = 1.0
        candidate = theta + delta
        eta, ex, value = _linear_and_loglik(design_t, y, candidate, penalty)
        while value < trace[-1] - 1e-12 and step > 1e-12:
            step *= 0.5
            candidate = theta + step * delta
            eta, ex, value = _linear_and_loglik(design_t, y, candidate, penalty)

        change = float(np.max(np.abs(candidate - theta)))
        theta = candidate
        trace.append(value)
        if change < LOGISTIC_TOL:
            converged = True
            break
    if not np.isfinite(trace).all():
        raise InvalidDataError(_FIT_OVERFLOWS)

    return LogisticModel(
        intercept=float(theta[0]),
        coefficients=theta[1:].copy(),
        converged=converged,
        n_iter=iterations,
        loglik_trace=np.asarray(trace),
    )

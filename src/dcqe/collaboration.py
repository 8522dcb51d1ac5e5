"""Construction of collaborative representations from party-private data.

Parties never share raw covariates. Each party fits a dimensionality
reduction on its own block, applies it to both its data and to its columns
of a shared anchor matrix of dummy rows, and ships only the pair of reduced
matrices ``(data_image, anchor_image)``. The analyst receives these pairs
as the party grid ``intermediates[k][l]``, row block ``k`` and column block
``l``, and aligns the per-row-block reduced spaces onto the leading left
singular vectors of the concatenated anchor images. Each row block's map
comes from the R factor of that combined image: with ``combined = Q R``,
``pinv(Q R_k) @ (Q U_R) = pinv(R_k) @ U_R`` is its pseudoinverse map in
exact arithmetic, and no factor as tall as the anchor is formed. The maps
are plain matrices in row-block order, and the assembled collaborative
representation is a plain matrix with one row per subject.

Analyst-side functions take only reduced images and the maps fitted from
them; no covariates, treatments or outcomes cross that boundary.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import AnchorError, CollaborationError, DimensionError
from .numerics import _pca, _project, ensure_matrix, pseudoinverse, svd_truncated


def generate_anchor(col_ranges: Sequence[tuple[float, float]], r: int, seed: int) -> np.ndarray:
    """The ``r`` x m anchor matrix, its column j uniform on the range ``col_ranges[j]``."""
    ranges = np.asarray(col_ranges, dtype=float)
    if ranges.ndim != 2 or ranges.shape[0] < 1 or ranges.shape[1] != 2:
        raise AnchorError("col_ranges must be a non-empty sequence of (min, max) pairs")
    if not np.all(np.isfinite(ranges)):
        raise AnchorError("anchor bounds must be finite")
    lows, highs = ranges[:, 0], ranges[:, 1]
    if np.any(lows > highs):
        raise AnchorError("every anchor range needs min <= max")
    with np.errstate(over="ignore"):  # an overflowing width is reported just below
        too_wide = np.flatnonzero(~np.isfinite(highs - lows))
    if too_wide.size:
        j = too_wide[0]
        raise AnchorError(f"anchor range {j} [{lows[j]:g}, {highs[j]:g}] is too wide: "
                          "its max - min overflows")
    if r < 1:
        raise AnchorError(f"anchor size must be positive, got {r}")
    return np.random.default_rng(seed).uniform(lows, highs, size=(int(r), ranges.shape[0]))


# A party's shared pair: its reduced data block and the reduced image of its anchor block.
Intermediate = tuple[np.ndarray, np.ndarray]


def make_intermediate(covariates: np.ndarray, anchor_block: np.ndarray,
                      target_dim: int) -> Intermediate:
    """Reduce one party's block and its anchor columns with a shared PCA fit.

    Returns ``(data_image, anchor_image)``. The PCA (including
    standardization) is fitted on the party's own data only, then applied to
    both the data and the anchor block, so the anchor image lives in the
    same reduced space. Reduction must be strict: ``target_dim`` has to be
    smaller than the block's covariate count. Both blocks are checked here;
    the party block is standardized only once.
    """
    block = ensure_matrix(anchor_block, "anchor_block")
    covariates = ensure_matrix(covariates, "party covariates")
    width = covariates.shape[1]
    if block.shape[1] != width:
        raise DimensionError(f"anchor block has {block.shape[1]} columns, party holds {width}")
    if not 1 <= target_dim < width:
        raise DimensionError(
            f"reduction must be strict: target_dim must be in [1, {width - 1}], got {target_dim}"
        )
    model, standardized = _pca(covariates, target_dim, "party covariates")
    return standardized.T @ model.components, _project(model, block)


def _check_grid(intermediates: Sequence[Sequence[Intermediate]]) -> None:
    """Reject an empty or ragged party grid, or anchor images of different heights."""
    if not intermediates or not intermediates[0]:
        raise CollaborationError("no intermediate representations supplied")
    parties = len(intermediates[0])
    for k, row in enumerate(intermediates):
        if len(row) != parties:
            raise CollaborationError(
                f"incomplete collaboration: row block {k} supplies {len(row)} column blocks, "
                f"row block 0 supplies {parties}"
            )
    if len({anchor.shape[0] for row in intermediates for _, anchor in row}) != 1:
        raise CollaborationError("anchor images disagree on their row count")


def fit_integration(intermediates: Sequence[Sequence[Intermediate]],
                    collaborative_dim: int) -> list[np.ndarray]:
    """Fit one alignment map per row block of the grid from its anchor images.

    The anchor images are concatenated per row block, those are concatenated
    side by side across row blocks, and the leading ``collaborative_dim``
    left singular vectors of the result become the shared basis. Row block
    ``k``'s map, item ``k`` of the result, is the pseudoinverse of its own
    anchor image times that basis, computed from the block's columns of the
    combined image's R factor.
    """
    _check_grid(intermediates)
    images = [anchor for row in intermediates for _, anchor in row]
    if collaborative_dim < 1:
        raise DimensionError(f"collaborative dimension must be positive, got {collaborative_dim}")
    if collaborative_dim > images[0].shape[0]:
        raise DimensionError(
            f"collaborative dimension {collaborative_dim} exceeds anchor size {images[0].shape[0]}"
        )
    combined = np.empty((images[0].shape[0], sum(image.shape[1] for image in images)), order="F")
    np.concatenate(images, axis=1, out=combined)  # column-major: faster to fill and to factor
    r = np.linalg.qr(combined, mode="r")
    # The shared basis cannot be wider than the combined anchor image; requests
    # beyond that (or beyond numerical rank) shrink silently and the effective
    # width is reported by the returned matrices.
    basis = svd_truncated(r, min(collaborative_dim, combined.shape[1])).u
    if basis.shape[1] == 0:
        raise CollaborationError(
            "the combined anchor image has numerical rank 0, so there is no shared basis; "
            "constant party columns are a likely cause"
        )
    widths = [sum(anchor.shape[1] for _, anchor in row) for row in intermediates]
    return [pseudoinverse(r_k) @ basis for r_k in np.split(r, np.cumsum(widths)[:-1], axis=1)]


def assemble_collaborative(intermediates: Sequence[Sequence[Intermediate]],
                           maps: Sequence[np.ndarray]) -> np.ndarray:
    """Stack each row block's data images, sent through its map, in block order.

    Row ``i`` of the result is subject ``i`` of the row blocks taken in order,
    so it lines up with their treatments and outcomes concatenated the same way.
    """
    _check_grid(intermediates)
    if len(maps) != len(intermediates):
        raise CollaborationError(
            f"{len(maps)} integration maps for {len(intermediates)} row blocks")
    if len({m.shape[1] for m in maps}) != 1:
        raise CollaborationError("integration maps disagree on the collaborative dimension")

    blocks = []
    for k, (row, m) in enumerate(zip(intermediates, maps)):
        stacked = np.hstack([data for data, _ in row])
        if stacked.shape[1] != m.shape[0]:
            raise CollaborationError(
                f"row block {k}: representation width {stacked.shape[1]} does not match "
                f"integration input width {m.shape[0]}"
            )
        blocks.append(stacked @ m)
    return np.vstack(blocks)

"""Construction of collaborative representations from party-private data.

Parties never share raw covariates. Each party fits a dimensionality
reduction on its own block, applies it to both its data and to its columns
of a shared anchor of dummy rows, ``lows + widths * U`` for r x m uniform U,
and ships only the pair of reduced matrices ``(data_image, anchor_image)``.
A PCA with standardization is affine, so with ``[1, U] = Q_U R_U`` a party
images its anchor columns from the ones column and its columns of ``R_U``:
it ships ``Q_U^T`` times their r x d image, (m + 1) x d. The analyst gets
the pairs as the party grid ``intermediates[k][l]``, row block ``k`` and
column block ``l``, and maps each row block by the pseudoinverse of its own
anchor images onto the leading left singular vectors of all of them, side by
side. The maps do not change when every image is premultiplied by one matrix
with orthonormal columns, so the shipped images give those of the r-row ones.
They are plain matrices in row-block order; the collaborative representation
they assemble has one row per subject.

Analyst-side functions take only reduced images and the maps fitted from
them; no covariates, treatments or outcomes cross that boundary.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import InvalidDataError
from .numerics import _columns, _pca, ensure_matrix, pseudoinverse, svd_truncated


def anchor_ranges(col_ranges: Sequence[tuple[float, float]]) -> np.ndarray:
    """The anchor's column ranges ``col_ranges``, (min, max) pairs, as (low, width) rows."""
    ranges = np.asarray(col_ranges, dtype=float)
    if ranges.ndim != 2 or ranges.shape[0] < 1 or ranges.shape[1] != 2:
        raise InvalidDataError("col_ranges must be a non-empty sequence of (min, max) pairs")
    if not np.all(np.isfinite(ranges)):
        raise InvalidDataError("anchor bounds must be finite")
    lows, highs = ranges.T
    if np.any(lows > highs):
        raise InvalidDataError("every anchor range needs min <= max")
    with np.errstate(over="ignore"):  # an overflowing width is reported just below
        widths = highs - lows
    if not np.all(np.isfinite(widths)):
        j = int(np.argmin(np.isfinite(widths)))
        raise InvalidDataError(f"anchor range {j} [{lows[j]:g}, {highs[j]:g}] is too wide: "
                               "its max - min overflows")
    return np.column_stack([lows, widths])


def generate_anchor(covariate_count: int, r: int, seed: int) -> np.ndarray:
    """The R factor of ``[1, U]``, U the ``r`` x ``covariate_count`` draws of ``random``
    under ``seed``; ``lows + widths * U`` is numpy's ``uniform`` of that seed, bit for bit."""
    if r < 1:
        raise InvalidDataError(f"anchor size must be positive, got {r}")
    tall = np.ones((int(r), covariate_count + 1), order="F")  # column-major: faster to factor
    tall[:, 1:] = np.random.default_rng(seed).random((int(r), covariate_count))
    return np.linalg.qr(tall, mode="r")


# A party's shared pair: its reduced data block and the reduced image of its anchor block.
Intermediate = tuple[np.ndarray, np.ndarray]


def make_intermediate(covariates: np.ndarray, anchor_factor: np.ndarray, ranges: np.ndarray,
                      target_dim: int, counts=None) -> Intermediate:
    """Reduce one party's block and its anchor columns with a shared PCA fit.

    ``anchor_factor`` holds the ones column of ``generate_anchor``'s factor,
    then the party's own columns; ``ranges`` holds their (low, width) rows.
    Returns ``(data_image, anchor_image)``. The PCA (with standardization) is
    fitted on the party's data only and applied to both: the anchor image is
    ``Q_U^T`` times that of ``lows + widths * U``, the ranges divided by the
    SDs first so that a range as wide as a double stays finite. ``target_dim``
    must be below the block's covariate count. The party block is copied once,
    then checked and standardized in place. Row ``i`` of it is fitted as
    ``counts[i]`` equal rows (one each by default) and imaged once.
    """
    party = _columns(covariates, "party covariates")
    factor = ensure_matrix(anchor_factor, "anchor factor")
    bounds = ensure_matrix(ranges, "anchor ranges")
    width = party.shape[0]
    if factor.shape[1] != 1 + width or bounds.shape != (width, 2):
        raise InvalidDataError(f"anchor factor has {factor.shape[1]} columns and anchor ranges "
                               f"shape {bounds.shape}, party holds {width} covariates")
    if not 1 <= target_dim < width:
        raise InvalidDataError(f"reduction must be strict: target_dim must be in "
                               f"[1, {width - 1}], got {target_dim}")
    model, standardized = _pca(party, target_dim, "party covariates", counts)
    (lows, widths), means, sd = bounds.T, model.means, model.stddevs
    image = factor[:, :1] * ((lows - means) / sd) + factor[:, 1:] * (widths / sd)
    return standardized.T @ model.components, image @ model.components


def _check_grid(intermediates: Sequence[Sequence[Intermediate]]) -> None:
    """Reject an empty or ragged party grid, or anchor images of different heights."""
    if not intermediates or not intermediates[0]:
        raise InvalidDataError("no intermediate representations supplied")
    parties = len(intermediates[0])
    for k, row in enumerate(intermediates):
        if len(row) != parties:
            raise InvalidDataError(
                f"incomplete collaboration: row block {k} supplies {len(row)} column blocks, "
                f"row block 0 supplies {parties}"
            )
    if len({anchor.shape[0] for row in intermediates for _, anchor in row}) != 1:
        raise InvalidDataError("anchor images disagree on their row count")


def fit_integration(intermediates: Sequence[Sequence[Intermediate]],
                    collaborative_dim: int) -> list[np.ndarray]:
    """Fit one alignment map per row block of the grid from its anchor images.

    The anchor images are concatenated per row block, those are concatenated
    side by side across row blocks, and the leading ``collaborative_dim``
    left singular vectors of the result become the shared basis. Row block
    ``k``'s map, item ``k`` of the result, is the pseudoinverse of its own
    anchor images times that basis.
    """
    _check_grid(intermediates)
    if collaborative_dim < 1:
        raise InvalidDataError(f"collaborative dimension must be positive, got {collaborative_dim}")
    images = [np.hstack([image for _, image in row]) for row in intermediates]
    combined = np.hstack(images)
    # The shared basis cannot be wider or taller than the combined anchor image;
    # requests beyond that (or beyond numerical rank) shrink silently and the
    # effective width is reported by the returned matrices.
    basis = svd_truncated(combined, min(collaborative_dim, *combined.shape)).u
    if basis.shape[1] == 0:
        raise InvalidDataError("the combined anchor image has numerical rank 0, so there is no "
                               "shared basis; constant party columns are a likely cause")
    return [pseudoinverse(image) @ basis for image in images]


def assemble_collaborative(intermediates: Sequence[Sequence[Intermediate]],
                           maps: Sequence[np.ndarray]) -> np.ndarray:
    """Stack each row block's data images, sent through its map, in block order.

    Row ``i`` of the result is subject ``i`` of the row blocks taken in order,
    so it lines up with their treatments and outcomes concatenated the same way.
    """
    _check_grid(intermediates)
    if len(maps) != len(intermediates):
        raise InvalidDataError(
            f"{len(maps)} integration maps for {len(intermediates)} row blocks")
    if len({m.shape[1] for m in maps}) != 1:
        raise InvalidDataError("integration maps disagree on the collaborative dimension")

    blocks = []
    for k, (row, m) in enumerate(zip(intermediates, maps)):
        stacked = np.hstack([data for data, _ in row])
        if stacked.shape[1] != m.shape[0]:
            raise InvalidDataError(
                f"row block {k}: representation width {stacked.shape[1]} does not match "
                f"integration input width {m.shape[0]}"
            )
        blocks.append(stacked @ m)
    return np.vstack(blocks)

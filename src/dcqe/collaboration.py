"""Construction of collaborative representations from party-private data.

Parties never share raw covariates. Each party fits a dimensionality
reduction on its own block, applies it to both its data and to its columns
of a shared anchor matrix of dummy rows, and ships only the reduced
matrices. The analyst aligns the per-row-block reduced spaces onto the
leading left singular vectors of the concatenated anchor images. Each row
block's map comes from the R factor of that combined image: with
``combined = Q R``, ``pinv(Q R_k) @ (Q U_R) = pinv(R_k) @ U_R`` is its
pseudoinverse map in exact arithmetic, and no factor as tall as the anchor
is formed. The assembled collaborative representation is a plain matrix
with one row per subject.

Analyst-side functions take only reduced representations and the maps
fitted from them; no covariates, treatments or outcomes cross that boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .datamodel import PartyView
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


@dataclass(frozen=True, eq=False)
class IntermediateRepresentation:
    """A party's reduced data block and the reduced image of its anchor block."""

    row_index: int
    col_index: int
    data_rep: np.ndarray
    anchor_rep: np.ndarray

    def __post_init__(self):
        if self.data_rep.shape[1] != self.anchor_rep.shape[1]:
            raise DimensionError("data and anchor representations must share their width")

    @property
    def reduced_dim(self) -> int:
        return self.data_rep.shape[1]


def make_intermediate(view: PartyView, anchor_block: np.ndarray,
                      target_dim: int) -> IntermediateRepresentation:
    """Reduce one party's block and its anchor columns with a shared PCA fit.

    The PCA (including standardization) is fitted on the party's own data
    only, then applied to both the data and the anchor block, so the anchor
    image lives in the same reduced space. Reduction must be strict:
    ``target_dim`` has to be smaller than the block's covariate count.
    Both blocks are checked here; the party block is standardized only once.
    """
    block = ensure_matrix(anchor_block, "anchor_block")
    covariates = ensure_matrix(view.covariates, "party covariates")
    if block.shape[1] != view.covariate_count:
        raise DimensionError(
            f"anchor block has {block.shape[1]} columns, party holds {view.covariate_count}"
        )
    if not 1 <= target_dim < view.covariate_count:
        raise DimensionError(
            f"reduction must be strict: target_dim must be in [1, {view.covariate_count - 1}], "
            f"got {target_dim}"
        )
    model, standardized = _pca(covariates, target_dim)
    return IntermediateRepresentation(
        row_index=view.row_index,
        col_index=view.col_index,
        data_rep=standardized.T @ model.components,
        anchor_rep=_project(model, block),
    )


@dataclass(frozen=True, eq=False)
class IntegrationFunction:
    """Linear map sending one row block's concatenated reduced space to the shared basis."""

    row_index: int
    matrix: np.ndarray

    @property
    def collaborative_dim(self) -> int:
        return self.matrix.shape[1]


def _group_by_row_block(
    intermediates: Sequence[IntermediateRepresentation],
) -> dict[int, dict[int, IntermediateRepresentation]]:
    if not intermediates:
        raise CollaborationError("no intermediate representations supplied")
    groups: dict[int, dict[int, IntermediateRepresentation]] = {}
    for rep in intermediates:
        block = groups.setdefault(rep.row_index, {})
        if rep.col_index in block:
            raise CollaborationError(
                f"duplicate intermediate representation for party ({rep.row_index}, {rep.col_index})"
            )
        block[rep.col_index] = rep
    col_sets = {k: tuple(sorted(block)) for k, block in groups.items()}
    expected = next(iter(col_sets.values()))
    for k, cols in col_sets.items():
        if cols != expected:
            raise CollaborationError(
                f"incomplete collaboration: row block {k} supplies column blocks {cols}, "
                f"expected {expected}"
            )
    anchor_rows = {block[l].anchor_rep.shape[0] for block in groups.values() for l in block}
    if len(anchor_rows) != 1:
        raise CollaborationError("anchor representations disagree on their row count")
    return groups


def fit_integration(intermediates: Sequence[IntermediateRepresentation],
                    collaborative_dim: int) -> list[IntegrationFunction]:
    """Fit one alignment map per row block from the anchor images.

    The anchor images are concatenated per row block, those are concatenated
    side by side across row blocks, and the leading ``collaborative_dim``
    left singular vectors of the result become the shared basis. Each row
    block's map is the pseudoinverse of its own anchor image times that basis,
    computed from the block's columns of the combined image's R factor.
    """
    groups = _group_by_row_block(intermediates)
    images = [groups[k][l].anchor_rep for k in sorted(groups) for l in sorted(groups[k])]
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
    widths = [sum(rep.anchor_rep.shape[1] for rep in groups[k].values()) for k in sorted(groups)]
    return [IntegrationFunction(k, pseudoinverse(r_k) @ basis)
            for k, r_k in zip(sorted(groups), np.split(r, np.cumsum(widths)[:-1], axis=1))]


def assemble_collaborative(intermediates: Sequence[IntermediateRepresentation],
                           integrations: Sequence[IntegrationFunction]) -> np.ndarray:
    """Stack each row block's aligned representation in block order.

    Row ``i`` of the result is subject ``i`` of the row blocks taken in order,
    so it lines up with their treatments and outcomes concatenated the same way.
    """
    groups = _group_by_row_block(intermediates)
    maps = {g.row_index: g.matrix for g in integrations}
    if set(maps) != set(groups):
        raise CollaborationError(
            f"integration functions cover row blocks {sorted(maps)}, "
            f"representations cover {sorted(groups)}"
        )
    widths = {m.shape[1] for m in maps.values()}
    if len(widths) != 1:
        raise CollaborationError("integration functions disagree on the collaborative dimension")

    blocks = []
    for k in sorted(groups):
        stacked = np.hstack([groups[k][l].data_rep for l in sorted(groups[k])])
        if stacked.shape[1] != maps[k].shape[0]:
            raise CollaborationError(
                f"row block {k}: representation width {stacked.shape[1]} does not match "
                f"integration input width {maps[k].shape[0]}"
            )
        blocks.append(stacked @ maps[k])
    return np.vstack(blocks)

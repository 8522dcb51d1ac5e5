"""Construction of collaborative representations from party-private data.

Parties never share raw covariates. Each party fits a dimensionality
reduction on its own block, applies it to both its data and to a shared
anchor dataset of dummy rows, and ships only the reduced matrices. The
analyst aligns the per-row-block reduced spaces by taking a truncated SVD
of the concatenated anchor images and mapping every block onto the shared
left-singular basis with a pseudoinverse.

Analyst-side functions in this module accept reduced representations and
per-row-block treatments/outcomes only; no covariate-bearing type crosses
that boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .datamodel import PartyView
from .errors import AnchorError, CollaborationError, DimensionError, InvalidDataError
from .numerics import _project, ensure_matrix, pca_fit, pseudoinverse, svd_truncated


@dataclass(frozen=True, eq=False)
class AnchorDataset:
    """Shareable dummy rows spanning all covariate columns."""

    values: np.ndarray
    column_blocks: tuple[int, ...]

    def __post_init__(self):
        values = ensure_matrix(self.values, "anchor values")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "column_blocks", tuple(int(v) for v in self.column_blocks))
        if any(v < 1 for v in self.column_blocks):
            raise AnchorError("anchor column blocks must be non-empty")
        if sum(self.column_blocks) != values.shape[1]:
            raise AnchorError(
                f"anchor column blocks sum to {sum(self.column_blocks)}, "
                f"values have {values.shape[1]} columns"
            )

    def block(self, l: int) -> np.ndarray:
        """The anchor columns belonging to column block ``l``."""
        offsets = np.concatenate([[0], np.cumsum(self.column_blocks)])
        return self.values[:, offsets[l]:offsets[l + 1]]


def generate_anchor(col_ranges: Sequence[tuple[float, float]], r: int, seed: int,
                    column_blocks: Sequence[int] | None = None) -> AnchorDataset:
    """Draw ``r`` anchor rows with each column uniform on its (min, max) range."""
    ranges = np.asarray(col_ranges, dtype=float)
    if ranges.ndim != 2 or ranges.shape[0] < 1 or ranges.shape[1] != 2:
        raise AnchorError("col_ranges must be a non-empty sequence of (min, max) pairs")
    if not np.all(np.isfinite(ranges)):
        raise AnchorError("anchor bounds must be finite")
    lows, highs = ranges[:, 0], ranges[:, 1]
    if np.any(lows > highs):
        raise AnchorError("every anchor range needs min <= max")
    if r < 1:
        raise AnchorError(f"anchor size must be positive, got {r}")
    if column_blocks is None:
        column_blocks = (ranges.shape[0],)
    rng = np.random.default_rng(seed)
    values = rng.uniform(lows, highs, size=(int(r), ranges.shape[0]))
    return AnchorDataset(values, tuple(column_blocks))


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
    The anchor block and the party block's rank are checked here, the rest by ``pca_fit``.
    """
    block = ensure_matrix(anchor_block, "anchor_block")
    if np.ndim(view.covariates) != 2:
        raise InvalidDataError("party covariates must be 2-dimensional")
    if block.shape[1] != view.covariate_count:
        raise DimensionError(
            f"anchor block has {block.shape[1]} columns, party holds {view.covariate_count}"
        )
    if not 1 <= target_dim < view.covariate_count:
        raise DimensionError(
            f"reduction must be strict: target_dim must be in [1, {view.covariate_count - 1}], "
            f"got {target_dim}"
        )
    model = pca_fit(view.covariates, target_dim)
    return IntermediateRepresentation(
        row_index=view.row_index,
        col_index=view.col_index,
        data_rep=_project(model, view.covariates),
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


def _concat_anchor(groups: dict[int, dict[int, IntermediateRepresentation]], k: int) -> np.ndarray:
    return np.hstack([groups[k][l].anchor_rep for l in sorted(groups[k])])


def _shared_basis(groups: dict[int, dict[int, IntermediateRepresentation]],
                  collaborative_dim: int) -> np.ndarray:
    first_block = next(iter(groups.values()))
    anchor_rows = next(iter(first_block.values())).anchor_rep.shape[0]
    if collaborative_dim < 1:
        raise DimensionError(f"collaborative dimension must be positive, got {collaborative_dim}")
    if collaborative_dim > anchor_rows:
        raise DimensionError(
            f"collaborative dimension {collaborative_dim} exceeds anchor size {anchor_rows}"
        )
    combined = np.hstack([_concat_anchor(groups, k) for k in sorted(groups)])
    # The shared basis cannot be wider than the combined anchor image; requests
    # beyond that (or beyond numerical rank) shrink silently and the effective
    # width is reported by the returned matrices.
    rank = min(collaborative_dim, combined.shape[1])
    basis = svd_truncated(combined, rank).u
    if basis.shape[1] == 0:
        raise CollaborationError(
            "the combined anchor image has numerical rank 0, so there is no shared basis; "
            "constant party columns are a likely cause"
        )
    return basis


def fit_integration(intermediates: Sequence[IntermediateRepresentation],
                    collaborative_dim: int) -> list[IntegrationFunction]:
    """Fit one alignment map per row block from the anchor images.

    The anchor images are concatenated per row block, those are concatenated
    side by side across row blocks, and the leading ``collaborative_dim``
    left singular vectors of the result become the shared basis. Each row
    block's map is the pseudoinverse of its own anchor image times that basis.
    """
    groups = _group_by_row_block(intermediates)
    basis = _shared_basis(groups, collaborative_dim)
    return [
        IntegrationFunction(row_index=k, matrix=pseudoinverse(_concat_anchor(groups, k)) @ basis)
        for k in sorted(groups)
    ]


@dataclass(frozen=True, eq=False)
class CollaborativeRepresentation:
    """Aligned representation of all subjects plus their treatments and outcomes."""

    values: np.ndarray
    row_blocks: tuple[int, ...]
    treatments: np.ndarray
    outcomes: np.ndarray

    @property
    def subject_count(self) -> int:
        return self.values.shape[0]

    @property
    def collaborative_dim(self) -> int:
        return self.values.shape[1]


def assemble_collaborative(
    intermediates: Sequence[IntermediateRepresentation],
    integrations: Sequence[IntegrationFunction],
    treatments_by_block: Mapping[int, np.ndarray],
    outcomes_by_block: Mapping[int, np.ndarray],
) -> CollaborativeRepresentation:
    """Stack each row block's aligned representation in block order.

    Treatments and outcomes are concatenated in the same order, so row ``i``
    of the result corresponds to entry ``i`` of both vectors.
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

    blocks, sizes, z_parts, y_parts = [], [], [], []
    for k in sorted(groups):
        stacked = np.hstack([groups[k][l].data_rep for l in sorted(groups[k])])
        if stacked.shape[1] != maps[k].shape[0]:
            raise CollaborationError(
                f"row block {k}: representation width {stacked.shape[1]} does not match "
                f"integration input width {maps[k].shape[0]}"
            )
        if k not in treatments_by_block or k not in outcomes_by_block:
            raise CollaborationError(f"missing treatments or outcomes for row block {k}")
        z = np.asarray(treatments_by_block[k])
        y = np.asarray(outcomes_by_block[k], dtype=float)
        if z.shape[0] != stacked.shape[0] or y.shape[0] != stacked.shape[0]:
            raise CollaborationError(
                f"row block {k}: treatments/outcomes length does not match its subject count"
            )
        blocks.append(stacked @ maps[k])
        sizes.append(stacked.shape[0])
        z_parts.append(z)
        y_parts.append(y)

    return CollaborativeRepresentation(
        values=np.vstack(blocks),
        row_blocks=tuple(sizes),
        treatments=np.concatenate(z_parts),
        outcomes=np.concatenate(y_parts),
    )

"""Datasets, block partitions across parties, and collaboration scopes.

A dataset of ``n`` subjects and ``m`` covariates is split into a grid of
row blocks (groups of subjects held by different institutions) and column
blocks (groups of covariates held by different parties). All types here are
immutable value objects and every operation is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidDataError
from .numerics import ensure_binary_labels, ensure_matrix, ensure_vector

SCOPE_KINDS = ("left", "right", "top", "bottom", "whole", "custom")


@dataclass(frozen=True, eq=False)
class Dataset:
    """Covariates (n x m), binary treatments and real outcomes of length n."""

    covariates: np.ndarray
    treatments: np.ndarray
    outcomes: np.ndarray

    def __post_init__(self):
        cov = ensure_matrix(self.covariates, "covariates")
        z = ensure_binary_labels(self.treatments, "treatments", length=cov.shape[0])
        y = ensure_vector(self.outcomes, "outcomes", length=cov.shape[0])
        object.__setattr__(self, "covariates", cov)
        object.__setattr__(self, "treatments", z)
        object.__setattr__(self, "outcomes", y)

    @property
    def subject_count(self) -> int:
        return self.covariates.shape[0]

    @property
    def covariate_count(self) -> int:
        return self.covariates.shape[1]


@dataclass(frozen=True)
class PartitionSpec:
    """Sizes of the row blocks and column blocks of the party grid."""

    row_blocks: tuple[int, ...]
    col_blocks: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "row_blocks", tuple(int(v) for v in self.row_blocks))
        object.__setattr__(self, "col_blocks", tuple(int(v) for v in self.col_blocks))
        if not self.row_blocks or not self.col_blocks:
            raise InvalidDataError("partition needs at least one row block and one column block")
        if any(v < 1 for v in self.row_blocks) or any(v < 1 for v in self.col_blocks):
            raise InvalidDataError("every partition block must be non-empty")

    @property
    def subject_count(self) -> int:
        return sum(self.row_blocks)

    @property
    def covariate_count(self) -> int:
        return sum(self.col_blocks)

    def row_slice(self, k: int) -> slice:
        start = sum(self.row_blocks[:k])
        return slice(start, start + self.row_blocks[k])

    def col_slice(self, l: int) -> slice:
        start = sum(self.col_blocks[:l])
        return slice(start, start + self.col_blocks[l])

    def validate_for(self, data: Dataset) -> None:
        if self.subject_count != data.subject_count or self.covariate_count != data.covariate_count:
            raise InvalidDataError(
                f"partition covers {self.subject_count} x {self.covariate_count}, "
                f"dataset is {data.subject_count} x {data.covariate_count}"
            )


def partition(data: Dataset, spec: PartitionSpec) -> list[list[np.ndarray]]:
    """Split a dataset's covariates into the party grid: ``blocks[k][l]`` is party (k, l)'s.

    The blocks are slices of the dataset's array: they share its memory.
    """
    spec.validate_for(data)
    return _party_blocks(data.covariates, spec)


def _party_blocks(covariates: np.ndarray, spec: PartitionSpec) -> list[list[np.ndarray]]:
    """``partition`` of covariates already checked and sized to ``spec``, without copies."""
    return [[covariates[spec.row_slice(k), spec.col_slice(l)] for l in range(len(spec.col_blocks))]
            for k in range(len(spec.row_blocks))]


@dataclass(frozen=True)
class CollaborationScope:
    """Which parties of the grid pool their intermediate representations.

    A scope is always a full rectangular sub-grid: the cross product of its
    row-block indices and column-block indices.
    """

    kind: str
    row_indices: tuple[int, ...]
    col_indices: tuple[int, ...]

    def __post_init__(self):
        if self.kind not in SCOPE_KINDS:
            raise InvalidDataError(f"unknown scope kind {self.kind!r}")
        rows = tuple(sorted(set(int(v) for v in self.row_indices)))
        cols = tuple(sorted(set(int(v) for v in self.col_indices)))
        if not rows or not cols:
            raise InvalidDataError("scope must include at least one row and one column block")
        if any(v < 0 for v in rows) or any(v < 0 for v in cols):
            raise InvalidDataError("scope indices must be non-negative")
        object.__setattr__(self, "row_indices", rows)
        object.__setattr__(self, "col_indices", cols)

    @classmethod
    def build(cls, kind: str, spec: PartitionSpec) -> CollaborationScope:
        """Construct a named scope (left/right/top/bottom/whole) for a grid."""
        c, d = len(spec.row_blocks), len(spec.col_blocks)
        if kind == "left":
            return cls(kind, tuple(range(c)), (0,))
        if kind == "right":
            return cls(kind, tuple(range(c)), (d - 1,))
        if kind == "top":
            return cls(kind, (0,), tuple(range(d)))
        if kind == "bottom":
            return cls(kind, (c - 1,), tuple(range(d)))
        if kind == "whole":
            return cls(kind, tuple(range(c)), tuple(range(d)))
        raise InvalidDataError(
            "scope kind 'custom' needs explicit indices" if kind == "custom" else
            f"unknown scope kind {kind!r}, expected one of {', '.join(SCOPE_KINDS)}")

    @classmethod
    def custom(cls, rows, cols) -> CollaborationScope:
        return cls("custom", tuple(rows), tuple(cols))

    @classmethod
    def single_party(cls, k: int, l: int) -> CollaborationScope:
        return cls("custom", (k,), (l,))


def scoped_partition(spec: PartitionSpec, scope: CollaborationScope
                     ) -> tuple[PartitionSpec, np.ndarray, np.ndarray]:
    """The partition restricted to the scope's blocks, and the global subject and covariate
    indices the scope covers, in dataset order; a scope outside the grid is invalid data.
    """
    for axis, last, count in (("row", scope.row_indices[-1], len(spec.row_blocks)),
                              ("column", scope.col_indices[-1], len(spec.col_blocks))):
        if last >= count:
            raise InvalidDataError(
                f"scope {axis} block {last} out of range (partition has {count})")
    rows = np.r_[tuple(map(spec.row_slice, scope.row_indices))]  # the blocks' ranges, joined
    cols = np.r_[tuple(map(spec.col_slice, scope.col_indices))]
    sub_spec = PartitionSpec(tuple(spec.row_blocks[k] for k in scope.row_indices),
                             tuple(spec.col_blocks[l] for l in scope.col_indices))
    return sub_spec, rows, cols

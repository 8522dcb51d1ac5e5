import numpy as np
import pytest

from dcqe.datamodel import (
    CollaborationScope,
    Dataset,
    PartitionSpec,
    partition,
    scope_col_indices,
    scoped_partition,
    scope_row_indices,
)
from dcqe.errors import InvalidDataError, PartitionError, ScopeError


def make_dataset(n, m, seed=0):
    rng = np.random.default_rng(seed)
    z = np.zeros(n, dtype=int)
    z[: n // 2] = 1
    rng.shuffle(z)
    return Dataset(rng.normal(size=(n, m)), z, rng.normal(size=n))


def reassemble(views, spec):
    row_blocks = []
    for k in range(spec.row_block_count):
        row = [v.covariates for v in views if v.row_index == k]
        row_blocks.append(np.hstack(row))
    return np.vstack(row_blocks)


class TestDataset:
    def test_rejects_non_binary_treatments(self):
        with pytest.raises(InvalidDataError):
            Dataset(np.ones((3, 2)), [0, 1, 2], [0.0, 1.0, 2.0])

    def test_rejects_single_group(self):
        with pytest.raises(InvalidDataError):
            Dataset(np.ones((3, 2)), [1, 1, 1], [0.0, 1.0, 2.0])

    def test_rejects_length_mismatch(self):
        with pytest.raises(InvalidDataError):
            Dataset(np.ones((3, 2)), [0, 1], [0.0, 1.0])


class TestPartition:
    def test_two_by_two_equal_split(self):
        data = make_dataset(4, 6)
        views = partition(data, PartitionSpec((2, 2), (3, 3)))
        assert len(views) == 4
        assert all(v.covariates.shape == (2, 3) for v in views)

    def test_benchmark_scale_split(self):
        data = make_dataset(1000, 6)
        views = partition(data, PartitionSpec((500, 500), (3, 3)))
        assert all(v.covariates.shape == (500, 3) for v in views)

    def test_identity_partition(self):
        data = make_dataset(5, 3)
        views = partition(data, PartitionSpec((5,), (3,)))
        assert len(views) == 1
        np.testing.assert_array_equal(views[0].covariates, data.covariates)

    def test_round_trip_is_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            c = rng.integers(1, 4)
            d = rng.integers(1, 4)
            row_blocks = tuple(int(v) for v in rng.integers(2, 6, c))
            col_blocks = tuple(int(v) for v in rng.integers(1, 5, d))
            spec = PartitionSpec(row_blocks, col_blocks)
            data = make_dataset(spec.subject_count, spec.covariate_count, seed=int(rng.integers(1000)))
            views = partition(data, spec)
            np.testing.assert_array_equal(reassemble(views, spec), data.covariates)

    def test_inconsistent_spec_rejected(self):
        data = make_dataset(10, 4)
        with pytest.raises(PartitionError):
            partition(data, PartitionSpec((5, 4), (2, 2)))

    def test_empty_block_rejected(self):
        with pytest.raises(PartitionError):
            PartitionSpec((5, 0), (2, 2))


def scoped_covariates(data, spec, scope):
    """The covariates a collaboration could at best see: its rows and columns of the data."""
    return data.covariates[np.ix_(scope_row_indices(spec, scope), scope_col_indices(spec, scope))]


class TestCollaborationScope:
    def test_whole_scope_is_identity(self):
        data = make_dataset(10, 4)
        spec = PartitionSpec((6, 4), (2, 2))
        scope = CollaborationScope.build("whole", spec)
        np.testing.assert_array_equal(scoped_covariates(data, spec, scope), data.covariates)
        np.testing.assert_array_equal(scope_row_indices(spec, scope), np.arange(10))

    def test_left_scope_keeps_all_subjects_first_columns(self):
        data = make_dataset(10, 5)
        spec = PartitionSpec((6, 4), (2, 3))
        scoped = scoped_covariates(data, spec, CollaborationScope.build("left", spec))
        assert scoped.shape == (10, 2)
        np.testing.assert_array_equal(scoped, data.covariates[:, :2])

    def test_top_scope_on_benchmark_layout(self):
        data = make_dataset(1000, 6)
        spec = PartitionSpec((500, 500), (3, 3))
        scoped = scoped_covariates(data, spec, CollaborationScope.build("top", spec))
        np.testing.assert_array_equal(scoped, data.covariates[:500])

    def test_scope_sizes_match_block_sums(self):
        data = make_dataset(12, 6)
        spec = PartitionSpec((3, 4, 5), (1, 2, 3))
        scope = CollaborationScope.custom((0, 2), (1, 2))
        assert scoped_covariates(data, spec, scope).shape == (3 + 5, 2 + 3)
        sub = scoped_partition(spec, scope)
        assert sub.row_blocks == (3, 5)
        assert sub.col_blocks == (2, 3)

    def test_row_indices_follow_dataset_order(self):
        spec = PartitionSpec((3, 4, 5), (2, 2))
        scope = CollaborationScope.custom((0, 2), (0,))
        rows = scope_row_indices(spec, scope)
        np.testing.assert_array_equal(rows, [0, 1, 2, 7, 8, 9, 10, 11])

    def test_named_scopes_cover_expected_parties(self):
        spec = PartitionSpec((2, 2), (2, 2))
        assert CollaborationScope.build("left", spec).parties == {(0, 0), (1, 0)}
        assert CollaborationScope.build("right", spec).parties == {(0, 1), (1, 1)}
        assert CollaborationScope.build("top", spec).parties == {(0, 0), (0, 1)}
        assert CollaborationScope.build("bottom", spec).parties == {(1, 0), (1, 1)}
        assert len(CollaborationScope.build("whole", spec).parties) == 4

    def test_out_of_range_scope_rejected(self):
        spec = PartitionSpec((2, 2), (2, 2))
        with pytest.raises(ScopeError):
            CollaborationScope.custom((0, 5), (0,)).validate_for(spec)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ScopeError):
            CollaborationScope("diagonal", (0,), (0,))

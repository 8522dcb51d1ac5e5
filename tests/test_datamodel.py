import re

import numpy as np
import pytest

from dcqe.datamodel import (
    CollaborationScope,
    Dataset,
    PartitionSpec,
    partition,
    scoped_partition,
)
from dcqe.errors import InvalidDataError


def make_dataset(n, m, seed=0):
    rng = np.random.default_rng(seed)
    z = np.zeros(n, dtype=int)
    z[: n // 2] = 1
    rng.shuffle(z)
    return Dataset(rng.normal(size=(n, m)), z, rng.normal(size=n))


def reassemble(blocks):
    return np.vstack([np.hstack(row) for row in blocks])


class TestDataset:
    def test_rejects_non_binary_treatments(self):
        with pytest.raises(InvalidDataError):
            Dataset(np.ones((3, 2)), [0, 1, 2], [0.0, 1.0, 2.0])

    def test_rejects_single_group(self):
        with pytest.raises(InvalidDataError):
            Dataset(np.ones((3, 2)), [1, 1, 1], [0.0, 1.0, 2.0])

    @pytest.mark.parametrize("treatments, outcomes, short", [
        ([0, 1], [0.0, 1.0, 2.0], "treatments"),
        ([0, 1, 0], [0.0, 1.0], "outcomes"),
    ], ids=["treatments", "outcomes"])
    def test_rejects_length_mismatch(self, treatments, outcomes, short):
        with pytest.raises(InvalidDataError, match=f"^{short} must have length 3, got 2$"):
            Dataset(np.ones((3, 2)), treatments, outcomes)


class TestPartition:
    def test_two_by_two_equal_split(self):
        data = make_dataset(4, 6)
        blocks = partition(data, PartitionSpec((2, 2), (3, 3)))
        assert [len(row) for row in blocks] == [2, 2]
        assert all(block.shape == (2, 3) for row in blocks for block in row)

    def test_benchmark_scale_split(self):
        data = make_dataset(1000, 6)
        blocks = partition(data, PartitionSpec((500, 500), (3, 3)))
        assert all(block.shape == (500, 3) for row in blocks for block in row)

    def test_identity_partition(self):
        data = make_dataset(5, 3)
        blocks = partition(data, PartitionSpec((5,), (3,)))
        assert [len(row) for row in blocks] == [1]
        np.testing.assert_array_equal(blocks[0][0], data.covariates)

    def test_round_trip_is_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            c = rng.integers(1, 4)
            d = rng.integers(1, 4)
            row_blocks = tuple(int(v) for v in rng.integers(2, 6, c))
            col_blocks = tuple(int(v) for v in rng.integers(1, 5, d))
            spec = PartitionSpec(row_blocks, col_blocks)
            data = make_dataset(spec.subject_count, spec.covariate_count, seed=int(rng.integers(1000)))
            blocks = partition(data, spec)
            assert [len(row) for row in blocks] == [d] * c
            np.testing.assert_array_equal(reassemble(blocks), data.covariates)

    def test_inconsistent_spec_rejected(self):
        data = make_dataset(10, 4)
        message = "partition covers 9 x 4, dataset is 10 x 4"
        with pytest.raises(InvalidDataError, match=f"^{re.escape(message)}$"):
            partition(data, PartitionSpec((5, 4), (2, 2)))

    def test_empty_block_rejected(self):
        message = "every partition block must be non-empty"
        with pytest.raises(InvalidDataError, match=f"^{re.escape(message)}$"):
            PartitionSpec((5, 0), (2, 2))


def scoped_covariates(data, spec, scope):
    """The covariates a collaboration could at best see: its rows and columns of the data."""
    _, rows, cols = scoped_partition(spec, scope)
    return data.covariates[np.ix_(rows, cols)]


class TestCollaborationScope:
    def test_whole_scope_is_identity(self):
        data = make_dataset(10, 4)
        spec = PartitionSpec((6, 4), (2, 2))
        scope = CollaborationScope.build("whole", spec)
        np.testing.assert_array_equal(scoped_covariates(data, spec, scope), data.covariates)
        np.testing.assert_array_equal(scoped_partition(spec, scope)[1], np.arange(10))

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
        sub = scoped_partition(spec, scope)[0]
        assert sub.row_blocks == (3, 5)
        assert sub.col_blocks == (2, 3)

    def test_row_indices_follow_dataset_order(self):
        spec = PartitionSpec((3, 4, 5), (2, 2))
        scope = CollaborationScope.custom((0, 2), (0,))
        _, rows, cols = scoped_partition(spec, scope)
        np.testing.assert_array_equal(rows, [0, 1, 2, 7, 8, 9, 10, 11])
        np.testing.assert_array_equal(cols, [0, 1])

    def test_named_scopes_cover_expected_parties(self):
        spec = PartitionSpec((2, 2), (2, 2))
        expected = {"left": ((0, 1), (0,)), "right": ((0, 1), (1,)), "top": ((0,), (0, 1)),
                    "bottom": ((1,), (0, 1)), "whole": ((0, 1), (0, 1))}
        for kind, (rows, cols) in expected.items():
            scope = CollaborationScope.build(kind, spec)
            assert (scope.row_indices, scope.col_indices) == (rows, cols)

    def test_out_of_range_scope_rejected(self):
        spec = PartitionSpec((2, 2), (2, 2))
        with pytest.raises(InvalidDataError, match=r"^scope row block 5 out of range \(partition has 2"):
            scoped_partition(spec, CollaborationScope.custom((0, 5), (0,)))
        with pytest.raises(InvalidDataError, match=r"^scope column block 2 out of range"):
            scoped_partition(spec, CollaborationScope.custom((0,), (2,)))

    def test_unknown_kind_rejected(self):
        message = "unknown scope kind 'diagonal'"
        with pytest.raises(InvalidDataError, match=f"^{re.escape(message)}$"):
            CollaborationScope("diagonal", (0,), (0,))


class TestRejectionMessages:
    @pytest.mark.parametrize("build, message", [
        (lambda: PartitionSpec((), (3,)),
         "partition needs at least one row block and one column block"),
        (lambda: PartitionSpec((3,), ()),
         "partition needs at least one row block and one column block"),
        (lambda: CollaborationScope("custom", (), (0,)),
         "scope must include at least one row and one column block"),
        (lambda: CollaborationScope("custom", (0,), ()),
         "scope must include at least one row and one column block"),
        (lambda: CollaborationScope("custom", (-1,), (0,)), "scope indices must be non-negative"),
        (lambda: CollaborationScope("custom", (0,), (0, -2)),
         "scope indices must be non-negative"),
    ], ids=["no-row-block", "no-col-block", "scope-no-row", "scope-no-col", "scope-negative-row",
            "scope-negative-col"])
    def test_rejected_with_message(self, build, message):
        with pytest.raises(InvalidDataError, match=f"^{re.escape(message)}$"):
            build()

"""Strict CSV ingestion for datasets and party files.

Files are comma-separated UTF-8 with a required header row, decimal-point
reals, and no quoting of numerics. Validation is strict: every cell must
parse, treatments must be exactly "0" or "1", and errors carry the row and
column they were found at (rows counted from 1, excluding the header).

Cells are parsed a column at a time, but errors are reported as a
row-by-row reader would report them: a ragged row before any cell is
parsed, and of several bad cells the first in file order (row by row, then
left to right over the columns a loader reads).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .datamodel import Dataset, PartitionSpec
from .errors import IngestionError


@dataclass(frozen=True)
class TabularSchema:
    """Expected columns of a dataset CSV."""

    covariates: tuple[str, ...]
    treatment: str
    outcome: str
    id_column: str | None = None


def _read_columns(path) -> tuple[list[str], list[list[str]], int]:
    """Stripped header, stripped cells column by column, and the data row count."""
    path = Path(path)
    if not path.is_file():
        raise IngestionError(f"input file not found: {path}")
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header, rows, failure = [], [], None
        try:
            header = [name.strip() for name in next(reader)]
            rows.extend(reader)
        except StopIteration:
            raise IngestionError(f"{path}: file is empty, a header row is required") from None
        except csv.Error as exc:  # e.g. a cell longer than csv.field_size_limit()
            failure = exc  # raised after any ragged row read before it
        except UnicodeDecodeError as exc:
            raise IngestionError(f"{path}: {exc}") from exc
    if set(map(len, rows)) - {len(header)}:
        number, row = next((i, row) for i, row in enumerate(rows, 1) if len(row) != len(header))
        raise IngestionError(f"{path}: row {number} has {len(row)} cells, header has {len(header)}")
    if failure is not None:
        raise IngestionError(f"{path}: line {reader.line_num}: {failure}") from failure
    columns = [list(map(str.strip, column)) for column in zip(*rows)]
    return header, columns or [[] for _ in header], len(rows)


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


def _real_column(cells: list[str]) -> np.ndarray:
    values = np.fromiter(map(float, cells), float, count=len(cells))
    if not np.isfinite(values).all():
        raise ValueError("non-finite value")
    return values


def _treatment_column(cells: list[str]) -> np.ndarray:
    if not set(cells) <= {"0", "1"}:
        raise ValueError("treatment other than \"0\" or \"1\"")
    return np.fromiter(map(int, cells), np.int64, count=len(cells))


# Column kinds: the whole-column parser and the per-cell parser that names a bad cell.
_REAL = (_real_column, _parse_real)
_TREATMENT = (_treatment_column, _parse_treatment)


def _parse_columns(path, header: list[str], columns: list[list[str]],
                   fields: list[tuple[int, tuple]]) -> list[np.ndarray]:
    """Parse each (column index, kind) field into an array, in ``fields`` order."""
    try:
        return [parse_column(columns[idx]) for idx, (parse_column, _) in fields]
    except ValueError:
        # Rescan row by row so the error names the first bad cell in file order.
        cells_by_row = zip(*(columns[idx] for idx, _ in fields))
        for number, cells in enumerate(cells_by_row, start=1):
            for (idx, (_, parse_cell)), cell in zip(fields, cells):
                parse_cell(cell, number, header[idx], path)
        raise


def ingest_csv(path, schema: TabularSchema) -> tuple[Dataset, list[str] | None]:
    """Read a dataset CSV against a schema; returns the dataset and the ids."""
    header, columns, count = _read_columns(path)
    if count < 2:
        raise IngestionError(f"{path}: need at least 2 data rows, found {count}")
    cov_idx = [_column_index(header, name, path) for name in schema.covariates]
    z_idx = _column_index(header, schema.treatment, path)
    y_idx = _column_index(header, schema.outcome, path)
    id_idx = _column_index(header, schema.id_column, path) if schema.id_column else None

    fields = [(idx, _REAL) for idx in cov_idx] + [(z_idx, _TREATMENT), (y_idx, _REAL)]
    *covariates, treatments, outcomes = _parse_columns(path, header, columns, fields)
    try:
        matrix = np.column_stack(covariates) if covariates else np.empty((count, 0))
        dataset = Dataset(matrix, treatments, outcomes)
    except Exception as exc:
        raise IngestionError(f"{path}: {exc}") from exc
    return dataset, columns[id_idx] if id_idx is not None else None


def _check_id_alignment(reference: list[str] | None, ids: list[str] | None,
                        reference_path, path) -> None:
    if reference is None or ids is None or reference == ids:
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
    header, columns, _ = _read_columns(path)
    z_idx = _column_index(header, "treatment", path)
    y_idx = _column_index(header, "outcome", path)
    id_idx = header.index(id_column) if id_column and id_column in header else None
    treatments, outcomes = _parse_columns(
        path, header, columns, [(z_idx, _TREATMENT), (y_idx, _REAL)])
    return treatments, outcomes, columns[id_idx] if id_idx is not None else None


def load_party_files(party_paths: dict[tuple[int, int], str],
                     block_paths: dict[int, str],
                     id_column: str | None = None) -> tuple[Dataset, PartitionSpec]:
    """Assemble a dataset from per-party covariate files and per-row-block label files.

    ``party_paths`` maps (row block, column block) to a covariate CSV whose
    non-id columns are all covariates. ``block_paths`` maps each row block to
    a CSV with ``treatment`` and ``outcome`` columns. When an id column is
    present in several files of the same row block it must agree row by row.
    """
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
            header, columns, _ = _read_columns(path)
            id_idx = header.index(id_column) if id_column and id_column in header else None
            cov_cols = [i for i in range(len(header)) if i != id_idx]
            if not cov_cols:
                raise IngestionError(f"{path}: no covariate columns found")
            data = np.column_stack(
                _parse_columns(path, header, columns, [(i, _REAL) for i in cov_cols]))
            ids = columns[id_idx] if id_idx is not None else None
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

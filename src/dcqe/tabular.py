"""Strict CSV ingestion for datasets and party files.

Files are comma-separated UTF-8 with a required header row, decimal-point
reals, and no quoting of numerics. Validation is strict: every cell must
parse, treatments must be exactly "0" or "1", and errors carry the row and
column they were found at (rows counted from 1, excluding the header).

A plain file (valid UTF-8 without quotes, carriage returns, NULs or blank
lines, every line with the header's cell count and within
``csv.field_size_limit()``) has its real columns parsed by numpy's C reader
and its id and treatment cells split out at once. Other files, and plain ones
with a cell numpy rejects or a value that is not finite, are read by
``csv.reader`` and parsed cell by cell; numpy rejects every cell that
``float(cell.strip())`` would not turn into the same double, so the two paths
agree cell for cell. Errors are those of a row-by-row reader: a ragged row
before any cell is parsed, then the first bad cell in file order (row by row,
then left to right over the columns a loader reads).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .datamodel import Dataset, PartitionSpec
from .errors import DcqeError, IngestionError


@dataclass(frozen=True)
class TabularSchema:
    """Expected columns of a dataset CSV."""

    covariates: tuple[str, ...]
    treatment: str
    outcome: str
    id_column: str | None = None


def _read_table(path) -> tuple[list[str], list, bool]:
    """Stripped header, data rows, and whether the file is plain (its rows are then its lines)."""
    path = Path(path)
    if not path.is_file():
        raise IngestionError(f"input file not found: {path}")
    text = path.read_bytes().decode("utf-8", "replace")  # csv.reader names a bad byte
    lines = text.split("\n")  # not splitlines(): csv.reader ends rows only at "\n" here
    if lines[-1] == "":
        lines.pop()  # after the final newline
    commas = lines[0].count(",") if lines else -1
    # No line longer than the field size limit, so no cell longer than it.
    if (len(lines) > 1 and not any(char in text for char in '"\r\0\ufffd') and "" not in lines
            and max(map(len, lines)) <= csv.field_size_limit()
            and all(line.count(",") == commas for line in lines)):
        return [name.strip() for name in lines[0].split(",")], lines[1:], True
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
    return header, rows, False


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


def _parse_table(path, header: list[str], rows: list, plain: bool,
                 fields: list[tuple[int, object]], id_idx: int | None = None):
    """The real ``fields`` as a C-ordered n x k matrix in their order, the treatment or None,
    and the stripped ids or None. ``fields`` pairs a column index with ``_parse_real`` or
    ``_parse_treatment``, which name the first bad cell, row by row in ``fields`` order."""
    reals = [idx for idx, parse in fields if parse is _parse_real]
    z_idx = next((idx for idx, parse in fields if parse is _parse_treatment), None)
    if plain:
        try:
            values = np.loadtxt(rows, delimiter=",", usecols=reals, comments=None,
                                quotechar=None, dtype=float, ndmin=2)
        except ValueError:
            values = None
        cells = ",".join(rows).split(",") if (z_idx, id_idx) != (None, None) else []
        labels, ids = (None if idx is None else list(map(str.strip, cells[idx::len(header)]))
                       for idx in (z_idx, id_idx))
        # loadtxt may skip a whitespace-only line, so the row count is checked.
        if (values is not None and values.shape[0] == len(rows) and np.isfinite(values).all()
                and set(labels or ()) <= {"0", "1"}):
            treatments = None if labels is None else np.fromiter(map("1".__eq__, labels), np.int64)
            return values, treatments, ids
        rows = [line.split(",") for line in rows]
    parsed = [[parse(row[idx].strip(), number, header[idx], path) for idx, parse in fields]
              for number, row in enumerate(rows, start=1)]
    columns = list(zip([parse for _, parse in fields], list(zip(*parsed)) or [()] * len(fields)))
    values = np.array([column for parse, column in columns if parse is _parse_real], float)
    treatments = next((np.array(column, np.int64) for parse, column in columns
                       if parse is _parse_treatment), None)
    ids = None if id_idx is None else [row[id_idx].strip() for row in rows]
    return values.T.copy(), treatments, ids


def ingest_csv(path, schema: TabularSchema) -> tuple[Dataset, list[str] | None]:
    """Read a dataset CSV against a schema; returns the dataset and the ids."""
    header, rows, plain = _read_table(path)
    if len(rows) < 2:
        raise IngestionError(f"{path}: need at least 2 data rows, found {len(rows)}")
    cov_idx = [_column_index(header, name, path) for name in schema.covariates]
    z_idx = _column_index(header, schema.treatment, path)
    y_idx = _column_index(header, schema.outcome, path)
    id_idx = _column_index(header, schema.id_column, path) if schema.id_column else None

    fields = [(idx, _parse_real) for idx in cov_idx]
    fields += [(z_idx, _parse_treatment), (y_idx, _parse_real)]
    values, treatments, ids = _parse_table(path, header, rows, plain, fields, id_idx)
    try:
        dataset = Dataset(np.ascontiguousarray(values[:, :-1]), treatments, values[:, -1].copy())
    except DcqeError as exc:
        raise IngestionError(f"{path}: {exc}") from exc
    return dataset, ids


def _check_id_alignment(reference: list[str] | None, ids: list[str] | None,
                        reference_path, path) -> None:
    if reference is None or ids is None or reference == ids:
        return
    for row, (a, b) in enumerate(zip(reference, ids), start=1):
        if a != b:
            raise IngestionError(
                f"{path}: row {row}: id {b!r} does not match {a!r} in {reference_path}"
            )


def _read_label_table(path, id_column: str | None):
    """Read a row block's treatment/outcome CSV plus optional ids."""
    header, rows, plain = _read_table(path)
    z_idx = _column_index(header, "treatment", path)
    y_idx = _column_index(header, "outcome", path)
    id_idx = header.index(id_column) if id_column and id_column in header else None
    values, treatments, ids = _parse_table(
        path, header, rows, plain, [(z_idx, _parse_treatment), (y_idx, _parse_real)], id_idx)
    return treatments, values[:, 0], ids


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
            header, rows, plain = _read_table(path)
            id_idx = header.index(id_column) if id_column and id_column in header else None
            cov_cols = [i for i in range(len(header)) if i != id_idx]
            if not cov_cols:
                raise IngestionError(f"{path}: no covariate columns found")
            data, _, ids = _parse_table(
                path, header, rows, plain, [(i, _parse_real) for i in cov_cols], id_idx)
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
    except DcqeError as exc:
        raise IngestionError(str(exc)) from exc
    return dataset, spec

"""Strict CSV ingestion for datasets and party files.

Files are comma-separated UTF-8 with a required header row, decimal-point
reals, and no quoting of numerics. Validation is strict: every cell must
parse, treatments must be exactly "0" or "1", and errors carry the row and
column they were found at (rows counted from 1, excluding the header).

A file is read once, as bytes. One without quotes, carriage returns, NULs or
invalid UTF-8 is indexed with numpy: its newlines and commas tell whether it is
plain, with no blank line, every line of the header's cell count and within
``csv.field_size_limit()``. A plain file's reals go through numpy's C reader,
and its id and treatment cells are cut out as byte runs, stripped only in a file
with non-ASCII or whitespace bytes. Other files, and plain ones with a cell numpy
rejects or a non-finite value, go cell by cell through ``csv.reader`` and
``float(cell.strip())``, which numpy matches on every cell it accepts. Each row
block of ``load_party_files`` is read in a fork-runner worker; errors are those
of a serial read: a ragged row before any cell is parsed, then the first bad cell
in file order (row by row, then left to right over the columns a loader reads).
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from . import runner
from .datamodel import Dataset, PartitionSpec
from .errors import DcqeError, IngestionError


def _read_table(path) -> tuple[list[str], list, tuple | None]:
    """Stripped header, data rows and, for a plain file only (its rows are then its lines), its
    byte index: its bytes, where each cell ends, the header's cell count and whether a cell may
    need ``str.strip`` (the file has non-ASCII or whitespace bytes)."""
    path = Path(path)
    if not path.is_file():
        raise IngestionError(f"input file not found: {path}")
    raw = path.read_bytes()  # copied only to end its last line: it is held while it is read
    raw = raw if raw.endswith(b"\n") else raw + b"\n"
    text = raw.decode("utf-8", "replace")  # csv.reader names a bad byte
    # The cheap checks first: a file they send to csv.reader is not indexed.
    if not any(byte in raw for byte in b'\0\r"') and "\ufffd" not in text:
        data = np.frombuffer(raw, np.uint8)
        ends = np.flatnonzero((data == 44) | (data == 10))  # the comma or newline after each cell
        newlines = ends[data[ends] == 10]
        width, sizes = int(np.argmax(data[ends] == 10)) + 1, np.diff(newlines, prepend=-1) - 1
        # No line longer than the field size limit, so no cell longer than it.
        if (newlines.size > 1 and sizes.min() > 0 and sizes.max() <= csv.field_size_limit()
                and ends.size == newlines.size * width
                and (data[ends[width - 1::width]] == 10).all()):
            lines = text.split("\n")
            # The ASCII bytes str.strip removes, but for the line ends no plain cell holds.
            strip = not raw.isascii() or any(byte in raw for byte in b" \t\v\f\x1c\x1d\x1e\x1f")
            index = data, ends, width, strip
            return [name.strip() for name in lines[0].split(",")], lines[1:-1], index
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
    return header, rows, None


def _column(index, idx: int) -> bytes:
    """Cell ``idx`` of each data row of a plain file, stripped if need be, each followed by a
    newline: the run of bytes the cells span, cut out with numpy."""
    data, ends, width, strip = index
    first = ends[width + idx - 1:-1:width] + 1
    sizes = ends[width + idx::width] + 1 - first  # a cell and the byte after it
    stops = np.cumsum(sizes)
    run = data[np.arange(stops[-1]) - np.repeat(stops - sizes - first, sizes)]
    run[stops - 1] = 10
    run = run.tobytes()
    return "\n".join(map(str.strip, run.decode().split("\n"))).encode() if strip else run


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


def _parse_table(path, table, fields: list[tuple[int, object]], id_idx: int | None = None):
    """The real ``fields`` of a ``_read_table`` result as a C-ordered n x k matrix in their
    order, the treatment or None, and the stripped ids or None. ``fields`` pairs a column
    index with ``_parse_real`` or ``_parse_treatment``, which name the first bad cell, row by
    row in ``fields`` order."""
    header, rows, index = table
    reals = [idx for idx, parse in fields if parse is _parse_real]
    z_idx = next((idx for idx, parse in fields if parse is _parse_treatment), None)
    if index is not None:
        try:
            values = np.loadtxt(rows, delimiter=",", usecols=reals, comments=None,
                                quotechar=None, dtype=float, ndmin=2)
        except ValueError:
            values = None
        labels, ids = (None if idx is None else _column(index, idx) for idx in (z_idx, id_idx))
        # Treatment cells are one byte each, "0" or "1": every odd byte of the run is a newline.
        # loadtxt may skip a whitespace-only line, so the row count is checked.
        if (values is not None and values.shape[0] == len(rows) and np.isfinite(values).all()
                and (labels is None or (labels[1::2] == b"\n" * len(rows)
                                        and not labels[::2].translate(None, b"01")))):
            treatments = None if labels is None else \
                (np.frombuffer(labels[::2], np.uint8) == ord("1")).astype(np.int64)
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


def ingest_csv(path, covariates: tuple[str, ...], treatment: str, outcome: str) -> Dataset:
    """Read a dataset CSV: its ``covariates`` columns in that order, and its ``treatment`` and
    ``outcome`` columns; other columns are not read."""
    header, rows, _ = table = _read_table(path)
    if len(rows) < 2:
        raise IngestionError(f"{path}: need at least 2 data rows, found {len(rows)}")
    cov_idx = [_column_index(header, name, path) for name in covariates]
    z_idx = _column_index(header, treatment, path)
    y_idx = _column_index(header, outcome, path)

    fields = [(idx, _parse_real) for idx in cov_idx]
    fields += [(z_idx, _parse_treatment), (y_idx, _parse_real)]
    values, treatments, _ = _parse_table(path, table, fields)
    try:
        return Dataset(np.ascontiguousarray(values[:, :-1]), treatments, values[:, -1].copy())
    except DcqeError as exc:
        raise IngestionError(f"{path}: {exc}") from exc


def _check_id_alignment(reference, ids, reference_path, path) -> None:
    """Ids are lists of strings; a plain file gives them as one byte string of lines."""
    if reference is None or ids is None or reference == ids:
        return
    lists = [x.decode().split("\n")[:-1] if isinstance(x, bytes) else x for x in (reference, ids)]
    for row, (a, b) in enumerate(zip(*lists), start=1):
        if a != b:
            raise IngestionError(
                f"{path}: row {row}: id {b!r} does not match {a!r} in {reference_path}"
            )


def _read_row_block(label_path, party_paths: list, id_column: str | None):
    """A row block's treatments, outcomes and party covariate blocks, read in order up to the
    first error, each block checked for its row count and ids but not its width; that error."""
    treatments, outcomes, blocks = None, None, []
    try:
        header = (table := _read_table(label_path))[0]
        z_idx = _column_index(header, "treatment", label_path)
        y_idx = _column_index(header, "outcome", label_path)
        id_idx = header.index(id_column) if id_column and id_column in header else None
        values, treatments, reference_ids = _parse_table(
            label_path, table, [(z_idx, _parse_treatment), (y_idx, _parse_real)], id_idx)
        outcomes, reference_path = values[:, 0], label_path
        for path in party_paths:
            header = (table := _read_table(path))[0]
            id_idx = header.index(id_column) if id_column and id_column in header else None
            cov_cols = [i for i in range(len(header)) if i != id_idx]
            if not cov_cols:
                raise IngestionError(f"{path}: no covariate columns found")
            data, _, ids = _parse_table(path, table, [(i, _parse_real) for i in cov_cols], id_idx)
            if data.shape[0] != treatments.shape[0]:
                raise IngestionError(
                    f"{path}: has {data.shape[0]} rows, {label_path} has {treatments.shape[0]}"
                )
            if reference_ids is None and ids is not None:
                reference_ids, reference_path = ids, path
            else:
                _check_id_alignment(reference_ids, ids, reference_path, path)
            blocks.append(data)
    except (DcqeError, OSError) as exc:  # raised by the caller in file order
        return treatments, outcomes, blocks, exc
    return treatments, outcomes, blocks, None


def load_party_files(party_paths: dict[tuple[int, int], str],
                     block_paths: dict[int, str],
                     id_column: str | None = None) -> tuple[Dataset, PartitionSpec]:
    """Assemble a dataset from per-party covariate files and per-row-block label files.

    ``party_paths`` maps (row block, column block) to a covariate CSV whose
    non-id columns are all covariates. ``block_paths`` maps each row block to
    a CSV with ``treatment`` and ``outcome`` columns. When an id column is
    present in several files of the same row block it must agree row by row.
    Row blocks are read in ``runner._run_all`` workers; errors come in serial file order.
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

    reads = runner._run_all(lambda k: _read_row_block(
        block_paths[k], [party_paths[(k, l)] for l in col_ids], id_column), len(row_ids))
    col_widths: dict[int, int] = {}
    for k, (_, _, blocks, error) in enumerate(reads):
        for l, data in enumerate(blocks):
            width = col_widths.setdefault(l, data.shape[1])
            if width != data.shape[1]:
                raise IngestionError(
                    f"{party_paths[(k, l)]}: column block {l} has {data.shape[1]} covariates "
                    f"here but {width} in another row block"
                )
        if error is not None:
            raise error
    treatments, outcomes, blocks, _ = zip(*reads)
    spec = PartitionSpec(tuple(z.shape[0] for z in treatments), tuple(col_widths.values()))
    try:
        dataset = Dataset(np.vstack([np.hstack(row) for row in blocks]),
                          np.concatenate(treatments), np.concatenate(outcomes))
    except DcqeError as exc:
        raise IngestionError(str(exc)) from exc
    return dataset, spec

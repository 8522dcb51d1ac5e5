"""The CSV reader, on both of its paths, against the cell-by-cell loaders.

A plain file is parsed by numpy's C reader and any other file cell by cell;
either way the result must be the same arrays bit for bit and, for a bad
file, the same error message naming the same cell.
"""

import multiprocessing
import os
import random
import tempfile
import threading
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from dcqe import runner, tabular
from dcqe.datamodel import PartitionSpec
from dcqe.errors import IngestionError
from dcqe.tabular import ingest_csv, load_party_files

COLUMNS = (("b", "a"), "treatment", "y")  # ingest_csv's covariates, treatment and outcome
HEADER = "id,a,treatment,b,y"

finite = st.floats(allow_nan=False, allow_infinity=False)
real_text = st.one_of(
    finite.map(repr),
    finite.map(lambda v: f"{v:.17g}"),
    finite.map(lambda v: f"{v:e}"),
    finite.map(lambda v: f"{v:.3E}"),
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from(["-0", "0", "+0.0", "-0.0", "1e-320", "-4.9e-324", "1_000.5"]),
)
bad_real_text = st.sampled_from(
    ["abc", "", "nan", "NaN", "inf", "-Infinity", "1e999", "-1e400", "0x10", "1.2.3", "1,5"])
bad_treatment_text = st.sampled_from(["2", "1.0", "", "yes", "01", "-0", "+1"])
padding = st.sampled_from(["", " ", "  ", "\t", " \t "])
blank_lines = st.sampled_from(["", " ", "\t", "  "])
# (line ending, whether the last line ends with one)
layouts = st.tuples(st.sampled_from(["\n", "\r\n"]), st.booleans())


@st.composite
def cells(draw, text, quoted):
    """One CSV field holding ``text``: padded, and quoted when it holds a comma
    and otherwise sometimes, if ``quoted``."""
    text = draw(padding) + text + draw(padding)
    if "," in text or (quoted and draw(st.booleans())):
        text = '"' + text + '"'
    return text


@st.composite
def csv_files(draw, kinds, ids, bad_rate):
    """Rows and layout of CSV text with one column per entry of ``kinds``;
    column 0 holds ``ids``.

    A cell is bad with probability ``bad_rate``, and a row ragged or a blank
    or whitespace-only line inserted with a quarter of it each, decided by a
    seeded generator so the rates hold as drawn. Some files quote no cell,
    so both read paths are drawn.
    """
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    quoted = draw(st.booleans())
    lines = []
    for subject in ids:
        row = [draw(padding) + subject]
        for kind in kinds[1:]:
            if rng.random() < bad_rate:
                text = draw(bad_treatment_text if kind == "z" else bad_real_text)
            else:
                text = rng.choice("01") if kind == "z" else draw(real_text)
            row.append(draw(cells(text, quoted)))
        if rng.random() < bad_rate / 4:
            row = row[:-1] if draw(st.booleans()) else row + ["7"]  # ragged row
        if rng.random() < bad_rate / 4:
            lines.append(draw(blank_lines))
        lines.append(",".join(row))
    return lines, draw(layouts)


def outcome(load, *args):
    """The loader's result, or the text of the IngestionError it raised."""
    try:
        return load(*args)
    except IngestionError as exc:
        return str(exc)


def assert_same_array(new, old):
    assert new.dtype == old.dtype and new.shape == old.shape
    assert new.flags.c_contiguous == old.flags.c_contiguous
    assert np.array_equal(new.view(np.uint8), old.view(np.uint8))  # bits, signed zeros too


def assert_same_dataset(new, old):
    assert_same_array(new.covariates, old.covariates)
    assert_same_array(new.treatments, old.treatments)
    assert_same_array(new.outcomes, old.outcomes)


def assert_same_outcome(new, old):
    """The same message, or the same dataset and, from ``load_party_files``, the same spec."""
    if isinstance(old, str):
        assert new == old
    elif isinstance(old, tuple):
        assert_same_dataset(new[0], old[0])
        assert new[1] == old[1]
    else:
        assert_same_dataset(new, old)


def write(directory, name, header, lines, layout=("\n", True)):
    ending, final = layout
    path = Path(directory) / name
    text = ending.join([header] + lines) + (ending if final else "")
    path.write_bytes(text.encode("utf-8"))  # no newline translation
    return path


class TestIngestCsvMatchesCellwise:
    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.integers(1, 12), st.sampled_from([0.0, 0.02, 0.1]))
    def test_same_arrays_or_message(self, data, n, bad_rate):
        ids = [f"s{i}" for i in range(n)]
        lines, layout = data.draw(csv_files(["id", "a", "z", "b", "y"], ids, bad_rate))
        with tempfile.TemporaryDirectory() as directory:
            path = write(directory, "d.csv", HEADER, lines, layout)
            new = outcome(ingest_csv, path, *COLUMNS)
            old = outcome(oracles.cellwise_ingest_csv, path, *COLUMNS)
        assert_same_outcome(new, old)

    def test_fast_path_parses_every_form(self, tmp_path):
        path = write(tmp_path, "d.csv", HEADER, [
            'p, -0 ,1," 1.5e3 ",-0.0',
            'q,\t2.5E-3,0,  1_000  ,"+7"',
            'r,4.9e-324, 1 ,-1e308,1e-320',
        ])
        new, old = ingest_csv(path, *COLUMNS), oracles.cellwise_ingest_csv(path, *COLUMNS)
        assert_same_dataset(new, old)
        assert np.signbit(new.covariates[0, 1])  # "-0" kept its sign

    def test_first_bad_cell_in_row_order_is_reported(self, tmp_path):
        # Row 1 is bad in column b, row 2 in column a. Schema order reads b
        # before a, but a column-major scan of file columns meets a first;
        # either way the row-major first cell (row 1, b) must be named.
        path = write(tmp_path, "d.csv", "id,a,treatment,y,b", [
            "p,1,0,1,oops",
            "q,bad,1,2,3",
        ])
        message = "row 1, column 'b': cannot parse 'oops'"
        with pytest.raises(IngestionError, match=message):
            ingest_csv(path, ("a", "b"), "treatment", "y")
        with pytest.raises(IngestionError, match=message):
            oracles.cellwise_ingest_csv(path, ("a", "b"), "treatment", "y")

    @pytest.mark.parametrize("rows, message", [
        (["p,1,0,2,inf", "q,1,1,2,3"], "row 1, column 'y': value 'inf' is not finite"),
        (["p,1,0,2,3", "q,1e999,1,2,3"], "row 2, column 'a': value '1e999' is not finite"),
        (["p,1,0,2,3", "q,1,1.0,2,3"], "row 2, column 'treatment': treatment must be exactly"),
        (["p,1,0,2,3", "q,1,1,2"], "row 2 has 4 cells, header has 5"),
        (["p,x,0,2,3", "q,1,1,2"], "row 2 has 4 cells, header has 5"),  # before any cell
    ])
    def test_error_cases_match_cellwise(self, tmp_path, rows, message):
        path = write(tmp_path, "d.csv", "id,a,treatment,b,y", rows)
        for load in (ingest_csv, oracles.cellwise_ingest_csv):
            with pytest.raises(IngestionError) as caught:
                load(path, ("a", "b"), "treatment", "y")
            assert message in str(caught.value)


def write_grid(directory, draw_lines, blocks, widths, permute=False):
    """Party and label files for a grid; ``draw_lines(kinds, ids)`` makes the rows
    and the layout."""
    party_paths, block_paths = {}, {}
    start = 0
    for k, rows in enumerate(blocks):
        ids = [f"id{i}" for i in range(start, start + rows)]
        start += rows
        path = write(directory, f"labels_{k}.csv", "id,treatment,outcome",
                     *draw_lines(["id", "z", "y"], ids))
        block_paths[k] = str(path)
        for l, width in enumerate(widths):
            shown = list(reversed(ids)) if permute and l == len(widths) - 1 else ids
            names = ",".join(f"x{l}_{j}" for j in range(width))
            path = write(directory, f"party_{k}_{l}.csv", f"id,{names}",
                         *draw_lines(["id"] + ["x"] * width, shown))
            party_paths[(k, l)] = str(path)
    return party_paths, block_paths


class TestLoadPartyFilesMatchesCellwise:
    @settings(max_examples=80, deadline=None)
    @given(st.data(), st.lists(st.integers(2, 8), min_size=1, max_size=2),
           st.lists(st.integers(1, 3), min_size=1, max_size=2),
           st.sampled_from([0.0, 0.01, 0.05]), st.booleans())
    def test_same_arrays_spec_or_message(self, data, blocks, widths, bad_rate, permute):
        with tempfile.TemporaryDirectory() as directory:
            party_paths, block_paths = write_grid(
                directory, lambda kinds, ids: data.draw(csv_files(kinds, ids, bad_rate)),
                blocks, widths, permute=permute and data.draw(st.booleans()))
            new = outcome(load_party_files, party_paths, block_paths, "id")
            old = outcome(oracles.cellwise_load_party_files, party_paths, block_paths, "id")
        assert_same_outcome(new, old)

    def test_party_file_reports_row_major_first_bad_cell(self, tmp_path):
        # Column u's bad cell (row 3) comes first column by column.
        block = write(tmp_path, "labels.csv", "id,treatment,outcome",
                      ["a,0,1.0", "b,1,2.0", "c,0,3.0"])
        party = write(tmp_path, "party.csv", "id,u,v,w", ["a,1,2,3", "b,4,5,-", "c,?,8,9"])
        message = "row 2, column 'w': cannot parse '-'"
        for load in (load_party_files, oracles.cellwise_load_party_files):
            with pytest.raises(IngestionError, match=message):
                load({(0, 0): str(party)}, {0: str(block)}, "id")

    def test_label_file_reports_row_major_first_bad_cell(self, tmp_path):
        # The treatment column's bad cell (row 3) comes first column by column.
        block = write(tmp_path, "labels.csv", "id,treatment,outcome",
                      ["a,0,1.0", "b,1,nan", "c,2,3.0"])
        party = write(tmp_path, "party.csv", "id,u,v", ["a,1,2", "b,4,5", "c,7,8"])
        message = "row 2, column 'outcome': value 'nan' is not finite"
        for load in (load_party_files, oracles.cellwise_load_party_files):
            with pytest.raises(IngestionError, match=message):
                load({(0, 0): str(party)}, {0: str(block)}, "id")

    def test_id_mismatch_names_first_differing_row(self, tmp_path):
        block = write(tmp_path, "labels.csv", "id,treatment,outcome",
                      ["a,0,1.0", "b,1,2.0", "c,0,3.0"])
        party = write(tmp_path, "party.csv", "id,u,v", ["a,1,2", "c,4,5", "b,7,8"])
        message = "row 2: id 'c' does not match 'b'"
        for load in (load_party_files, oracles.cellwise_load_party_files):
            with pytest.raises(IngestionError, match=message):
                load({(0, 0): str(party)}, {0: str(block)}, "id")

    def test_cell_over_the_csv_field_limit_names_the_file(self, tmp_path):
        block = write(tmp_path, "labels.csv", "id,treatment,outcome",
                      [f"{i},{i % 2},1.0" for i in range(50)])
        lines = [f"{i},1,2" for i in range(50)]
        lines[7] = "7," + "1" * 140_000 + ",2"
        party = write(tmp_path, "party.csv", "id,u,v", lines)
        with pytest.raises(IngestionError, match=f"{party}: line 9: field larger than"):
            load_party_files({(0, 0): str(party)}, {0: str(block)}, "id")
        header = write(tmp_path, "header.csv", "treatment," + "x" * 140_000, ["0,1"])
        with pytest.raises(IngestionError, match=f"{header}: line 1: field larger than"):
            ingest_csv(header, (), "treatment", "y")

    def test_ragged_row_before_an_over_long_cell_is_reported_first(self, tmp_path):
        lines = [f"{i},1,2" for i in range(50)]
        lines[3] = "3,1"
        lines[7] = "7," + "1" * 140_000 + ",2"
        path = write(tmp_path, "d.csv", "id,treatment,y", lines)
        for load in (ingest_csv, oracles.cellwise_ingest_csv):
            with pytest.raises(IngestionError, match=f"^{path}: row 4 has 2 cells, header has 3"):
                load(path, (), "treatment", "y")

    @pytest.mark.parametrize("bad", ["party", "labels", "dataset"])
    def test_file_that_is_not_utf8_names_the_file(self, tmp_path, bad):
        block = write(tmp_path, "labels.csv", "id,treatment,outcome", ["a,0,1.0", "b,1,2.0"])
        party = write(tmp_path, "party.csv", "id,u,v", ["a,1,2", "b,4,5"])
        dataset = write(tmp_path, "dataset.csv", "treatment,u,y", ["0,1,2", "1,4,5"])
        target = {"party": party, "labels": block, "dataset": dataset}[bad]
        target.write_bytes(target.read_bytes().replace(b"2", b"\xff", 1))
        with pytest.raises(IngestionError, match=f"^{target}: 'utf-8' codec can't decode"):
            if bad == "dataset":
                ingest_csv(dataset, ("u",), "treatment", "y")
            else:
                load_party_files({(0, 0): str(party)}, {0: str(block)}, "id")


    @staticmethod
    def grid_case(tmp_path, case):
        """Files of one ``load_party_files`` error case: party paths, block paths and the
        expected message."""
        labels = str(write(tmp_path, "labels.csv", "id,treatment,outcome",
                           ["a,0,1.0", "b,1,2.0", "c,0,3.0"]))
        party = str(write(tmp_path, "party.csv", "id,u", ["a,1", "b,2", "c,3"]))
        if case == "no-files":
            return {}, {}, "run mode needs at least one party file and one block file"
        if case == "column-gap":
            return ({(0, 0): party, (0, 2): party}, {0: labels},
                    "party files must cover contiguous block indices starting at 0")
        if case == "block-rows":
            return ({(0, 0): party}, {1: labels},
                    "block files cover row blocks [1], parties cover [0]")
        if case == "no-covariates":
            ids_only = str(write(tmp_path, "ids.csv", "id", ["a", "b", "c"]))
            return {(0, 0): ids_only}, {0: labels}, f"{ids_only}: no covariate columns found"
        if case == "row-count":
            short = str(write(tmp_path, "short.csv", "id,u", ["a,1", "b,2"]))
            return {(0, 0): short}, {0: labels}, f"{short}: has 2 rows, {labels} has 3"
        if case == "column-width":
            wide = str(write(tmp_path, "wide.csv", "id,u,v", ["a,1,4", "b,2,5", "c,3,6"]))
            return ({(0, 0): party, (1, 0): wide}, {0: labels, 1: labels},
                    f"{wide}: column block 0 has 2 covariates here but 1 in another row block")
        # "party-ids": the label file has no ids, so the first party's ids are the reference.
        bare = str(write(tmp_path, "bare.csv", "treatment,outcome", ["0,1.0", "1,2.0", "0,3.0"]))
        other = str(write(tmp_path, "other.csv", "id,v", ["x,1", "b,2", "c,3"]))
        return ({(0, 0): party, (0, 1): other}, {0: bare},
                f"{other}: row 1: id 'x' does not match 'a' in {party}")

    @pytest.mark.parametrize("case", ["no-files", "column-gap", "block-rows", "no-covariates",
                                      "row-count", "column-width", "party-ids"])
    def test_grid_error_matches_cellwise(self, tmp_path, case):
        party_paths, block_paths, message = self.grid_case(tmp_path, case)
        assert outcome(load_party_files, party_paths, block_paths, "id") == message
        assert outcome(oracles.cellwise_load_party_files, party_paths, block_paths, "id") == message


# Cells numpy's C reader and float() may treat differently: numpy must
# reject whatever it does not parse to the same double as float(cell.strip()).
ODD_CELLS = ["1_000.5", "١٢", "\x1c1", "\xa01.5\xa0", " 2 ", "1d5", "0x1p3",
             "nan", "-Infinity", "infinity", "1e999", "", " ", "\t", "\x0b2", "\x0c3",
             "\x852", "+.5", "1.", "-0", "1e-320", "4.9e-324", " +1e+2 ", "0b1", "١"]


class TestPlainFileReader:
    @pytest.mark.parametrize("cell", ODD_CELLS)
    def test_odd_cell_matches_cellwise(self, tmp_path, cell):
        block = write(tmp_path, "labels.csv", "id,treatment,outcome",
                      ["a,0,1.0", f"b,1,{cell}", "c, 1 ,3.0"])
        party = write(tmp_path, "party.csv", "id,u,v", [f"a,{cell},2", "b,4,5", "c,7,8"])
        dataset = write(tmp_path, "d.csv", "u,treatment,y,id", ["1,0,2,a", f"{cell},1,3,b"])
        for path in (block, party, dataset):
            assert tabular._read_table(path)[2] is not None  # a plain file
        for load, oracle, args in [
            (load_party_files, oracles.cellwise_load_party_files,
             ({(0, 0): str(party)}, {0: str(block)}, "id")),
            (load_party_files, oracles.cellwise_load_party_files,
             ({(0, 0): str(party)}, {0: str(block)})),
            (ingest_csv, oracles.cellwise_ingest_csv, (dataset, ("u",), "treatment", "y")),
        ]:
            assert_same_outcome(outcome(load, *args), outcome(oracle, *args))

    @pytest.mark.parametrize("blank", [" ", "\t", ""])
    def test_blank_line_in_a_one_column_file_matches_cellwise(self, tmp_path, blank):
        # loadtxt may skip a whitespace-only line; the row count must catch it.
        block = write(tmp_path, "labels.csv", "treatment,outcome", ["0,1.0", "1,2.0", "1,3.0"])
        party = write(tmp_path, "party.csv", "u", ["1", blank, "2"])
        message = outcome(load_party_files, {(0, 0): str(party)}, {0: str(block)})
        assert isinstance(message, str)
        assert message == outcome(oracles.cellwise_load_party_files,
                                  {(0, 0): str(party)}, {0: str(block)})

    @pytest.mark.parametrize("layout", [("\n", True), ("\n", False), ("\r\n", True)])
    def test_plain_and_quoted_files_give_identical_results(self, tmp_path, layout):
        rng = np.random.default_rng(5)
        values = rng.standard_normal((40, 3)) * 10.0 ** rng.integers(-300, 300, (40, 3))
        ids = [f"s{i}" for i in range(40)]
        party = [f"{ids[i]},{u!r},{v:.17g}" for i, (u, v, _) in enumerate(values.tolist())]
        labels = [f"{ids[i]},{i % 2},{y!r}" for i, (_, _, y) in enumerate(values.tolist())]
        results = []
        for quote in (False, True):
            directory = tmp_path / str(quote)
            directory.mkdir()
            head, last = party[0].rsplit(",", 1)
            rows = [f'{head},"{last}"' if quote else party[0]] + party[1:]
            party_path = write(directory, "party.csv", "id,u,v", rows, layout)
            block_path = write(directory, "labels.csv", "id,treatment,outcome", labels, layout)
            plain = tabular._read_table(party_path)[2] is not None
            assert plain is (not quote and layout[0] == "\n")
            results.append(load_party_files({(0, 0): str(party_path)}, {0: str(block_path)},
                                            "id"))
            merged = [f"{p},{l.split(',', 1)[1]}" for p, l in zip(rows, labels)]
            results.append(ingest_csv(write(directory, "d.csv", "id,u,v,treatment,outcome",
                                            merged, layout), ("u", "v"), "treatment", "outcome"))
        plain_party, plain_dataset, quoted_party, quoted_dataset = results
        assert_same_outcome(plain_party, quoted_party)
        assert_same_dataset(plain_dataset, quoted_dataset)
        assert np.array_equal(plain_dataset.covariates, values[:, :2])


# ODD_CELLS that pass the ASCII, no-whitespace gate, and treatment cells that
# numpy parses as numbers but the loaders must reject.
ODD_ASCII_CELLS = [cell for cell in ODD_CELLS if cell.isascii() and cell and cell == cell.strip()]
ODD_TREATMENTS = ["0.0", "01", "1.0", "2"]


def ascii_lines(rng, kinds, ids, bad_rate):
    """Rows of a file that passes the ASCII, no-whitespace gate: column 0 holds ``ids``; a
    cell is one of ODD_ASCII_CELLS or ODD_TREATMENTS with probability ``bad_rate``."""
    lines = []
    for subject in ids:
        row = [subject]
        for kind in kinds[1:]:
            if rng.random() < bad_rate:
                row.append(rng.choice(ODD_TREATMENTS if kind == "z" else ODD_ASCII_CELLS))
            elif kind == "z":
                row.append(rng.choice("01"))
            else:
                value = rng.gauss(0.0, 1.0) * 10.0 ** rng.randint(-300, 300)
                row.append(rng.choice([repr(value), f"{value:.17g}", f"{value:e}",
                                       str(rng.randint(-10**6, 10**6))]))
        lines.append(",".join(row))
    return lines


class TestAsciiRoute:
    @pytest.mark.parametrize("fault", [None, "wide", "short", "swapped"])
    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.lists(st.integers(2, 300), min_size=1, max_size=3),
           st.lists(st.integers(1, 3), min_size=1, max_size=2),
           st.sampled_from([0.0, 0.0, 0.0005, 0.005]))
    def test_same_arrays_ids_or_message(self, fault, seed, blocks, widths, bad_rate):
        rng = random.Random(seed)
        with tempfile.TemporaryDirectory() as directory:
            party_paths, block_paths = write_grid(
                directory, lambda kinds, ids: (ascii_lines(rng, kinds, ids, bad_rate),),
                blocks, widths)
            # One party file of the last row block is one column wider, one row
            # shorter, or has two ids swapped.
            target = Path(party_paths[(len(blocks) - 1, len(widths) - 1)])
            header, *lines = target.read_text().splitlines()
            if fault == "wide":
                header, lines = header + ",extra", [line + ",1.5" for line in lines]
            elif fault == "short" and len(lines) > 1:
                lines = lines[:-1]
            elif fault == "swapped" and len(lines) > 1:
                lines[0], lines[-1] = lines[-1], lines[0]
            write(directory, target.name, header, lines)
            dataset = write(directory, "d.csv", HEADER,
                            ascii_lines(rng, ["id", "x", "z", "x", "x"],
                                        [f"s{i}" for i in range(blocks[0])], bad_rate))
            for path in [dataset, *party_paths.values(), *block_paths.values()]:
                assert tabular._read_table(path)[2][3] is False  # the ASCII route
            results = [(outcome(load_party_files, party_paths, block_paths, "id"),
                        outcome(oracles.cellwise_load_party_files, party_paths, block_paths,
                                "id")),
                       (outcome(ingest_csv, dataset, *COLUMNS),
                        outcome(oracles.cellwise_ingest_csv, dataset, *COLUMNS))]
        for new, old in results:
            assert_same_outcome(new, old)


def small_grid(directory):
    """Two row blocks of three rows and two column blocks of widths 2 and 1, with ids."""
    party_paths, block_paths = {}, {}
    for k in (0, 1):
        ids = [f"s{3 * k + i}" for i in range(3)]
        block_paths[k] = str(write(directory, f"labels_{k}.csv", "id,treatment,outcome",
                                   [f"{s},{i % 2},{i}.5" for i, s in enumerate(ids)]))
        for l, width in enumerate((2, 1)):
            names = ",".join(f"x{l}_{j}" for j in range(width))
            lines = [",".join([s] + [f"{i + j}.25" for j in range(width)])
                     for i, s in enumerate(ids)]
            party_paths[(k, l)] = str(write(directory, f"party_{k}_{l}.csv", f"id,{names}",
                                            lines))
    return party_paths, block_paths


def replace_cell(path, row, column, text):
    """Set cell (``row``, ``column``) of a file written by ``write``, rows counted from 1."""
    header, *lines = Path(path).read_text().splitlines()
    cells = lines[row - 1].split(",")
    cells[column] = text
    lines[row - 1] = ",".join(cells)
    write(Path(path).parent, Path(path).name, header, lines)


CPUS = runner._available_cpus()


def _pinned_read(*args):
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    return runner._worker_count(2), load_party_files(*args)


class TestRowBlockReaders:
    @pytest.mark.parametrize("case", ["cells-in-both-blocks", "width-then-cell",
                                      "labels-then-cell"])
    def test_error_is_the_first_of_a_serial_read(self, tmp_path, case):
        party_paths, block_paths = small_grid(tmp_path)
        if case == "cells-in-both-blocks":
            replace_cell(party_paths[(0, 1)], 2, 1, "oops")
            replace_cell(party_paths[(1, 0)], 1, 2, "bad")
            message = (f"{party_paths[(0, 1)]}: row 2, column 'x1_0': cannot parse 'oops' "
                       "as a real number")
        elif case == "width-then-cell":
            write(tmp_path, "party_1_0.csv", "id,x0_0,x0_1,x0_2",
                  [f"s{i},1,2,3" for i in range(3, 6)])
            replace_cell(party_paths[(1, 1)], 1, 1, "bad")
            message = (f"{party_paths[(1, 0)]}: column block 0 has 3 covariates here "
                       "but 2 in another row block")
        else:
            replace_cell(block_paths[1], 3, 1, "2")
            replace_cell(party_paths[(0, 1)], 3, 1, "nan")
            message = f"{party_paths[(0, 1)]}: row 3, column 'x1_0': value 'nan' is not finite"
        assert outcome(load_party_files, party_paths, block_paths, "id") == message
        assert outcome(oracles.cellwise_load_party_files, party_paths, block_paths,
                       "id") == message

    @pytest.mark.skipif(CPUS < 2 or not hasattr(os, "fork"),
                        reason="row-block readers need 2 CPUs and fork")
    def test_row_blocks_are_read_in_other_processes(self, tmp_path, monkeypatch):
        party_paths, block_paths = small_grid(tmp_path)
        unpatched = load_party_files(party_paths, block_paths, "id")
        original, pids = runner._run_all, []

        def recording(run, count, workers=None):
            results = original(lambda k: (run(k), os.getpid()), count, workers)
            pids.extend(pid for _, pid in results)
            return [result for result, _ in results]

        monkeypatch.setattr(runner, "_run_all", recording)
        data, spec = load_party_files(party_paths, block_paths, "id")
        assert len(set(pids)) == len(pids) == 2
        assert os.getpid() not in pids
        assert_same_dataset(data, unpatched[0])
        assert spec == unpatched[1]

    @pytest.mark.skipif(not hasattr(os, "fork") or not hasattr(os, "sched_setaffinity"),
                        reason="a pinned child needs fork and sched_setaffinity")
    def test_read_equals_a_read_pinned_to_one_cpu_bit_for_bit(self, tmp_path):
        # The benchmark's 16k layout: an id column and %.17g reals.
        rng = np.random.default_rng(0)
        party_paths, block_paths = {}, {}
        for k in (0, 1):
            ids = np.arange(8000 * k, 8000 * (k + 1))
            for l in (0, 1):
                path = tmp_path / f"party_{k}_{l}.csv"
                np.savetxt(path, np.column_stack([ids, rng.standard_normal((8000, 3))]),
                           fmt=["%d"] + ["%.17g"] * 3, delimiter=",", comments="",
                           header=",".join(["id"] + [f"x{3 * l + j}" for j in range(3)]))
                party_paths[(k, l)] = str(path)
            path = tmp_path / f"labels_{k}.csv"
            np.savetxt(path, np.column_stack([ids, ids % 2, rng.standard_normal(8000)]),
                       fmt=["%d", "%d", "%.17g"], delimiter=",", comments="",
                       header="id,treatment,outcome")
            block_paths[k] = str(path)
        with ProcessPoolExecutor(1, multiprocessing.get_context("fork")) as pool:
            workers, pinned = pool.submit(_pinned_read, party_paths, block_paths,
                                          "id").result(timeout=300)
        assert workers == 1
        assert threading.active_count() == 1  # nothing keeps the call below serial
        data, spec = load_party_files(party_paths, block_paths, "id")
        assert_same_dataset(data, pinned[0])
        assert spec == pinned[1] == PartitionSpec((8000, 8000), (3, 3))
        assert_same_dataset(data, oracles.cellwise_load_party_files(
            party_paths, block_paths, "id")[0])

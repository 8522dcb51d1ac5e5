"""The column-at-a-time CSV parser against the cell-by-cell loaders it replaced.

Both must give the same arrays bit for bit, the same ids, and, for a bad
file, the same error message naming the same cell.
"""

import random
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from dcqe.errors import IngestionError
from dcqe.tabular import TabularSchema, ingest_csv, load_party_files

SCHEMA = TabularSchema(covariates=("b", "a"), treatment="treatment", outcome="y",
                       id_column="id")
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


@st.composite
def cells(draw, text):
    """One CSV field holding ``text``: padded and sometimes quoted."""
    text = draw(padding) + text + draw(padding)
    if "," in text or draw(st.booleans()):
        text = '"' + text + '"'
    return text


@st.composite
def csv_files(draw, kinds, ids, bad_rate):
    """CSV text with one column per entry of ``kinds``; column 0 holds ``ids``.

    A cell is bad with probability ``bad_rate`` and a row ragged with a
    quarter of it, decided by a seeded generator so the rates hold as drawn.
    """
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    lines = []
    for subject in ids:
        row = [draw(padding) + subject]
        for kind in kinds[1:]:
            if rng.random() < bad_rate:
                text = draw(bad_treatment_text if kind == "z" else bad_real_text)
            else:
                text = rng.choice("01") if kind == "z" else draw(real_text)
            row.append(draw(cells(text)))
        if rng.random() < bad_rate / 4:
            row = row[:-1] if draw(st.booleans()) else row + ["7"]  # ragged row
        lines.append(",".join(row))
    return lines


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


def write(directory, name, header, lines):
    path = Path(directory) / name
    path.write_text("\n".join([header] + lines) + "\n", encoding="utf-8")
    return path


class TestIngestCsvMatchesCellwise:
    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.integers(1, 12), st.sampled_from([0.0, 0.02, 0.1]))
    def test_same_arrays_ids_or_message(self, data, n, bad_rate):
        ids = [f"s{i}" for i in range(n)]
        lines = data.draw(csv_files(["id", "a", "z", "b", "y"], ids, bad_rate))
        with tempfile.TemporaryDirectory() as directory:
            path = write(directory, "d.csv", HEADER, lines)
            new = outcome(ingest_csv, path, SCHEMA)
            old = outcome(oracles.cellwise_ingest_csv, path, SCHEMA)
        if isinstance(old, str):
            assert new == old
        else:
            assert_same_dataset(new[0], old[0])
            assert new[1] == old[1]

    def test_fast_path_parses_every_form(self, tmp_path):
        path = write(tmp_path, "d.csv", HEADER, [
            'p, -0 ,1," 1.5e3 ",-0.0',
            'q,\t2.5E-3,0,  1_000  ,"+7"',
            'r,4.9e-324, 1 ,-1e308,1e-320',
        ])
        new, old = ingest_csv(path, SCHEMA), oracles.cellwise_ingest_csv(path, SCHEMA)
        assert_same_dataset(new[0], old[0])
        assert new[1] == old[1] == ["p", "q", "r"]
        assert np.signbit(new[0].covariates[0, 1])  # "-0" kept its sign

    def test_first_bad_cell_in_row_order_is_reported(self, tmp_path):
        # Row 1 is bad in column b, row 2 in column a. Schema order reads b
        # before a, but a column-major scan of file columns meets a first;
        # either way the row-major first cell (row 1, b) must be named.
        path = write(tmp_path, "d.csv", "id,a,treatment,y,b", [
            "p,1,0,1,oops",
            "q,bad,1,2,3",
        ])
        schema = TabularSchema(covariates=("a", "b"), treatment="treatment", outcome="y")
        message = "row 1, column 'b': cannot parse 'oops'"
        with pytest.raises(IngestionError, match=message):
            ingest_csv(path, schema)
        with pytest.raises(IngestionError, match=message):
            oracles.cellwise_ingest_csv(path, schema)

    @pytest.mark.parametrize("rows, message", [
        (["p,1,0,2,inf", "q,1,1,2,3"], "row 1, column 'y': value 'inf' is not finite"),
        (["p,1,0,2,3", "q,1e999,1,2,3"], "row 2, column 'a': value '1e999' is not finite"),
        (["p,1,0,2,3", "q,1,1.0,2,3"], "row 2, column 'treatment': treatment must be exactly"),
        (["p,1,0,2,3", "q,1,1,2"], "row 2 has 4 cells, header has 5"),
        (["p,x,0,2,3", "q,1,1,2"], "row 2 has 4 cells, header has 5"),  # before any cell
    ])
    def test_error_cases_match_cellwise(self, tmp_path, rows, message):
        path = write(tmp_path, "d.csv", "id,a,treatment,b,y", rows)
        schema = TabularSchema(covariates=("a", "b"), treatment="treatment", outcome="y")
        for load in (ingest_csv, oracles.cellwise_ingest_csv):
            with pytest.raises(IngestionError) as caught:
                load(path, schema)
            assert message in str(caught.value)


def write_grid(directory, draw_lines, blocks, widths, permute=False):
    """Party and label files for a grid; ``draw_lines(kinds, ids)`` makes the rows."""
    party_paths, block_paths = {}, {}
    start = 0
    for k, rows in enumerate(blocks):
        ids = [f"id{i}" for i in range(start, start + rows)]
        start += rows
        lines = draw_lines(["id", "z", "y"], ids)
        block_paths[k] = str(write(directory, f"labels_{k}.csv", "id,treatment,outcome", lines))
        for l, width in enumerate(widths):
            shown = list(reversed(ids)) if permute and l == len(widths) - 1 else ids
            names = ",".join(f"x{l}_{j}" for j in range(width))
            lines = draw_lines(["id"] + ["x"] * width, shown)
            party_paths[(k, l)] = str(write(directory, f"party_{k}_{l}.csv", f"id,{names}", lines))
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
        if isinstance(old, str):
            assert new == old
        else:
            assert_same_dataset(new[0], old[0])
            assert new[1] == old[1]

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
            ingest_csv(header, TabularSchema(covariates=(), treatment="treatment",
                                             outcome="y"))

import csv
import io
import json
import os
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dcqe

from dcqe.cli import (
    EXIT_CONFIG,
    EXIT_INGESTION,
    EXIT_OK,
    EXIT_RUNTIME,
    SETTINGS,
    SUITES,
    emit_report,
    execute,
    format_config,
    format_table,
    main,
    parse_config,
)
from dcqe.causal import ESTIMANDS
from dcqe.datamodel import SCOPE_KINDS, CollaborationScope, PartitionSpec
from dcqe.errors import ConfigError, DcqeError, IngestionError
from dcqe.experiments import ANALYSIS_MODES, ESTIMATORS, ArtificialDataConfig, ScenarioConfig
from dcqe.runner import _available_cpus
from dcqe.tabular import ingest_csv, load_party_files


def write_config(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestParseConfig:
    def test_minimal_config_fills_defaults(self, tmp_path):
        path = write_config(tmp_path / "c.conf", "data.subjects = 100\n")
        config = parse_config(path)
        assert config.settings["bootstrap.replicates"] == 1000
        assert config.settings["seed"] == 0
        assert config.scenario.estimator == "IPW"
        assert config.scenario.estimand == "ATE"
        assert config.scenario.partition.row_blocks == (50, 50)
        assert config.scenario.partition.col_blocks == (3, 3)
        assert config.scenario.collaborative_dim == 6  # scope covariate count
        assert config.scenario.anchor_size == 100

    @pytest.mark.parametrize("kind, width", [("left", 3), ("whole", 6)])
    def test_effective_config_states_the_sizes_the_scenario_holds(self, tmp_path, kind, width):
        path = write_config(tmp_path / "c.conf", f"data.subjects = 100\nscope.kind = {kind}\n")
        config = parse_config(path)
        assert (config.scenario.collaborative_dim, config.scenario.anchor_size) == (width, 100)
        lines = format_config(config).splitlines()
        start = lines.index("reduction.intermediate_dim = 2")
        assert lines[start + 1:start + 3] == [f"reduction.collaborative_dim = {width}",
                                              "anchor.subjects = 100"]

    def test_unknown_key_rejected_by_name(self, tmp_path):
        path = write_config(tmp_path / "c.conf", "data.subjects = 100\nbogus.key = 3\n")
        with pytest.raises(ConfigError, match="bogus.key"):
            parse_config(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = write_config(tmp_path / "c.conf", "seed = 1\nseed = 2\n")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = write_config(tmp_path / "c.conf", "data.subjects 100\n")
        with pytest.raises(ConfigError, match="key = value"):
            parse_config(path)

    def test_non_strict_reduction_rejected(self, tmp_path):
        path = write_config(
            tmp_path / "c.conf",
            "data.subjects = 100\nreduction.intermediate_dim = 3\n",
        )
        with pytest.raises(ConfigError, match="reduction must be strict"):
            parse_config(path)

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = write_config(
            tmp_path / "c.conf",
            "# a comment\n\ndata.subjects = 80\nseed = 3\n",
        )
        assert parse_config(path).settings["seed"] == 3

    def test_round_trip_through_effective_config(self, tmp_path):
        path = write_config(
            tmp_path / "c.conf",
            "data.subjects = 120\nbootstrap.replicates = 12\nestimation.estimator = PSM\n"
            "estimation.benchmark = 1.0\nscope.kind = left\nseed = 11\n"
            "output.formats = csv,json\n",
        )
        config = parse_config(path)
        emitted = write_config(tmp_path / "effective.conf", format_config(config))
        assert parse_config(emitted) == config

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(tmp_path / "absent.conf")

    def test_file_that_is_not_utf8_is_a_config_error(self, tmp_path, capsys):
        path = tmp_path / "c.conf"
        path.write_bytes(b"seed = 1\n\xff = 2\n")
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.startswith(f"config error: cannot read config file {path}: 'utf-8' codec")
        assert "Traceback" not in err

    def test_bad_types_reported_with_key(self, tmp_path):
        path = write_config(tmp_path / "c.conf", "bootstrap.replicates = soon\n")
        with pytest.raises(ConfigError, match="bootstrap.replicates"):
            parse_config(path)

    def test_custom_scope_needs_indices(self, tmp_path):
        path = write_config(tmp_path / "c.conf", "scope.kind = custom\n")
        with pytest.raises(ConfigError):
            parse_config(path)

    def test_accepted_configs_execute(self, tmp_path):
        variants = [
            "data.subjects = 60\nbootstrap.replicates = 3\nestimation.benchmark = 1.0\n",
            "data.subjects = 60\nbootstrap.replicates = 3\nanalysis = centralized\n",
            "data.subjects = 60\nbootstrap.replicates = 3\nscope.kind = custom\n"
            "scope.rows = 0\nscope.cols = 0\nanalysis = individual\n",
            "data.subjects = 60\nbootstrap.replicates = 3\nscope.kind = left\n"
            "reduction.intermediate_dim = 1\n",
        ]
        for i, text in enumerate(variants):
            config = parse_config(write_config(tmp_path / f"v{i}.conf", text))
            results = execute(config)
            assert len(results) == 1
            assert np.isfinite(results[0].estimate_mean)


NSW_HEADER = "treatment,age,education,married,nodegree,black,hispanic,re74,re75,re78"


def write_rows(path, rows, header=NSW_HEADER):
    path.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")
    return path


# ingest_csv's covariates, treatment and outcome for NSW_HEADER files
COLUMNS = (("age", "education", "married", "nodegree", "black", "hispanic", "re74", "re75"),
           "treatment", "re78")


class TestIngestCsv:
    def test_reads_well_formed_file(self, tmp_path):
        path = write_rows(tmp_path / "d.csv", [
            "1,25,12,0,0,1,0,0.0,1500.5,4000.25",
            "0,38,9,1,1,0,0,12000.0,13000.0,14000.0",
            "0,44,16,1,0,0,1,9000.0,9500.0,9800.0",
        ])
        data = ingest_csv(path, *COLUMNS)
        assert data.covariates.shape == (3, 8)
        np.testing.assert_array_equal(data.treatments, [1, 0, 0])
        assert data.outcomes[0] == 4000.25

    def test_non_binary_treatment_reports_row(self, tmp_path):
        path = write_rows(tmp_path / "d.csv", [
            "1,25,12,0,0,1,0,0.0,1500.5,4000.25",
            "2,38,9,1,1,0,0,12000.0,13000.0,14000.0",
        ])
        with pytest.raises(IngestionError, match="row 2"):
            ingest_csv(path, *COLUMNS)

    def test_missing_column_named(self, tmp_path):
        path = write_rows(tmp_path / "d.csv", ["1,2,3", "0,4,5"], header="treatment,age,re78")
        with pytest.raises(IngestionError, match="education"):
            ingest_csv(path, *COLUMNS)

    def test_unparseable_cell_reports_coordinates(self, tmp_path):
        path = write_rows(tmp_path / "d.csv", [
            "1,25,12,0,0,1,0,0.0,1500.5,4000.25",
            "0,38,not-a-number,1,1,0,0,12000.0,13000.0,14000.0",
        ])
        with pytest.raises(IngestionError, match="row 2.*education"):
            ingest_csv(path, *COLUMNS)

    def test_nan_cell_rejected(self, tmp_path):
        path = write_rows(tmp_path / "d.csv", [
            "1,25,12,0,0,1,0,0.0,1500.5,4000.25",
            "0,38,9,1,1,0,0,nan,13000.0,14000.0",
        ])
        with pytest.raises(IngestionError, match="row 2"):
            ingest_csv(path, *COLUMNS)

    def test_ragged_row_rejected(self, tmp_path):
        path = write_rows(tmp_path / "d.csv", [
            "1,25,12,0,0,1,0,0.0,1500.5,4000.25",
            "0,38,9,1,1",
        ])
        with pytest.raises(IngestionError, match="row 2"):
            ingest_csv(path, *COLUMNS)

    def test_single_row_rejected(self, tmp_path):
        path = write_rows(tmp_path / "d.csv", ["1,25,12,0,0,1,0,0.0,1500.5,4000.25"])
        with pytest.raises(IngestionError, match="at least 2"):
            ingest_csv(path, *COLUMNS)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IngestionError, match="not found"):
            ingest_csv(tmp_path / "absent.csv", *COLUMNS)


def write_party_grid(tmp_path, permute_ids=False):
    files = {}
    ids_by_block = {0: ["a", "b", "c", "d"], 1: ["e", "f", "g", "h"]}
    rng = np.random.default_rng(0)
    for k in (0, 1):
        ids = ids_by_block[k]
        for l in (0, 1):
            path = tmp_path / f"party_{k}_{l}.csv"
            shown = list(reversed(ids)) if (permute_ids and l == 1) else ids
            with path.open("w", newline="") as handle:
                writer = csv.writer(handle)
                writer.writerow(["id", "u", "v"])
                for i, subject in enumerate(shown):
                    writer.writerow([subject, rng.normal(), rng.normal()])
            files[(k, l)] = str(path)
    blocks = {}
    for k in (0, 1):
        path = tmp_path / f"block_{k}.csv"
        with path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["id", "treatment", "outcome"])
            for i, subject in enumerate(ids_by_block[k]):
                writer.writerow([subject, i % 2, rng.normal()])
        blocks[k] = str(path)
    return files, blocks


class TestPartyFiles:
    def test_assembles_grid(self, tmp_path):
        files, blocks = write_party_grid(tmp_path)
        data, spec = load_party_files(files, blocks, id_column="id")
        assert data.covariates.shape == (8, 4)
        assert spec.row_blocks == (4, 4)
        assert spec.col_blocks == (2, 2)

    def test_permuted_ids_rejected(self, tmp_path):
        files, blocks = write_party_grid(tmp_path, permute_ids=True)
        with pytest.raises(IngestionError, match="row 1"):
            load_party_files(files, blocks, id_column="id")

    def test_missing_party_rejected(self, tmp_path):
        files, blocks = write_party_grid(tmp_path)
        del files[(1, 1)]
        with pytest.raises(IngestionError):
            load_party_files(files, blocks, id_column="id")

    def test_block_treatments_are_strictly_binary_tokens(self, tmp_path):
        files, blocks = write_party_grid(tmp_path)
        target = tmp_path / "block_0.csv"
        target.write_text(
            target.read_text().replace("a,0,", "a,1.0,", 1), encoding="utf-8"
        )
        with pytest.raises(IngestionError, match="row 1"):
            load_party_files(files, blocks, id_column="id")


class TestEmitReport:
    @pytest.fixture()
    def single_result(self, tmp_path):
        config = parse_config(write_config(
            tmp_path / "c.conf",
            "data.subjects = 60\nbootstrap.replicates = 4\nestimation.benchmark = 1.0\n"
            "output.dump_bootstrap = true\n",
        ), overrides={"output.dir": str(tmp_path / "out")})
        results = execute(config)
        return results, config

    def test_csv_has_header_and_one_line(self, single_result):
        results, config = single_result
        paths = emit_report(results, config)
        csv_path = [p for p in paths if p.name == "results.csv"][0]
        lines = csv_path.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("estimator,collaboration")

    def test_json_round_trips_full_precision(self, single_result):
        results, config = single_result
        paths = emit_report(results, config)
        json_path = [p for p in paths if p.name == "results.json"][0]
        payload = json.loads(json_path.read_text())
        row = payload["results"][0]
        assert row["estimate_mean"] == results[0].estimate_mean
        assert row["gap"] == results[0].gap
        assert row["masmd_point"] == results[0].masmd.point
        assert payload["seed"] == config.settings["seed"]

    def test_bootstrap_sidecar_written(self, single_result):
        results, config = single_result
        paths = emit_report(results, config)
        sidecar = [p for p in paths if p.name == "bootstrap_estimates.csv"][0]
        lines = sidecar.read_text().splitlines()
        assert len(lines) == 1 + len(results[0].bootstrap_estimates)

    def test_csv_columns_between_identity_and_tail_are_the_result_numbers(self, single_result):
        results, config = single_result
        paths = emit_report(results, config)
        csv_path = [p for p in paths if p.name == "results.csv"][0]
        header, row = csv.reader(csv_path.read_text(encoding="utf-8").splitlines())
        start, end = header.index("subjects") + 1, header.index("collaborative_dim")
        numbers = results[0].numbers()
        assert header[start:end] == list(numbers)
        assert row[start:end] == [repr(value) for value in numbers.values()]

    def test_rewritten_reports_equal_those_of_a_fresh_directory(self, tmp_path):
        out = tmp_path / "out"

        def report(replicates):
            config = write_config(tmp_path / "c.conf", "data.subjects = 60\n"
                                  f"bootstrap.replicates = {replicates}\n"
                                  "output.dump_bootstrap = true\n")
            with redirect_stdout(io.StringIO()):
                assert main(["simulate", "--config", str(config), "--out", str(out)]) == EXIT_OK
            return {p.name: (p.read_bytes(), p.stat().st_ino) for p in out.iterdir()}

        first = report(4)
        rewritten = report(2)
        assert {name: ino for name, (_, ino) in rewritten.items()} == \
            {name: ino for name, (_, ino) in first.items()}  # overwritten in place
        for path in out.iterdir():
            path.unlink()
        fresh = report(2)
        assert {name: data for name, (data, _) in rewritten.items()} == \
            {name: data for name, (data, _) in fresh.items()}
        assert len(fresh["bootstrap_estimates.csv"][0]) < len(first["bootstrap_estimates.csv"][0])

    def test_no_results_is_a_runtime_error(self, single_result):
        _, config = single_result
        with pytest.raises(DcqeError, match="^no results to report$"):
            emit_report([], config)
        assert not Path(config.settings["output.dir"]).exists()

    def test_table_uses_four_decimals(self, single_result):
        results, _ = single_result
        table = format_table(results)
        assert "(" in table and ")" in table
        cell = f"{results[0].estimate_mean:.4f} ({results[0].estimate_se:.4f})"
        assert cell in table


class TestMainExitCodes:
    def test_success(self, tmp_path, capsys):
        config = write_config(
            tmp_path / "c.conf",
            "data.subjects = 60\nbootstrap.replicates = 3\nestimation.benchmark = 1.0\n",
        )
        code = main(["simulate", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == EXIT_OK
        assert (tmp_path / "out" / "results.csv").is_file()

    def test_config_error(self, tmp_path, capsys):
        config = write_config(tmp_path / "c.conf", "mystery = 1\n")
        code = main(["simulate", "--config", str(config)])
        assert code == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_ingestion_error(self, tmp_path, capsys):
        config = write_config(tmp_path / "c.conf", "bootstrap.replicates = 2\n")
        code = main([
            "evaluate", "--config", str(config),
            "--data", str(tmp_path / "missing.csv"),
            "--out", str(tmp_path / "out"),
        ])
        assert code == EXIT_INGESTION
        assert "ingestion error" in capsys.readouterr().err

    def test_runtime_error_when_output_path_is_a_file(self, tmp_path, capsys):
        config = write_config(
            tmp_path / "c.conf",
            "data.subjects = 60\nbootstrap.replicates = 2\n",
        )
        blocker = tmp_path / "blocked"
        blocker.write_text("not a directory")
        code = main(["simulate", "--config", str(config), "--out", str(blocker / "sub")])
        assert code == EXIT_RUNTIME
        assert "error" in capsys.readouterr().err

    def test_seed_override(self, tmp_path):
        config = write_config(
            tmp_path / "c.conf",
            "data.subjects = 60\nbootstrap.replicates = 3\n",
        )
        main(["simulate", "--config", str(config), "--seed", "9",
              "--out", str(tmp_path / "out")])
        text = (tmp_path / "out" / "config.txt").read_text()
        assert "seed = 9" in text

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        config = write_config(
            tmp_path / "c.conf",
            "data.subjects = 80\nbootstrap.replicates = 5\nestimation.benchmark = 1.0\n",
        )
        main(["simulate", "--config", str(config), "--out", str(tmp_path / "a")])
        main(["simulate", "--config", str(config), "--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "results.csv").read_bytes() == \
            (tmp_path / "b" / "results.csv").read_bytes()

    @pytest.mark.parametrize("text, extra, build", [
        pytest.param("estimation.estimator = XYZ\n", [],
                     lambda: _library_scenario(estimator="XYZ"), id="estimator"),
        pytest.param("estimation.estimand = XYZ\n", [],
                     lambda: _library_scenario(estimand="XYZ"), id="estimand"),
        pytest.param("analysis = XYZ\n", [],
                     lambda: _library_scenario(analysis="XYZ"), id="analysis"),
        pytest.param("bootstrap.replicates = 0\n", [],
                     lambda: _library_scenario(bootstrap_replicates=0), id="replicates"),
        pytest.param("", ["--seed", "-1"],
                     lambda: _library_scenario(master_seed=-1), id="seed"),
        pytest.param("reduction.intermediate_dim = 3\n", [],
                     lambda: _library_scenario(intermediate_dim=3), id="intermediate-dim"),
        pytest.param("reduction.collaborative_dim = 0\n", [],
                     lambda: _library_scenario(collaborative_dim=0), id="collaborative-dim-0"),
        pytest.param("anchor.subjects = 40\nreduction.collaborative_dim = 41\n", [],
                     lambda: _library_scenario(anchor_size=40, collaborative_dim=41),
                     id="collaborative-dim-above-anchor"),
        pytest.param("data.correlation = 1.0\n", [],
                     lambda: ArtificialDataConfig(subjects=60, correlation=1.0), id="correlation"),
        pytest.param("data.noise_sd = inf\n", [],
                     lambda: ArtificialDataConfig(subjects=60, noise_sd=float("inf")),
                     id="noise-inf"),
        pytest.param("data.noise_sd = nan\n", [],
                     lambda: ArtificialDataConfig(subjects=60, noise_sd=float("nan")),
                     id="noise-nan"),
        *[pytest.param(f"estimation.benchmark = {text}\n", [],
                       lambda text=text: _library_scenario(benchmark=float(text)),
                       id=f"benchmark-{text}") for text in ("inf", "-inf", "nan")],
    ])
    def test_rejected_with_the_library_message(self, tmp_path, capsys, text, extra, build):
        # The command line has no rules of its own for these values: it
        # reports what the library's config objects raise.
        with pytest.raises(ConfigError) as caught:
            build()
        config = write_config(tmp_path / "c.conf", "data.subjects = 60\n" + text)
        code = main(["simulate", "--config", str(config), "--out", str(tmp_path / "out")] + extra)
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert "Traceback" not in err
        assert err == f"config error: {caught.value}\n"
        assert not (tmp_path / "out").exists()

    def test_scope_with_one_treatment_group_exits_runtime_naming_it(self, tmp_path, capsys):
        config = write_config(tmp_path / "c.conf", "data.subjects = 12\n"
                              "partition.row_blocks = 3,9\nscope.kind = top\n"
                              "analysis = centralized\nbootstrap.replicates = 2\nseed = 2\n")
        code = main(["simulate", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == EXIT_RUNTIME
        assert capsys.readouterr().err == \
            "error: collaboration CA: the scope's 3 subjects include no treated subject\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("seed, group", [(0, "treated"), (1, "control")])
    @pytest.mark.parametrize("extra", [
        "", "estimation.estimator = PSM\nbootstrap.resample = false\n",
    ], ids=["ipw", "psm-without-resampling"])
    def test_scope_with_one_subject_in_a_group_exits_runtime_naming_it(self, tmp_path, capsys,
                                                                       seed, group, extra):
        # Every resample needs two subjects per group, and so does the scope, even
        # when no resample is drawn.
        config = write_config(tmp_path / "c.conf", "data.subjects = 12\n"
                              "partition.row_blocks = 3,9\nscope.kind = top\n"
                              f"analysis = centralized\nbootstrap.replicates = 2\nseed = {seed}\n"
                              + extra)
        code = main(["simulate", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == EXIT_RUNTIME
        assert capsys.readouterr().err == \
            f"error: collaboration CA: the scope's 3 subjects include only one {group} subject\n"
        assert not (tmp_path / "out").exists()

    def test_impossible_size_exits_runtime_without_traceback(self, tmp_path):
        # numpy rejects the shape before it allocates anything.
        config = write_config(tmp_path / "c.conf",
                              "data.subjects = 100000000000000000000\nbootstrap.replicates = 2\n")
        src = Path(dcqe.__file__).resolve().parent.parent
        done = subprocess.run(
            [sys.executable, "-m", "dcqe", "simulate", "--config", str(config),
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=str(src)),
        )
        assert done.returncode == EXIT_RUNTIME
        assert done.stderr.startswith("error: ")
        assert "Traceback" not in done.stderr


class TestRejectionMessages:
    @pytest.mark.parametrize("command, text, extra, message", [
        ("simulate", "data.subjects = 60\npartition.row_blocks = 0,60\n", [],
         "partition: every partition block must be non-empty"),
        ("simulate", "data.subjects = 60\npartition.col_blocks = 6,0\n", [],
         "partition: every partition block must be non-empty"),
        ("simulate", "output.formats = ,\n", [], "output.formats: needs at least one format"),
        ("simulate", "suite = experiment-two\n", [],
         "suite experiment-two requires the evaluate command with --data"),
        ("evaluate", "", [], "evaluate command needs a data path (--data or evaluate.data)"),
        ("run", "run.block.0 = b.csv\n", [],
         "run command needs run.party.<k>.<l> and run.block.<k> keys"),
        ("run", "run.party.0.0 = p.csv\n", [],
         "run command needs run.party.<k>.<l> and run.block.<k> keys"),
    ], ids=["empty-row-block", "empty-col-block", "no-format", "experiment-two-simulated",
            "evaluate-without-data", "run-without-party",
            "run-without-block"])
    def test_exits_config_with_message(self, tmp_path, capsys, command, text, extra, message):
        config = write_config(tmp_path / "c.conf", text)
        code = main([command, "--config", str(config), "--out", str(tmp_path / "out")] + extra)
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_unknown_command_is_named(self, tmp_path):
        config = write_config(tmp_path / "c.conf", "")
        with pytest.raises(ConfigError, match="^unknown command 'bogus'$"):
            parse_config(config, "bogus")


def _library_scenario(**overrides):
    """The ScenarioConfig the command line builds for 60 synthetic subjects."""
    spec = PartitionSpec((30, 30), (3, 3))
    settings = dict(partition=spec, scope=CollaborationScope.build("whole", spec),
                    intermediate_dim=2, collaborative_dim=6, anchor_size=60)
    settings.update(overrides)
    return ScenarioConfig(**settings)


class TestSuiteRuns:
    def test_experiment_one_suite_emits_ten_row_table(self, tmp_path):
        config = write_config(
            tmp_path / "suite.conf",
            "suite = experiment-one\ndata.subjects = 120\nbootstrap.replicates = 2\n",
        )
        code = main(["simulate", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == EXIT_OK
        lines = (tmp_path / "out" / "results.csv").read_text().splitlines()
        assert len(lines) == 11  # header plus ten scenario rows
        table = (tmp_path / "out" / "results.txt").read_text()
        for heading in ("Estimator", "Collaboration", "ATE", "Gap",
                        "Inconsistency w/True", "Inconsistency w/CA", "MASMD"):
            assert heading in table

    def test_pretty_table_format_alias(self, tmp_path):
        config = write_config(
            tmp_path / "c.conf",
            "data.subjects = 60\nbootstrap.replicates = 2\noutput.formats = pretty-table\n",
        )
        assert parse_config(config).settings["output.formats"] == ("table",)


class TestIngestionFidelity:
    def test_values_parse_to_full_decimal_fidelity(self, tmp_path):
        # Shortest round-trip reprs survive ingestion bit-exactly, and
        # re-emitting them reproduces the original text.
        values = [0.1, 1 / 3, 2.5000000000000004, 1e-12, 12345.678901234567]
        rows = [f"1,{values[0]!r},{values[1]!r},3000.5",
                f"0,{values[2]!r},{values[3]!r},{values[4]!r}"]
        path = write_rows(tmp_path / "d.csv", rows, header="treatment,a,b,re78")
        data = ingest_csv(path, ("a", "b"), "treatment", "re78")
        assert data.covariates[0, 0] == values[0]
        assert data.covariates[0, 1] == values[1]
        assert data.covariates[1, 0] == values[2]
        assert data.covariates[1, 1] == values[3]
        assert data.outcomes[1] == values[4]
        assert repr(float(data.covariates[1, 0])) == "2.5000000000000004"


class TestRunCommand:
    def test_run_on_party_files(self, tmp_path):
        files, blocks = write_party_grid(tmp_path)
        lines = ["bootstrap.replicates = 3", "reduction.intermediate_dim = 1",
                 "run.id_column = id"]
        lines += [f"run.party.{k}.{l} = {p}" for (k, l), p in files.items()]
        lines += [f"run.block.{k} = {p}" for k, p in blocks.items()]
        config = write_config(tmp_path / "run.conf", "\n".join(lines) + "\n")
        code = main(["run", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == EXIT_OK
        payload = json.loads((tmp_path / "out" / "results.json").read_text())
        assert payload["results"][0]["analysis"] == "dcqe"
        assert payload["results"][0]["subjects"] == 8
        # The width, unset, is written back as every covariate of the grid.
        given = {"output.dir": str(tmp_path / "out"), "reduction.collaborative_dim": "4"}
        assert parse_config(tmp_path / "out" / "config.txt", "run") == \
            parse_config(config, "run", given)

    def test_run_without_a_width_writes_every_covariate_of_the_grid(self, tmp_path):
        files, blocks = write_party_grid(tmp_path)
        lines = ["bootstrap.replicates = 2", "reduction.intermediate_dim = 1",
                 "run.id_column = id"]
        lines += [f"run.party.{k}.{l} = {p}" for (k, l), p in files.items()]
        lines += [f"run.block.{k} = {p}" for k, p in blocks.items()]
        config = write_config(tmp_path / "run.conf", "\n".join(lines) + "\n")
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == EXIT_OK
        written = (tmp_path / "out" / "config.txt").read_text(encoding="utf-8").splitlines()
        assert "reduction.collaborative_dim = 4" in written
        payload = json.loads((tmp_path / "out" / "results.json").read_text())
        assert payload["results"][0]["collaborative_dim"] == 4

    @pytest.mark.parametrize("alias", ["run.party.01.0", "run.party.\u0661.0", "run.party.1.00",
                                       "run.block.01", "run.block.\uff11"])
    def test_index_spelled_other_than_canonically_is_an_unknown_key(self, tmp_path, capsys,
                                                                     alias):
        # Otherwise it would name the same party or block as its canonical key.
        files, blocks = write_party_grid(tmp_path)
        lines = ["run.id_column = id", f"{alias} = {tmp_path / 'bad.csv'}"]
        lines += [f"run.party.{k}.{l} = {p}" for (k, l), p in files.items()]
        lines += [f"run.block.{k} = {p}" for k, p in blocks.items()]
        config = write_config(tmp_path / "run.conf", "\n".join(lines) + "\n")
        code = main(["run", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: line 2: unknown key {alias!r}\n"
        assert not (tmp_path / "out").exists()

    def test_canonical_indices_of_several_digits_name_their_parties(self, tmp_path):
        keys = ["run.party.0.0", "run.party.10.0", "run.party.0.10", "run.block.0", "run.block.10"]
        path = write_config(tmp_path / "c.conf", "".join(f"{key} = {key}.csv\n" for key in keys))
        settings = parse_config(path, "run").settings
        assert [key for key in settings if key.startswith(("run.party", "run.block"))] == \
            ["run.party.0.0", "run.party.0.10", "run.party.10.0", "run.block.0", "run.block.10"]

    def test_party_file_that_is_not_utf8_exits_ingestion_naming_the_file(self, tmp_path, capsys):
        files, blocks = write_party_grid(tmp_path)
        bad = Path(files[(1, 0)])
        bad.write_bytes(bad.read_bytes() + b"\xff\n")
        lines = ["bootstrap.replicates = 2", "reduction.intermediate_dim = 1",
                 "run.id_column = id"]
        lines += [f"run.party.{k}.{l} = {p}" for (k, l), p in files.items()]
        lines += [f"run.block.{k} = {p}" for k, p in blocks.items()]
        config = write_config(tmp_path / "run.conf", "\n".join(lines) + "\n")
        code = main(["run", "--config", str(config), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == EXIT_INGESTION
        assert err.startswith(f"ingestion error: {bad}: 'utf-8' codec can't decode")
        assert "Traceback" not in err

    def test_header_only_row_block_exits_ingestion_naming_its_label_file(self, tmp_path,
                                                                       capsys):
        files, blocks = write_party_grid(tmp_path)
        for path in [blocks[0], files[(0, 0)], files[(0, 1)]]:
            Path(path).write_text(Path(path).read_text().splitlines()[0] + "\n")
        lines = ["bootstrap.replicates = 2", "reduction.intermediate_dim = 1",
                 "run.id_column = id"]
        lines += [f"run.party.{k}.{l} = {p}" for (k, l), p in files.items()]
        lines += [f"run.block.{k} = {p}" for k, p in blocks.items()]
        config = write_config(tmp_path / "run.conf", "\n".join(lines) + "\n")
        code = main(["run", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == EXIT_INGESTION
        assert capsys.readouterr().err == \
            f"ingestion error: {blocks[0]}: no data rows, a row block needs a subject\n"

    def test_constant_party_columns_exit_runtime_with_reason(self, tmp_path, capsys):
        party = write_rows(tmp_path / "party.csv", [f"{i},1,2,3,4" for i in range(50)],
                           header="id,a,b,c,d")
        rng = np.random.default_rng(0)
        block = write_rows(tmp_path / "block.csv",
                           [f"{i},{i % 2},{rng.normal()!r}" for i in range(50)],
                           header="id,treatment,outcome")
        config = write_config(tmp_path / "run.conf", "\n".join([
            f"run.party.0.0 = {party}", f"run.block.0 = {block}", "run.id_column = id",
            "reduction.intermediate_dim = 2", "reduction.collaborative_dim = 2",
            "bootstrap.replicates = 3",
        ]) + "\n")
        code = main(["run", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert "anchor image has numerical rank 0" in err
        assert "constant party columns" in err

    def test_covariate_range_wider_than_a_double_exits_runtime_naming_the_anchor_range(
            self, tmp_path, capsys):
        # Column b spans [-1e308, 1e308]: its max - min overflows, so no anchor can be drawn.
        rng = np.random.default_rng(0)
        wide = [1e308, -1e308] + [0.0] * 38
        party0 = write_rows(tmp_path / "p0.csv",
                            [f"{i},{rng.normal()!r},{wide[i]!r}" for i in range(40)],
                            header="id,a,b")
        party1 = write_rows(tmp_path / "p1.csv",
                            [f"{i},{rng.normal()!r},{rng.normal()!r}" for i in range(40)],
                            header="id,c,d")
        block = write_rows(tmp_path / "block.csv",
                           [f"{i},{i % 2},{rng.normal()!r}" for i in range(40)],
                           header="id,treatment,outcome")
        config = write_config(tmp_path / "run.conf", "\n".join([
            f"run.party.0.0 = {party0}", f"run.party.0.1 = {party1}", f"run.block.0 = {block}",
            "run.id_column = id", "reduction.intermediate_dim = 1",
            "reduction.collaborative_dim = 2", "bootstrap.replicates = 2",
        ]) + "\n")
        code = main(["run", "--config", str(config), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == EXIT_RUNTIME
        assert "anchor range 1 [-1e+308, 1e+308] is too wide" in err
        assert "Traceback" not in err

    def test_overflowing_column_mean_exits_runtime_naming_the_column(self, tmp_path, capsys):
        # Column b holds two 1e308 cells: its range fits a double, its sum does not.
        rng = np.random.default_rng(0)
        big = [1e308, 1e308] + [0.0] * 38
        party0 = write_rows(tmp_path / "p0.csv",
                            [f"{i},{rng.normal()!r},{big[i]!r}" for i in range(40)],
                            header="id,a,b")
        party1 = write_rows(tmp_path / "p1.csv",
                            [f"{i},{rng.normal()!r},{rng.normal()!r}" for i in range(40)],
                            header="id,c,d")
        block = write_rows(tmp_path / "block.csv",
                           [f"{i},{i % 2},{rng.normal()!r}" for i in range(40)],
                           header="id,treatment,outcome")
        config = write_config(tmp_path / "run.conf", "\n".join([
            f"run.party.0.0 = {party0}", f"run.party.0.1 = {party1}", f"run.block.0 = {block}",
            "run.id_column = id", "reduction.intermediate_dim = 1",
            "reduction.collaborative_dim = 2", "bootstrap.replicates = 2",
        ]) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["run", "--config", str(config), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == EXIT_RUNTIME
        assert err == ("error: collaboration W-clb: party (0, 0): party covariates column 1: "
                       "its mean or standard deviation overflows a double\n")
        assert "SVD did not converge" not in err

    def test_overflowing_reference_fit_exits_runtime_naming_it(self, tmp_path, capsys):
        # Column b of the left parties is near 1.5e154: each party standardizes it
        # fine, but the centralized reference fits the raw covariates and overflows.
        rng = np.random.default_rng(0)
        lines = ["run.id_column = id", "reduction.intermediate_dim = 2",
                 "reduction.collaborative_dim = 4", "bootstrap.replicates = 2"]
        for k in (0, 1):
            ids = range(20 * k, 20 * k + 20)
            for l in (0, 1):
                rows = [f"{i},{rng.normal()!r},"
                        f"{1.5e154 + 1e150 * rng.normal() if l == 0 else rng.normal()!r},"
                        f"{rng.normal()!r}" for i in ids]
                party = write_rows(tmp_path / f"p{k}{l}.csv", rows, header="id,a,b,c")
                lines.append(f"run.party.{k}.{l} = {party}")
            block = write_rows(tmp_path / f"b{k}.csv",
                               [f"{i},{i % 2},{rng.normal()!r}" for i in ids],
                               header="id,treatment,outcome")
            lines.append(f"run.block.{k} = {block}")
        config = write_config(tmp_path / "run.conf", "\n".join(lines) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["run", "--config", str(config), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == EXIT_RUNTIME
        assert err == ("error: collaboration W-clb: centralized reference fit: features too "
                       "large: the logistic fit overflows a double\n")

    def test_overflowing_effect_exits_runtime_and_writes_nothing(self, tmp_path, capsys):
        # Outcomes of +-1e308 by treatment group: every estimate overflows.
        rng = np.random.default_rng(1)
        parties = [write_rows(tmp_path / f"p{l}.csv",
                              [f"{i},{rng.normal()!r},{rng.normal()!r}" for i in range(40)],
                              header="id,a,b") for l in range(2)]
        block = write_rows(tmp_path / "block.csv",
                           [f"{i},{i % 2},{1e308 if i % 2 else -1e308!r}" for i in range(40)],
                           header="id,treatment,outcome")
        config = write_config(tmp_path / "run.conf", "\n".join([
            f"run.party.0.0 = {parties[0]}", f"run.party.0.1 = {parties[1]}",
            f"run.block.0 = {block}", "run.id_column = id", "reduction.intermediate_dim = 1",
            "reduction.collaborative_dim = 2", "bootstrap.replicates = 2",
        ]) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["run", "--config", str(config), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == EXIT_RUNTIME
        assert err == "error: estimates contains non-finite entries\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("effect", ["inf", "nan"])
    def test_non_finite_benchmark_exits_config_and_writes_nothing(self, tmp_path, capsys,
                                                                   effect):
        # The scenario is built, and its benchmark checked, once the files are read.
        rng = np.random.default_rng(2)
        parties = [write_rows(tmp_path / f"p{l}.csv",
                              [f"{i},{rng.normal()!r},{rng.normal()!r}" for i in range(40)],
                              header="id,a,b") for l in range(2)]
        block = write_rows(tmp_path / "block.csv",
                           [f"{i},{i % 2},{rng.normal()!r}" for i in range(40)],
                           header="id,treatment,outcome")
        config = write_config(tmp_path / "run.conf", "\n".join([
            f"run.party.0.0 = {parties[0]}", f"run.party.0.1 = {parties[1]}",
            f"run.block.0 = {block}", "run.id_column = id", "reduction.intermediate_dim = 1",
            "reduction.collaborative_dim = 2", "bootstrap.replicates = 2",
            f"estimation.benchmark = {effect}",
        ]) + "\n")
        code = main(["run", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == \
            f"config error: benchmark must be finite, got {float(effect)!r}\n"
        assert not (tmp_path / "out").exists()

    def test_non_strict_reduction_of_ingested_parties_is_a_config_error(self, tmp_path, capsys):
        # The parties hold two columns each, so a width of 2 is no reduction;
        # the rule needs the ingested partition and is checked after reading.
        files, blocks = write_party_grid(tmp_path)
        lines = ["bootstrap.replicates = 2", "reduction.intermediate_dim = 2",
                 "run.id_column = id"]
        lines += [f"run.party.{k}.{l} = {p}" for (k, l), p in files.items()]
        lines += [f"run.block.{k} = {p}" for k, p in blocks.items()]
        config = write_config(tmp_path / "run.conf", "\n".join(lines) + "\n")
        code = main(["run", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert "config error: reduction must be strict" in capsys.readouterr().err

    def test_over_long_cell_exits_ingestion_naming_the_file(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        rows = [f"{i},{rng.normal()!r},{rng.normal()!r}" for i in range(50)]
        rows[7] = "7," + "1" * 140_000 + ",0.5"
        party = write_rows(tmp_path / "party.csv", rows, header="id,a,b")
        block = write_rows(tmp_path / "block.csv",
                           [f"{i},{i % 2},{rng.normal()!r}" for i in range(50)],
                           header="id,treatment,outcome")
        config = write_config(tmp_path / "run.conf", "\n".join([
            f"run.party.0.0 = {party}", f"run.block.0 = {block}", "run.id_column = id",
            "reduction.intermediate_dim = 1", "reduction.collaborative_dim = 1",
            "bootstrap.replicates = 2",
        ]) + "\n")
        code = main(["run", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == EXIT_INGESTION
        err = capsys.readouterr().err
        assert str(party) in err
        assert "field larger than field limit" in err

    @pytest.mark.skipif(_available_cpus() < 2 or not hasattr(os, "fork"),
                        reason="bootstrap workers need 2 CPUs and fork")
    def test_dead_bootstrap_worker_exits_runtime_without_traceback(self, tmp_path):
        config = write_config(tmp_path / "c.conf",
                              "data.subjects = 60\nbootstrap.replicates = 3\n")
        # The worker's entry point dies; only workers call it.
        script = "\n".join([
            "import os, sys",
            "from dcqe import cli, runner",
            "def dying(*args):",
            "    os._exit(1)",
            "runner._serve_range = dying",
            "sys.exit(cli.main(sys.argv[1:]))",
        ])
        src = Path(dcqe.__file__).resolve().parent.parent
        done = subprocess.run(
            [sys.executable, "-c", script, "simulate", "--config", str(config),
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=str(src)),
        )
        assert done.returncode == EXIT_RUNTIME
        assert "a worker process died" in done.stderr
        assert "Traceback" not in done.stderr

    @pytest.mark.skipif(_available_cpus() < 2 or not hasattr(os, "fork"),
                        reason="row-block readers need 2 CPUs and fork")
    def test_dead_row_block_reader_exits_runtime_without_traceback(self, tmp_path):
        files, blocks = write_party_grid(tmp_path)
        config = write_config(tmp_path / "run.conf", "\n".join(
            [f"run.party.{k}.{l} = {path}" for (k, l), path in files.items()]
            + [f"run.block.{k} = {path}" for k, path in blocks.items()]
            + ["run.id_column = id", "reduction.intermediate_dim = 1",
               "bootstrap.replicates = 3"]) + "\n")
        # The reader of row block 1 dies in its worker; the parent reports
        # whether any child is left once the command has returned.
        script = "\n".join([
            "import os, sys",
            "from dcqe import cli, tabular",
            "parent, read = os.getpid(), tabular._read_row_block",
            "def dying(label_path, *args):",
            "    if os.getpid() != parent and label_path.endswith('block_1.csv'):",
            "        os._exit(1)",
            "    return read(label_path, *args)",
            "tabular._read_row_block = dying",
            "code = cli.main(sys.argv[1:])",
            "try:",
            "    print('child left:', os.waitpid(-1, os.WNOHANG))",
            "except ChildProcessError:",
            "    print('no child left')",
            "sys.exit(code)",
        ])
        src = Path(dcqe.__file__).resolve().parent.parent
        done = subprocess.run(
            [sys.executable, "-c", script, "run", "--config", str(config),
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=str(src)),
        )
        assert done.returncode == EXIT_RUNTIME
        assert "a worker process died: exit code 1" in done.stderr
        assert "Traceback" not in done.stderr
        assert done.stdout.splitlines()[-1] == "no child left"
        assert not (tmp_path / "out" / "results.csv").exists()


# The keys each mode reads, written out here rather than taken from
# ``cli.SETTINGS``: a mode is a command, and for ``simulate`` its suite.
# ``simulate`` with suite = scenario reads them all only at the ``VALUES``
# scope.kind = custom and analysis = dcqe.
COMMON_KEYS = {"bootstrap.replicates", "seed", "output.dir", "output.formats",
               "output.dump_bootstrap"}
SCENARIO_KEYS = {"reduction.intermediate_dim", "reduction.collaborative_dim", "anchor.subjects",
                 "estimation.estimator", "estimation.estimand", "estimation.benchmark",
                 "bootstrap.resample"}
SYNTHETIC_KEYS = {"data.subjects", "data.covariates", "data.correlation", "data.noise_sd",
                  "partition.row_blocks", "partition.col_blocks", "scope.kind", "scope.rows",
                  "scope.cols", "analysis"}
READS = {
    ("simulate", "scenario"): {"suite"} | COMMON_KEYS | SCENARIO_KEYS | SYNTHETIC_KEYS,
    ("simulate", "experiment-one"): {"suite", "data.subjects"} | COMMON_KEYS,
    ("simulate", "experiment-two"): {"suite"} | COMMON_KEYS,
    ("evaluate", "experiment-two"): {"suite", "evaluate.data"} | COMMON_KEYS,
    ("run", None): {"run.id_column", "run.party.0.0", "run.block.0"} | COMMON_KEYS
    | SCENARIO_KEYS,
}
# One valid value per key, valid together in every mode that reads them.
VALUES = {
    "data.subjects": "60", "data.covariates": "6", "data.correlation": "0.25",
    "data.noise_sd": "0.5", "partition.row_blocks": "20,40", "partition.col_blocks": "3,3",
    "scope.kind": "custom", "scope.rows": "0,1", "scope.cols": "1", "analysis": "dcqe",
    "reduction.intermediate_dim": "1", "reduction.collaborative_dim": "2",
    "anchor.subjects": "50", "estimation.estimator": "PSM", "estimation.estimand": "ATT",
    "estimation.benchmark": "1.5", "bootstrap.replicates": "3", "bootstrap.resample": "false",
    "seed": "7", "output.dir": "somewhere", "output.formats": "csv,table",
    "output.dump_bootstrap": "true", "evaluate.data": "nsw.csv", "run.id_column": "id",
    "run.party.0.0": "party.csv", "run.block.0": "labels.csv",
}
ALL_MODES = list(READS)
# Keys simulate with suite = scenario reads only at analysis = dcqe, and only
# at scope.kind = custom.
DCQE_ONLY_KEYS = {"reduction.intermediate_dim", "reduction.collaborative_dim", "anchor.subjects"}
CUSTOM_SCOPE_KEYS = {"scope.rows", "scope.cols"}


def mode_id(mode):
    return "-".join(part for part in mode if part)


def mode_config(path, mode, keys):
    """A config file for ``mode`` setting ``keys`` to their ``VALUES``.

    It names the suite of its mode and, in run mode, one party and its labels.
    """
    command, suite = mode
    values = dict(VALUES, suite=suite or "scenario")
    keys = dict.fromkeys((["suite"] if suite else [])
                         + (["run.party.0.0", "run.block.0"] if command == "run" else []) + keys)
    return write_config(path, "".join(f"{key} = {values[key]}\n" for key in keys))


class TestKeysPerCommand:
    @pytest.mark.parametrize("mode, key", [
        pytest.param(mode, key, id=f"{mode_id(mode)}-{key}")
        for mode in ALL_MODES for key in ["suite", *VALUES] if key not in READS[mode]
    ])
    def test_unread_key_exits_config_naming_key_and_command(self, tmp_path, capsys, mode, key):
        config = mode_config(tmp_path / "c.conf", mode, [key])
        code = main([mode[0], "--config", str(config), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        name = f"simulate with suite = {mode[1]}" if mode[0] == "simulate" else mode[0]
        assert code == EXIT_CONFIG
        assert err == f"config error: {key}: not read by dcqe {name}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("mode", ALL_MODES, ids=mode_id)
    def test_every_key_read_is_accepted_and_written_back(self, tmp_path, mode):
        given = mode_config(tmp_path / "c.conf", mode, sorted(READS[mode]))
        config = parse_config(given, mode[0])
        assert set(config.settings) == READS[mode]
        emitted = write_config(tmp_path / "effective.conf", format_config(config))
        assert parse_config(emitted, mode[0]) == config
        assert sorted(emitted.read_text().splitlines()[1:]) == \
            sorted(given.read_text().splitlines())

    @pytest.mark.parametrize("mode", ALL_MODES, ids=mode_id)
    def test_defaults_and_overrides_round_trip(self, tmp_path, mode):
        overrides = {"seed": "4", "output.dir": str(tmp_path / "out")}
        if mode[0] == "evaluate":
            overrides["evaluate.data"] = "nsw.csv"
        config = parse_config(mode_config(tmp_path / "c.conf", mode, []), mode[0], overrides)
        emitted = write_config(tmp_path / "effective.conf", format_config(config))
        assert parse_config(emitted, mode[0]) == config
        assert config.settings["seed"] == 4

    @pytest.mark.parametrize("setting, key", [
        pytest.param(setting, key, id=f"{setting.split()[-1]}-{key}")
        for setting, keys in [
            ("analysis = centralized", DCQE_ONLY_KEYS),
            ("analysis = individual", DCQE_ONLY_KEYS),
            ("scope.kind = whole", CUSTOM_SCOPE_KEYS),
            ("scope.kind = left", CUSTOM_SCOPE_KEYS),
        ] for key in keys
    ])
    def test_key_unread_at_the_value_given_exits_config(self, tmp_path, capsys, setting, key):
        config = write_config(tmp_path / "c.conf",
                              f"data.subjects = 60\n{setting}\n{key} = {VALUES[key]}\n")
        code = main(["simulate", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {key}: not read by dcqe simulate " \
            f"with suite = scenario and {setting}\n"
        assert not (tmp_path / "out").exists()

    def test_mistyped_analysis_is_named_before_the_keys_it_leaves_unread(self, tmp_path,
                                                                          capsys):
        config = write_config(tmp_path / "c.conf",
                              "analysis = dqce\nreduction.intermediate_dim = 1\n")
        assert main(["simulate", "--config", str(config)]) == EXIT_CONFIG
        assert capsys.readouterr().err == "config error: unknown analysis mode 'dqce'\n"

    @pytest.mark.parametrize("kind", ["Custom", "diagonal"])
    def test_mistyped_scope_kind_exits_config_naming_the_kinds(self, tmp_path, capsys, kind):
        config = write_config(tmp_path / "c.conf", f"data.subjects = 60\nscope.kind = {kind}\n")
        assert main(["simulate", "--config", str(config)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: scope: unknown scope kind {kind!r}, " \
            "expected one of left, right, top, bottom, whole, custom\n"

    @pytest.mark.parametrize("analysis", ["centralized", "individual"])
    def test_scenario_without_dcqe_writes_no_reduction_or_anchor(self, tmp_path, analysis):
        config = parse_config(write_config(tmp_path / "c.conf", f"analysis = {analysis}\n"))
        assert not set(config.settings) & (DCQE_ONLY_KEYS | CUSTOM_SCOPE_KEYS)
        assert config.scenario.intermediate_dim is None
        assert config.scenario.anchor_size is None
        assert not any(line.startswith(("reduction.", "anchor.", "scope.rows", "scope.cols"))
                       for line in format_config(config).splitlines())

    def test_run_mode_writes_its_fixed_anchor_and_leaves_the_width_to_the_run(self, tmp_path):
        config = parse_config(mode_config(tmp_path / "c.conf", ("run", None), []), "run")
        lines = format_config(config).splitlines()
        assert "anchor.subjects = 1000" in lines
        assert config.settings["reduction.collaborative_dim"] is None
        assert not any(line.startswith("reduction.collaborative_dim") for line in lines)

    def test_run_files_are_written_in_block_order(self, tmp_path):
        keys = [f"run.party.{k}.{l}" for k in (10, 2, 0) for l in (1, 0)]
        keys += [f"run.block.{k}" for k in (2, 10, 0)]
        path = write_config(tmp_path / "c.conf", "".join(f"{key} = {key}.csv\n" for key in keys))
        lines = format_config(parse_config(path, "run")).splitlines()
        written = [line.split(" = ")[0] for line in lines if line.startswith("run.")]
        assert written == [f"run.party.{k}.{l}" for k in (0, 2, 10) for l in (0, 1)] \
            + [f"run.block.{k}" for k in (0, 2, 10)]

    @pytest.mark.parametrize("suite", ["scenario", "experiment-one"])
    def test_evaluate_runs_only_experiment_two(self, tmp_path, capsys, suite):
        config = write_config(tmp_path / "c.conf", f"suite = {suite}\n")
        code = main(["evaluate", "--config", str(config), "--data", "nsw.csv"])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == \
            f"config error: suite: dcqe evaluate runs experiment-two, got {suite!r}\n"

    def test_every_shipped_config_parses_under_its_command(self):
        configs = Path(__file__).resolve().parent.parent / "configs"
        commands = {"evaluate.conf": "evaluate", "experiment_one.conf": "simulate",
                    "run_template.conf": "run", "scenario.conf": "simulate"}
        assert sorted(p.name for p in configs.glob("*.conf")) == sorted(commands)
        for name, command in commands.items():
            assert parse_config(configs / name, command).command == command

    @pytest.mark.parametrize("mode", ALL_MODES, ids=mode_id)
    @pytest.mark.parametrize("key, value, build", [
        ("bootstrap.replicates", "0", lambda: _library_scenario(bootstrap_replicates=0)),
        ("seed", "-1", lambda: _library_scenario(master_seed=-1)),
    ])
    def test_replicate_and_seed_rules_are_the_library_ones(self, tmp_path, capsys, mode, key,
                                                           value, build):
        # Only the one-scenario simulate builds its ScenarioConfig before
        # running; the others state its two rules on the values they read.
        with pytest.raises(ConfigError) as caught:
            build()
        config = mode_config(tmp_path / "c.conf", mode, [])
        config.write_text(config.read_text() + f"{key} = {value}\n", encoding="utf-8")
        code = main([mode[0], "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {caught.value}\n"


# Party-file cells: any finite double, with the extremes, subnormals and zero
# drawn often; a column may also be constant.
EXTREME_CELLS = [1e308, -1e308, 5e-324, -5e-324, 2.2250738585072014e-308, 0.0, 1.0]
FUZZ_CELLS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                       st.sampled_from(EXTREME_CELLS))
FUZZ_FILES = ("p0.csv", "p1.csv", "block.csv", "data.csv", "missing.csv")
# Config values for every other key. No digits in free text, so that no size
# key is ever parsed as a large integer.
FUZZ_KEYWORDS = st.sampled_from([
    "true", "false", "IPW", "PSM", "ATE", "ATT", "dcqe", "centralized", "individual", "whole",
    "left", "right", "top", "bottom", "custom", "0,1", "1", "csv,json", "table", "id", "",
    *SUITES])
FUZZ_VALUES = st.one_of(
    st.integers(-3, 12).map(str),
    FUZZ_CELLS.map(repr),
    FUZZ_KEYWORDS,
    st.text(st.characters(blacklist_categories=("Nd", "Cs"), blacklist_characters="\n\r"),
            max_size=6),
)
# Values of the kind each parser reads, drawn as often as FUZZ_VALUES, so that
# more drawn configs get past parsing; block sizes that fit the 40 x 6 default.
PARSED_VALUES = {
    "_parse_int": st.integers(-3, 12).map(str),
    "_parse_float": FUZZ_CELLS.map(repr),
    "_parse_bool": st.sampled_from(["true", "false"]),
    "_parse_int_tuple": st.one_of(
        st.sampled_from(["20,20", "10,30", "40", "3,3", "2,4", "6", "1,5"]),
        st.lists(st.integers(0, 12), max_size=3).map(lambda v: ",".join(map(str, v)))),
    "_parse_str_tuple": st.sampled_from(["csv", "json", "table", "csv,json,table",
                                         "pretty-table"]),
    "_text": FUZZ_KEYWORDS,
}


def rows_read_by(*modes):
    """The ``SETTINGS`` rows that at least one of ``modes`` reads."""
    return sorted(row for row, (_, _, readers) in SETTINGS.items() if set(readers) & set(modes))


@st.composite
def fuzz_config_lines(draw, rows=tuple(sorted(SETTINGS))):
    """``key = value`` lines of the ``rows`` of ``SETTINGS``, each ``#`` a small block index."""
    lines = {}
    for row in draw(st.lists(st.sampled_from(rows), max_size=4)):
        key = ".".join(str(draw(st.integers(0, 2))) if part == "#" else part
                       for part in row.split("."))
        is_path = row.startswith("run.party") or row in ("run.block.#", "evaluate.data")
        parsed = PARSED_VALUES[SETTINGS[row][0].__name__]
        lines[key] = draw(st.sampled_from(FUZZ_FILES) if is_path else st.one_of(parsed, FUZZ_VALUES))
    return lines


@st.composite
def fuzz_columns(draw, n, count=2, kinds=("any", "constant", "moderate")):
    """``count`` columns of ``n`` cells each: constant, of moderate size, or any. Each
    column's kind is drawn from ``kinds``, so a kind named twice is drawn twice as often."""
    cell_kinds = {"constant": None, "moderate": st.floats(-1e3, 1e3), "any": FUZZ_CELLS}
    columns = []
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=count, max_size=count)):
        cells = st.just(draw(FUZZ_CELLS)) if kind == "constant" else cell_kinds[kind]
        columns.append(draw(st.lists(cells, min_size=n, max_size=n)))
    return columns


def fuzz_main(tmp, command, lines):
    """Run ``command`` on the config ``lines``, a file name among them standing for its
    path in ``tmp``; the exit code must be one of the four, with no traceback."""
    lines = {key: str(tmp / value) if value in FUZZ_FILES else value
             for key, value in lines.items()}
    config = write_config(tmp / f"{command}.conf",
                          "".join(f"{key} = {value}\n" for key, value in lines.items()))
    err = io.StringIO()
    with redirect_stderr(err), redirect_stdout(io.StringIO()):
        code = main([command, "--config", str(config), "--out", str(tmp / "out")])
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_INGESTION, EXIT_RUNTIME), err.getvalue()
    assert "Traceback" not in err.getvalue()


class TestRunFuzz:
    """``dcqe run`` on drawn config lines and party cells exits with a code, never a traceback."""

    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.integers(2, 10), fuzz_config_lines())
    def test_exit_code_without_traceback(self, tmp_path_factory, data, n, extra):
        tmp = tmp_path_factory.mktemp("fuzz")
        for name in ("p0.csv", "p1.csv"):
            columns = data.draw(fuzz_columns(n))
            write_rows(tmp / name, [f"{i},{a!r},{b!r}" for i, (a, b) in enumerate(zip(*columns))],
                       header="id,a,b")
        labels = data.draw(st.lists(st.sampled_from([0, 1]), min_size=n, max_size=n))
        outcomes = data.draw(st.lists(FUZZ_CELLS, min_size=n, max_size=n))
        write_rows(tmp / "block.csv", [f"{i},{z},{y!r}" for i, (z, y) in
                                       enumerate(zip(labels, outcomes))],
                   header="id,treatment,outcome")
        lines = {"run.party.0.0": "p0.csv", "run.party.0.1": "p1.csv", "run.block.0": "block.csv",
                 "run.id_column": "id", "reduction.intermediate_dim": "1",
                 "bootstrap.replicates": "2"}
        fuzz_main(tmp, "run", {**lines, **extra})


def fuzz_blocks(total):
    """Up to three positive block sizes that sum to ``total``."""
    cuts = st.lists(st.integers(1, total - 1), max_size=2, unique=True).map(sorted) \
        if total > 1 else st.just([])
    return cuts.map(lambda c: [b - a for a, b in zip([0, *c], [*c, total])])


@st.composite
def fuzz_scenario_lines(draw):
    """The lines of one consistent ``simulate`` scenario: blocks that sum to the data's
    sizes, a scope inside the grid and, for DC-QE, widths its parties and anchor allow."""
    n, m = draw(st.integers(4, 40)), draw(st.integers(1, 6))
    rows, cols = draw(fuzz_blocks(n)), draw(fuzz_blocks(m))
    kind = draw(st.sampled_from(SCOPE_KINDS))
    lines = {"data.subjects": str(n), "data.covariates": str(m), "scope.kind": kind,
             "partition.row_blocks": ",".join(map(str, rows)),
             "partition.col_blocks": ",".join(map(str, cols)),
             "estimation.estimator": draw(st.sampled_from(ESTIMATORS)),
             "estimation.estimand": draw(st.sampled_from(ESTIMANDS))}
    if kind == "custom":
        picks = [draw(st.lists(st.integers(0, len(sizes) - 1), min_size=1, unique=True)
                      .map(sorted)) for sizes in (rows, cols)]
        lines["scope.rows"], lines["scope.cols"] = (",".join(map(str, p)) for p in picks)
        scope = CollaborationScope.custom(*picks)
    else:
        scope = CollaborationScope.build(kind, PartitionSpec(tuple(rows), tuple(cols)))
    smallest = min(cols[l] for l in scope.col_indices)
    lines["analysis"] = draw(st.sampled_from(
        ANALYSIS_MODES if smallest > 1 else [a for a in ANALYSIS_MODES if a != "dcqe"]))
    if lines["analysis"] == "dcqe":
        anchor = draw(st.integers(1, 2 * n))
        lines["anchor.subjects"] = str(anchor)
        lines["reduction.intermediate_dim"] = str(draw(st.integers(1, smallest - 1)))
        lines["reduction.collaborative_dim"] = str(draw(st.integers(1, anchor)))
    return lines


class TestSimulateFuzz:
    """``dcqe simulate`` on drawn lines of the keys it reads, or on the lines of one
    consistent scenario, exits with a code, never a traceback; a small synthetic dataset
    and two replicates unless a line says otherwise."""

    @settings(max_examples=600, deadline=None)
    @given(st.one_of(fuzz_config_lines(rows_read_by(*SUITES)), fuzz_scenario_lines()))
    def test_exit_code_without_traceback(self, tmp_path_factory, extra):
        lines = {"data.subjects": "40", "bootstrap.replicates": "2"}
        fuzz_main(tmp_path_factory.mktemp("fuzz"), "simulate", {**lines, **extra})


class TestEvaluateFuzz:
    """``dcqe evaluate`` on drawn lines of the keys it reads and on a drawn file of the
    job-training layout, 20 to 60 rows, exits with a code, never a traceback. Most
    columns are of moderate size, so that some files of nine columns get through."""

    @settings(max_examples=50, deadline=None)
    @given(st.data(), st.integers(20, 60),
           st.one_of(st.just({}), fuzz_config_lines(rows_read_by("evaluate"))))
    def test_exit_code_without_traceback(self, tmp_path_factory, data, n, extra):
        tmp = tmp_path_factory.mktemp("fuzz")
        labels = data.draw(st.lists(st.sampled_from([0, 1]), min_size=n, max_size=n))
        columns = data.draw(fuzz_columns(n, count=NSW_HEADER.count(","),
                                         kinds=("any", "constant", *["moderate"] * 6)))
        write_rows(tmp / "data.csv", [",".join([str(z), *map(repr, cells)])
                                      for z, *cells in zip(labels, *columns)])
        lines = {"evaluate.data": "data.csv", "bootstrap.replicates": "2"}
        fuzz_main(tmp, "evaluate", {**lines, **extra})

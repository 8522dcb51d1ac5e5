import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dcqe

from dcqe.cli import (
    EXIT_CONFIG,
    EXIT_INGESTION,
    EXIT_OK,
    EXIT_RUNTIME,
    emit_report,
    execute,
    format_config,
    format_table,
    main,
    parse_config,
    validate_config,
)
from dcqe.datamodel import CollaborationScope, PartitionSpec
from dcqe.errors import ConfigError, IngestionError
from dcqe.experiments import ArtificialDataConfig, ScenarioConfig, _available_cpus
from dcqe.tabular import TabularSchema, ingest_csv, load_party_files


def write_config(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestParseConfig:
    def test_minimal_config_fills_defaults(self, tmp_path):
        path = write_config(tmp_path / "c.conf", "data.subjects = 100\n")
        config = parse_config(path)
        assert config.replicates == 1000
        assert config.seed == 0
        assert config.estimator == "IPW"
        assert config.estimand == "ATE"
        assert config.row_blocks == (50, 50)
        assert config.col_blocks == (3, 3)
        assert config.collaborative_dim == 6  # scope covariate count
        assert config.anchor_subjects == 100

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
        assert parse_config(path).seed == 3

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


SCHEMA = TabularSchema(
    covariates=("age", "education", "married", "nodegree", "black", "hispanic", "re74", "re75"),
    treatment="treatment",
    outcome="re78",
)


class TestIngestCsv:
    def test_reads_well_formed_file(self, tmp_path):
        path = write_rows(tmp_path / "d.csv", [
            "1,25,12,0,0,1,0,0.0,1500.5,4000.25",
            "0,38,9,1,1,0,0,12000.0,13000.0,14000.0",
            "0,44,16,1,0,0,1,9000.0,9500.0,9800.0",
        ])
        data, ids = ingest_csv(path, SCHEMA)
        assert data.covariates.shape == (3, 8)
        assert ids is None
        np.testing.assert_array_equal(data.treatments, [1, 0, 0])
        assert data.outcomes[0] == 4000.25

    def test_non_binary_treatment_reports_row(self, tmp_path):
        path = write_rows(tmp_path / "d.csv", [
            "1,25,12,0,0,1,0,0.0,1500.5,4000.25",
            "2,38,9,1,1,0,0,12000.0,13000.0,14000.0",
        ])
        with pytest.raises(IngestionError, match="row 2"):
            ingest_csv(path, SCHEMA)

    def test_missing_column_named(self, tmp_path):
        path = write_rows(tmp_path / "d.csv", ["1,2,3", "0,4,5"], header="treatment,age,re78")
        with pytest.raises(IngestionError, match="education"):
            ingest_csv(path, SCHEMA)

    def test_unparseable_cell_reports_coordinates(self, tmp_path):
        path = write_rows(tmp_path / "d.csv", [
            "1,25,12,0,0,1,0,0.0,1500.5,4000.25",
            "0,38,not-a-number,1,1,0,0,12000.0,13000.0,14000.0",
        ])
        with pytest.raises(IngestionError, match="row 2.*education"):
            ingest_csv(path, SCHEMA)

    def test_nan_cell_rejected(self, tmp_path):
        path = write_rows(tmp_path / "d.csv", [
            "1,25,12,0,0,1,0,0.0,1500.5,4000.25",
            "0,38,9,1,1,0,0,nan,13000.0,14000.0",
        ])
        with pytest.raises(IngestionError, match="row 2"):
            ingest_csv(path, SCHEMA)

    def test_ragged_row_rejected(self, tmp_path):
        path = write_rows(tmp_path / "d.csv", [
            "1,25,12,0,0,1,0,0.0,1500.5,4000.25",
            "0,38,9,1,1",
        ])
        with pytest.raises(IngestionError, match="row 2"):
            ingest_csv(path, SCHEMA)

    def test_single_row_rejected(self, tmp_path):
        path = write_rows(tmp_path / "d.csv", ["1,25,12,0,0,1,0,0.0,1500.5,4000.25"])
        with pytest.raises(IngestionError, match="at least 2"):
            ingest_csv(path, SCHEMA)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IngestionError, match="not found"):
            ingest_csv(tmp_path / "absent.csv", SCHEMA)


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
        ))
        config = validate_config(config)
        results = execute(config)
        return results, config

    def test_csv_has_header_and_one_line(self, single_result, tmp_path):
        results, config = single_result
        from dataclasses import replace

        config = replace(config, out_dir=str(tmp_path / "out"))
        paths = emit_report(results, config)
        csv_path = [p for p in paths if p.name == "results.csv"][0]
        lines = csv_path.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("estimator,collaboration")

    def test_json_round_trips_full_precision(self, single_result, tmp_path):
        results, config = single_result
        from dataclasses import replace

        config = replace(config, out_dir=str(tmp_path / "out"))
        paths = emit_report(results, config)
        json_path = [p for p in paths if p.name == "results.json"][0]
        payload = json.loads(json_path.read_text())
        row = payload["results"][0]
        assert row["estimate_mean"] == results[0].estimate_mean
        assert row["gap"] == results[0].gap
        assert row["masmd_point"] == results[0].masmd.point
        assert payload["seed"] == config.seed

    def test_bootstrap_sidecar_written(self, single_result, tmp_path):
        results, config = single_result
        from dataclasses import replace

        config = replace(config, out_dir=str(tmp_path / "out"))
        paths = emit_report(results, config)
        sidecar = [p for p in paths if p.name == "bootstrap_estimates.csv"][0]
        lines = sidecar.read_text().splitlines()
        assert len(lines) == 1 + results[0].bootstrap.replicate_count

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
        assert parse_config(config).formats == ("table",)


class TestIngestionFidelity:
    def test_values_parse_to_full_decimal_fidelity(self, tmp_path):
        # Shortest round-trip reprs survive ingestion bit-exactly, and
        # re-emitting them reproduces the original text.
        values = [0.1, 1 / 3, 2.5000000000000004, 1e-12, 12345.678901234567]
        rows = [f"1,{values[0]!r},{values[1]!r},3000.5",
                f"0,{values[2]!r},{values[3]!r},{values[4]!r}"]
        path = write_rows(tmp_path / "d.csv", rows, header="treatment,a,b,re78")
        schema = TabularSchema(covariates=("a", "b"), treatment="treatment", outcome="re78")
        data, _ = ingest_csv(path, schema)
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
            "from dcqe import cli, experiments",
            "def dying(*args):",
            "    os._exit(1)",
            "experiments._serve_range = dying",
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
        assert "a bootstrap worker process died" in done.stderr
        assert "Traceback" not in done.stderr

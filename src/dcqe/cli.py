"""Command-line entry point: config parsing, execution, and report emission.

Configuration files are flat ``key = value`` text with dotted section names,
chosen for diffability and unambiguous parsing. Unknown keys are rejected.
Reports are written as ``results.csv`` (full precision), ``results.json``
(nested per scenario, embedding the effective config), and ``results.txt``
(human-readable table with "mean (se)" cells); the effective configuration is
also written next to them for replay.

Exit codes: 0 on success, 2 for configuration errors, 3 for ingestion errors,
4 for runtime failures.
"""

from __future__ import annotations

import argparse
import csv
import json
import re
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .datamodel import CollaborationScope, PartitionSpec, scoped_partition
from .errors import ConfigError, DcqeError, IngestionError
from .experiments import ScenarioConfig, ScenarioResult, ArtificialDataConfig, \
    generate_artificial, run_experiment_one, run_experiment_two, run_scenario
from .tabular import load_party_files

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INGESTION = 3
EXIT_RUNTIME = 4

SUITES = ("scenario", "experiment-one", "experiment-two")
FORMATS = ("csv", "json", "table")

_PARTY_KEY = re.compile(r"^run\.party\.(\d+)\.(\d+)$")
_BLOCK_KEY = re.compile(r"^run\.block\.(\d+)$")


@dataclass(frozen=True)
class RunConfig:
    """Fully validated settings for one command invocation."""

    command: str = "simulate"
    suite: str = "scenario"
    subjects: int = 1000
    covariates: int = 6
    correlation: float = 0.5
    noise_sd: float = 0.1
    row_blocks: tuple[int, ...] = ()
    col_blocks: tuple[int, ...] = ()
    scope_kind: str = "whole"
    scope_rows: tuple[int, ...] = ()
    scope_cols: tuple[int, ...] = ()
    analysis: str = "dcqe"
    intermediate_dim: int = 2
    collaborative_dim: int | None = None
    anchor_subjects: int | None = None
    estimator: str = "IPW"
    estimand: str = "ATE"
    benchmark: float | None = None
    replicates: int = 1000
    resample: bool = True
    seed: int = 0
    out_dir: str = "results"
    formats: tuple[str, ...] = ("csv", "json", "table")
    dump_bootstrap: bool = False
    data_path: str | None = None
    id_column: str | None = None
    party_files: tuple[tuple[int, int, str], ...] = ()
    block_files: tuple[tuple[int, str], ...] = ()


def _parse_int(value: str, key: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {value!r}") from None


def _parse_float(value: str, key: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {value!r}") from None


def _parse_bool(value: str, key: str) -> bool:
    if value.lower() in ("true", "yes", "1"):
        return True
    if value.lower() in ("false", "no", "0"):
        return False
    raise ConfigError(f"{key}: expected true or false, got {value!r}")


def _parse_int_tuple(value: str, key: str) -> tuple[int, ...]:
    if not value:
        return ()
    return tuple(_parse_int(part.strip(), key) for part in value.split(","))


def _parse_str_tuple(value: str, key: str) -> tuple[str, ...]:
    # "pretty-table" is accepted as a synonym for the plain-text table.
    parts = (part.strip() for part in value.split(","))
    return tuple("table" if p == "pretty-table" else p for p in parts if p)


# key -> (RunConfig attribute, parser)
_SCALAR_KEYS = {
    "suite": ("suite", str),
    "data.subjects": ("subjects", _parse_int),
    "data.covariates": ("covariates", _parse_int),
    "data.correlation": ("correlation", _parse_float),
    "data.noise_sd": ("noise_sd", _parse_float),
    "partition.row_blocks": ("row_blocks", _parse_int_tuple),
    "partition.col_blocks": ("col_blocks", _parse_int_tuple),
    "scope.kind": ("scope_kind", str),
    "scope.rows": ("scope_rows", _parse_int_tuple),
    "scope.cols": ("scope_cols", _parse_int_tuple),
    "analysis": ("analysis", str),
    "reduction.intermediate_dim": ("intermediate_dim", _parse_int),
    "reduction.collaborative_dim": ("collaborative_dim", _parse_int),
    "anchor.subjects": ("anchor_subjects", _parse_int),
    "estimation.estimator": ("estimator", str),
    "estimation.estimand": ("estimand", str),
    "estimation.benchmark": ("benchmark", _parse_float),
    "bootstrap.replicates": ("replicates", _parse_int),
    "bootstrap.resample": ("resample", _parse_bool),
    "seed": ("seed", _parse_int),
    "output.dir": ("out_dir", str),
    "output.formats": ("formats", _parse_str_tuple),
    "output.dump_bootstrap": ("dump_bootstrap", _parse_bool),
    "evaluate.data": ("data_path", str),
    "run.id_column": ("id_column", str),
}


def parse_config(path, command: str = "simulate") -> RunConfig:
    """Read, default-fill and validate a configuration file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    values: dict[str, object] = {"command": command}
    party_files: dict[tuple[int, int], str] = {}
    block_files: dict[int, str] = {}
    seen: set[str] = set()
    for number, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {number}: expected 'key = value', got {raw_line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in seen:
            raise ConfigError(f"line {number}: duplicate key {key!r}")
        seen.add(key)
        party = _PARTY_KEY.match(key)
        block = _BLOCK_KEY.match(key)
        if party:
            party_files[(int(party.group(1)), int(party.group(2)))] = value
        elif block:
            block_files[int(block.group(1))] = value
        elif key in _SCALAR_KEYS:
            attr, parser = _SCALAR_KEYS[key]
            values[attr] = parser(value, key) if parser is not str else value
        else:
            raise ConfigError(f"line {number}: unknown key {key!r}")
    values["party_files"] = tuple(sorted((k, l, p) for (k, l), p in party_files.items()))
    values["block_files"] = tuple(sorted(block_files.items()))
    config = RunConfig(**values)
    return validate_config(_fill_defaults(config))


def _fill_defaults(config: RunConfig) -> RunConfig:
    """Make derived defaults explicit so the effective config is complete."""
    updates = {}
    if not config.row_blocks:
        half = max(config.subjects // 2, 1)
        updates["row_blocks"] = (half, max(config.subjects - half, 1))
    if not config.col_blocks:
        half = max(config.covariates // 2, 1)
        updates["col_blocks"] = (half, max(config.covariates - half, 1))
    config = replace(config, **updates) if updates else config
    if config.collaborative_dim is None and config.analysis == "dcqe":
        try:
            spec = PartitionSpec(config.row_blocks, config.col_blocks)
            cols = scoped_partition(spec, _build_scope(config, spec)).covariate_count
            config = replace(config, collaborative_dim=cols)
        except DcqeError:
            pass  # left for validate_config to report
    if config.anchor_subjects is None:
        config = replace(config, anchor_subjects=config.subjects)
    return config


def _build_scope(config: RunConfig, spec: PartitionSpec) -> CollaborationScope:
    if config.scope_kind != "custom":
        return CollaborationScope.build(config.scope_kind, spec)
    if not config.scope_rows or not config.scope_cols:
        raise ConfigError("scope.kind = custom needs scope.rows and scope.cols")
    return CollaborationScope.custom(config.scope_rows, config.scope_cols)


def validate_config(config: RunConfig) -> RunConfig:
    """Reject configs that would violate pipeline preconditions downstream.

    The scenario and data rules belong to ``ScenarioConfig`` and
    ``ArtificialDataConfig`` and are checked by building them; this function
    checks only the keys the library never sees. In run mode the partition
    comes from the party files, so the scenario rules wait for ``execute``.
    """
    if config.suite not in SUITES:
        raise ConfigError(f"suite: must be one of {SUITES}, got {config.suite!r}")
    if config.command == "evaluate" and config.suite == "scenario":
        config = replace(config, suite="experiment-two")
    unknown = [f for f in config.formats if f not in FORMATS]
    if unknown:
        raise ConfigError(f"output.formats: unknown format {unknown[0]!r}")
    if not config.formats:
        raise ConfigError("output.formats: needs at least one format")
    if config.command != "simulate" or config.suite != "scenario":
        if config.command == "run" and config.suite == "scenario" \
                and (not config.party_files or not config.block_files):
            raise ConfigError("run command needs run.party.<k>.<l> and run.block.<k> keys")
        # These modes build their scenarios later; the replicate count and the
        # seed they take from the config are checked now on a one-party stand-in.
        one = PartitionSpec((1,), (1,))
        ScenarioConfig(one, CollaborationScope.build("whole", one), analysis="centralized",
                       bootstrap_replicates=config.replicates, master_seed=config.seed)
        return config

    _artificial_from_config(config)
    for axis, blocks, key, total in (("row", config.row_blocks, "subjects", config.subjects),
                                     ("col", config.col_blocks, "covariates", config.covariates)):
        if sum(blocks) != total:
            raise ConfigError(f"partition.{axis}_blocks: sum {sum(blocks)} != data.{key} {total}")
    try:
        _scenario_from_config(config)
    except ConfigError:
        raise
    except DcqeError as exc:
        raise ConfigError(f"scope: {exc}") from exc
    return config


def format_config(config: RunConfig) -> str:
    """Serialize the effective configuration back to the flat key format."""
    reverse = {attr: key for key, (attr, _) in _SCALAR_KEYS.items()}
    lines = [f"# effective dcqe configuration (command: {config.command})"]
    for field in fields(RunConfig):
        if field.name in ("command", "party_files", "block_files"):
            continue
        value = getattr(config, field.name)
        if value is None:
            continue
        key = reverse[field.name]
        if isinstance(value, tuple):
            rendered = ",".join(str(v) for v in value)
            if not rendered:
                continue
        elif isinstance(value, bool):
            rendered = "true" if value else "false"
        elif isinstance(value, float):
            rendered = repr(value)
        else:
            rendered = str(value)
        lines.append(f"{key} = {rendered}")
    for k, l, path in config.party_files:
        lines.append(f"run.party.{k}.{l} = {path}")
    for k, path in config.block_files:
        lines.append(f"run.block.{k} = {path}")
    return "\n".join(lines) + "\n"


def _scenario_from_config(config: RunConfig) -> ScenarioConfig:
    spec = PartitionSpec(config.row_blocks, config.col_blocks)
    return ScenarioConfig(
        partition=spec,
        scope=_build_scope(config, spec),
        analysis=config.analysis,
        estimator=config.estimator,
        estimand=config.estimand,
        intermediate_dim=config.intermediate_dim if config.analysis == "dcqe" else None,
        collaborative_dim=config.collaborative_dim if config.analysis == "dcqe" else None,
        anchor_size=config.anchor_subjects,
        bootstrap_replicates=config.replicates,
        resample=config.resample,
        master_seed=config.seed,
        benchmark=config.benchmark,
    )


def _artificial_from_config(config: RunConfig) -> ArtificialDataConfig:
    return ArtificialDataConfig(
        subjects=config.subjects,
        covariate_count=config.covariates,
        correlation=config.correlation,
        noise_sd=config.noise_sd,
        seed=config.seed,
    )


def execute(config: RunConfig) -> list[ScenarioResult]:
    """Run the configured command and return the result table."""
    if config.command == "simulate":
        if config.suite == "experiment-one":
            return run_experiment_one(config.seed, config.replicates, config.subjects)
        if config.suite == "experiment-two":
            raise ConfigError("suite experiment-two requires the evaluate command with --data")
        data, true_scores = generate_artificial(_artificial_from_config(config))
        return [run_scenario(data, _scenario_from_config(config), true_scores)]
    if config.command == "evaluate":
        if not config.data_path:
            raise ConfigError("evaluate command needs a data path (--data or evaluate.data)")
        return run_experiment_two(config.data_path, config.seed, config.replicates)
    if config.command == "run":
        data, spec = load_party_files(
            {(k, l): p for k, l, p in config.party_files},
            dict(config.block_files),
            config.id_column,
        )
        run_cfg = replace(
            config,
            row_blocks=spec.row_blocks,
            col_blocks=spec.col_blocks,
            analysis="dcqe",
            scope_kind="whole",
            collaborative_dim=spec.covariate_count if config.collaborative_dim is None
            else config.collaborative_dim,
        )
        return [run_scenario(data, _scenario_from_config(run_cfg))]
    raise ConfigError(f"unknown command {config.command!r}")


_CSV_COLUMNS = (
    "estimator", "collaboration", "estimand", "analysis", "subjects",
    "estimate_mean", "estimate_se", "point_estimate", "gap",
    "inconsistency_true_mean", "inconsistency_true_se", "inconsistency_true_point",
    "inconsistency_ca_mean", "inconsistency_ca_se", "inconsistency_ca_point",
    "masmd_mean", "masmd_se", "masmd_point",
    "collaborative_dim", "replicates", "master_seed",
)


def _render(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _result_row(result: ScenarioResult) -> dict[str, object]:
    true_summary = result.inconsistency_true
    return {
        "estimator": result.estimator,
        "collaboration": result.collaboration,
        "estimand": result.estimand,
        "analysis": result.analysis,
        "subjects": result.subject_count,
        "estimate_mean": result.estimate_mean,
        "estimate_se": result.estimate_se,
        "point_estimate": result.point_estimate,
        "gap": result.gap,
        "inconsistency_true_mean": None if true_summary is None else true_summary.mean,
        "inconsistency_true_se": None if true_summary is None else true_summary.se,
        "inconsistency_true_point": None if true_summary is None else true_summary.point,
        "inconsistency_ca_mean": result.inconsistency_ca.mean,
        "inconsistency_ca_se": result.inconsistency_ca.se,
        "inconsistency_ca_point": result.inconsistency_ca.point,
        "masmd_mean": result.masmd.mean,
        "masmd_se": result.masmd.se,
        "masmd_point": result.masmd.point,
        "collaborative_dim": result.collaborative_dim,
        "replicates": result.bootstrap.replicate_count,
        "master_seed": result.master_seed,
    }


def _mean_se(mean: float | None, se: float | None) -> str:
    if mean is None:
        return "n/a"
    return f"{mean:.4f} ({se:.4f})"


def format_table(results: list[ScenarioResult]) -> str:
    """Human-readable results with 4-decimal "mean (se)" cells."""
    estimand = results[0].estimand if results else "ATE"
    headers = ["Estimator", "Collaboration", estimand, "Gap",
               "Inconsistency w/True", "Inconsistency w/CA", "MASMD"]
    rows = []
    for r in results:
        true_summary = r.inconsistency_true
        rows.append([
            r.estimator,
            r.collaboration,
            _mean_se(r.estimate_mean, r.estimate_se),
            "n/a" if r.gap is None else f"{r.gap:.4f}",
            "n/a" if true_summary is None else _mean_se(true_summary.mean, true_summary.se),
            _mean_se(r.inconsistency_ca.mean, r.inconsistency_ca.se),
            _mean_se(r.masmd.mean, r.masmd.se),
        ])
    widths = [max(len(h), *(len(row[i]) for row in rows)) if rows else len(h)
              for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
             "  ".join("-" * w for w in widths)]
    lines.extend("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)) for row in rows)
    return "\n".join(lines) + "\n"


def emit_report(results: list[ScenarioResult], config: RunConfig) -> list[Path]:
    """Write the configured report files and return their paths."""
    if not results:
        raise DcqeError("no results to report")
    out_dir = Path(config.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DcqeError(f"cannot create output directory {out_dir}: {exc}") from exc

    written = []
    config_text = format_config(config)
    config_path = out_dir / "config.txt"
    config_path.write_text(config_text, encoding="utf-8")
    written.append(config_path)

    if "csv" in config.formats:
        path = out_dir / "results.csv"
        with path.open("w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(_CSV_COLUMNS)
            for result in results:
                row = _result_row(result)
                writer.writerow([_render(row[c]) for c in _CSV_COLUMNS])
        written.append(path)

    if "json" in config.formats:
        path = out_dir / "results.json"
        payload = {
            "command": config.command,
            "seed": config.seed,
            "config": {line.split(" = ")[0]: line.split(" = ", 1)[1]
                       for line in config_text.splitlines() if " = " in line},
            "results": [_result_row(result) for result in results],
        }
        path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        written.append(path)

    if "table" in config.formats:
        path = out_dir / "results.txt"
        header = f"# command: {config.command}  seed: {config.seed}\n"
        path.write_text(header + format_table(results), encoding="utf-8")
        written.append(path)

    if config.dump_bootstrap:
        path = out_dir / "bootstrap_estimates.csv"
        with path.open("w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(["estimator", "collaboration", "replicate", "estimate"])
            for result in results:
                for b, est in enumerate(result.bootstrap.estimates):
                    writer.writerow([result.estimator, result.collaboration, b, repr(float(est))])
        written.append(path)
    return written


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dcqe",
        description="Privacy-preserving treatment-effect estimation across data silos",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    simulate = sub.add_parser("simulate", help="synthetic-data scenario or full benchmark suite")
    run = sub.add_parser("run", help="collaborative estimation on user-supplied party CSVs")
    evaluate = sub.add_parser("evaluate", help="job-training benchmark on a combined CSV")
    for p in (simulate, run, evaluate):
        p.add_argument("--config", required=True, help="path to a key = value config file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="override the output directory")
    evaluate.add_argument("--data", default=None, help="combined benchmark CSV path")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = parse_config(args.config, command=args.command)
        if args.seed is not None:
            config = validate_config(replace(config, seed=args.seed))
        if args.out is not None:
            config = replace(config, out_dir=args.out)
        if getattr(args, "data", None):
            config = replace(config, data_path=args.data)
        results = execute(config)
        paths = emit_report(results, config)
        sys.stdout.write(format_table(results))
        sys.stdout.write("reports: " + ", ".join(str(p) for p in paths) + "\n")
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except IngestionError as exc:
        print(f"ingestion error: {exc}", file=sys.stderr)
        return EXIT_INGESTION
    except (DcqeError, OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    raise SystemExit(main())

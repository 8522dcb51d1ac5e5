"""Command-line entry point: config parsing, execution, and report emission.

Configuration files are flat ``key = value`` text with dotted section names,
chosen for diffability and unambiguous parsing. ``SETTINGS`` lists the keys:
a key that is unknown, or that the command does not read, is rejected.
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
import io
import json
import os
import re
import sys
from dataclasses import dataclass
from pathlib import Path

from .datamodel import CollaborationScope, PartitionSpec
from .errors import ConfigError, DcqeError, IngestionError, InvalidDataError
from .experiments import METRICS, ScenarioConfig, ScenarioResult, ArtificialDataConfig, \
    check_replicates_and_seed, generate_artificial, run_experiment_one, run_experiment_two, \
    run_scenario
from .tabular import load_party_files

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INGESTION = 3
EXIT_RUNTIME = 4

SUITES = ("scenario", "experiment-one", "experiment-two")
SCENARIO, EXPERIMENT_ONE, EXPERIMENT_TWO = SUITES
FORMATS = ("csv", "json", "table")

# Run mode's anchor size when the config sets none: the synthetic default, not
# the ingested partition's subject count (ROADMAP item 1 replaces it).
RUN_ANCHOR_SUBJECTS = 1000


def _text(value: str, key: str) -> str:
    return value


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


def _halves(total: int) -> tuple[int, int]:
    half = max(total // 2, 1)
    return half, max(total - half, 1)


def _build_scope(settings: dict, spec: PartitionSpec) -> CollaborationScope:
    kind, rows, cols = (settings.get(key) for key in ("scope.kind", "scope.rows", "scope.cols"))
    if kind != "custom":
        return CollaborationScope.build(kind, spec)
    if not rows or not cols:
        raise ConfigError("scope.kind = custom needs scope.rows and scope.cols")
    return CollaborationScope.custom(rows, cols)


# What a command runs: ``simulate`` runs its suite, the others themselves.
MODES = (*SUITES, "evaluate", "run")
_SCENARIO_MODES = (SCENARIO, "run")

# One row per key, in config.txt order: its parser, its default, and the
# modes that read it; every other mode rejects the key. A callable default
# gets the settings above it and the mode. ``#`` stands for a block index.
# An unset size of a DC-QE scenario is None here until ``_scenario`` writes
# back the value ``ScenarioConfig`` gives it.
SETTINGS = {
    "suite": (_text, lambda s, mode: EXPERIMENT_TWO if mode == "evaluate" else SCENARIO,
              (*SUITES, "evaluate")),
    "data.subjects": (_parse_int, 1000, (SCENARIO, EXPERIMENT_ONE)),
    "data.covariates": (_parse_int, 6, (SCENARIO,)),
    "data.correlation": (_parse_float, 0.5, (SCENARIO,)),
    "data.noise_sd": (_parse_float, 0.1, (SCENARIO,)),
    "partition.row_blocks": (_parse_int_tuple, lambda s, mode: _halves(s["data.subjects"]),
                             (SCENARIO,)),
    "partition.col_blocks": (_parse_int_tuple, lambda s, mode: _halves(s["data.covariates"]),
                             (SCENARIO,)),
    "scope.kind": (_text, "whole", (SCENARIO,)),
    "scope.rows": (_parse_int_tuple, (), (SCENARIO,)),
    "scope.cols": (_parse_int_tuple, (), (SCENARIO,)),
    "analysis": (_text, "dcqe", (SCENARIO,)),
    "reduction.intermediate_dim": (_parse_int, 2, _SCENARIO_MODES),
    "reduction.collaborative_dim": (_parse_int, None, _SCENARIO_MODES),
    "anchor.subjects": (_parse_int, lambda s, mode: RUN_ANCHOR_SUBJECTS if mode == "run"
                        else None, _SCENARIO_MODES),
    "estimation.estimator": (_text, "IPW", _SCENARIO_MODES),
    "estimation.estimand": (_text, "ATE", _SCENARIO_MODES),
    "estimation.benchmark": (_parse_float, None, _SCENARIO_MODES),
    "bootstrap.replicates": (_parse_int, 1000, MODES),
    "bootstrap.resample": (_parse_bool, True, _SCENARIO_MODES),
    "seed": (_parse_int, 0, MODES),
    "output.dir": (_text, "results", MODES),
    "output.formats": (_parse_str_tuple, FORMATS, MODES),
    "output.dump_bootstrap": (_parse_bool, False, MODES),
    "evaluate.data": (_text, None, ("evaluate",)),
    "run.id_column": (_text, None, ("run",)),
    "run.party.#.#": (_text, None, ("run",)),
    "run.block.#": (_text, None, ("run",)),
}
# Keys read only at one value of an earlier key, by the modes that read that
# key: ``run`` reads neither ``scope.kind`` nor ``analysis``, so it reads these.
READ_ONLY_WHEN = {
    "scope.rows": ("scope.kind", "custom"),
    "scope.cols": ("scope.kind", "custom"),
    "reduction.intermediate_dim": ("analysis", "dcqe"),
    "reduction.collaborative_dim": ("analysis", "dcqe"),
    "anchor.subjects": ("analysis", "dcqe"),
}


def _unread_because(row: str, settings: dict) -> str | None:
    """The ``key = value`` setting that keeps a mode from reading ``row``, if any."""
    key, value = READ_ONLY_WHEN.get(row, (None, None))
    return f"{key} = {settings[key]}" if settings.get(key, value) != value else None


def _row(key: str) -> str:
    """The ``SETTINGS`` row of a key: ``run.party.0.1`` is a ``run.party.#.#``. An index is
    written canonically, in ASCII digits without leading zeros; ``run.party.01.1`` has no row."""
    return re.sub(r"\.(0|[1-9][0-9]*)(?=\.|$)", ".#", key)


def _indices(key: str) -> tuple[int, ...]:
    return tuple(int(index) for index in key.split(".")[2:])


@dataclass(frozen=True)
class RunConfig:
    """The effective value of each key a command's mode reads, in ``SETTINGS`` order,
    and for a ``simulate`` of one scenario the data and scenario configs it runs.
    """

    command: str
    mode: str
    settings: dict[str, object]
    data: ArtificialDataConfig | None = None
    scenario: ScenarioConfig | None = None


def parse_config(path, command: str = "simulate",
                 overrides: dict[str, str] | None = None) -> RunConfig:
    """Read and validate the settings of one command, rejecting the keys it does not read.

    ``overrides`` maps keys to text that replaces the file's value.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    given: dict[str, object] = {}
    for number, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {number}: expected 'key = value', got {raw_line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in given:
            raise ConfigError(f"line {number}: duplicate key {key!r}")
        if _row(key) not in SETTINGS or "#" in key:
            raise ConfigError(f"line {number}: unknown key {key!r}")
        given[key] = SETTINGS[_row(key)][0](value, key)
    given.update({key: SETTINGS[key][0](value, key) for key, value in (overrides or {}).items()})
    suite = given.get("suite", SCENARIO)
    if suite not in SUITES:
        raise ConfigError(f"suite: must be one of {SUITES}, got {suite!r}")
    mode = suite if command == "simulate" else command
    if mode not in MODES:
        raise ConfigError(f"unknown command {command!r}")
    settings: dict[str, object] = {}
    for row, (_, default, modes) in SETTINGS.items():
        if mode not in modes or _unread_because(row, settings):
            continue
        if row.endswith("#"):
            settings.update(sorted(((key, value) for key, value in given.items()
                                    if _row(key) == row), key=lambda item: _indices(item[0])))
        elif row in given:
            settings[row] = given[row]
        else:
            settings[row] = default(settings, mode) if callable(default) else default

    unknown = [f for f in settings["output.formats"] if f not in FORMATS]
    if unknown:
        raise ConfigError(f"output.formats: unknown format {unknown[0]!r}")
    if not settings["output.formats"]:
        raise ConfigError("output.formats: needs at least one format")
    data = scenario = None
    if mode == SCENARIO:  # first, so a mistyped analysis or scope kind is named as such
        data, scenario = _synthetic_scenario(settings)
    unread = [key for key in given if key not in settings]
    if unread:
        name = f"simulate with suite = {mode}" if command == "simulate" else command
        because = _unread_because(unread[0], settings)
        raise ConfigError(f"{unread[0]}: not read by dcqe {name}"
                          + (f" and {because}" if because else ""))
    if mode == "evaluate" and settings["suite"] != EXPERIMENT_TWO:
        raise ConfigError(f"suite: dcqe evaluate runs {EXPERIMENT_TWO}, got {settings['suite']!r}")
    if mode == "run" and not {"run.party.#.#", "run.block.#"} <= set(map(_row, settings)):
        raise ConfigError("run command needs run.party.<k>.<l> and run.block.<k> keys")
    # Every mode reads these two; most build their ScenarioConfig only after reading data.
    check_replicates_and_seed(settings["bootstrap.replicates"], settings["seed"])
    return RunConfig(command, mode, settings, data, scenario)


def _scenario(settings: dict, spec: PartitionSpec, scope: CollaborationScope,
              analysis: str) -> ScenarioConfig:
    """The scenario of the settings; the sizes it holds are written back to the keys read."""
    scenario = ScenarioConfig(
        partition=spec,
        scope=scope,
        analysis=analysis,
        estimator=settings["estimation.estimator"],
        estimand=settings["estimation.estimand"],
        intermediate_dim=settings.get("reduction.intermediate_dim"),
        collaborative_dim=settings.get("reduction.collaborative_dim"),
        anchor_size=settings.get("anchor.subjects"),
        bootstrap_replicates=settings["bootstrap.replicates"],
        resample=settings["bootstrap.resample"],
        master_seed=settings["seed"],
        benchmark=settings["estimation.benchmark"],
    )
    for key, value in (("reduction.collaborative_dim", scenario.collaborative_dim),
                       ("anchor.subjects", scenario.anchor_size)):
        if key in settings:
            settings[key] = value
    return scenario


def _synthetic_scenario(s: dict) -> tuple[ArtificialDataConfig, ScenarioConfig]:
    """The data and the scenario of ``simulate`` with ``suite = scenario``."""
    data = ArtificialDataConfig(subjects=s["data.subjects"], covariate_count=s["data.covariates"],
                                correlation=s["data.correlation"], noise_sd=s["data.noise_sd"],
                                seed=s["seed"])
    for axis, key in (("row", "subjects"), ("col", "covariates")):
        blocks, total = s[f"partition.{axis}_blocks"], s[f"data.{key}"]
        if sum(blocks) != total:
            raise ConfigError(f"partition.{axis}_blocks: sum {sum(blocks)} != data.{key} {total}")
    try:
        spec = PartitionSpec(s["partition.row_blocks"], s["partition.col_blocks"])
    except InvalidDataError as exc:
        raise ConfigError(f"partition: {exc}") from exc
    try:
        scenario = _scenario(s, spec, _build_scope(s, spec), s["analysis"])
    except InvalidDataError as exc:
        raise ConfigError(f"scope: {exc}") from exc
    return data, scenario


def _render(value) -> str:
    """The text of a report cell or of a setting."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


def _rendered(settings: dict) -> dict[str, str]:
    """The text of each setting, leaving out the unset ones (None or empty)."""
    return {key: _render(value) for key, value in settings.items() if value not in (None, ())}


def format_config(config: RunConfig) -> str:
    """Serialize the effective configuration back to the flat key format."""
    lines = [f"# effective dcqe configuration (command: {config.command})"]
    lines += [f"{key} = {text}" for key, text in _rendered(config.settings).items()]
    return "\n".join(lines) + "\n"


def execute(config: RunConfig) -> list[ScenarioResult]:
    """Run the configured command and return the result table."""
    s = config.settings
    if config.mode == SCENARIO:
        data, true_scores = generate_artificial(config.data)
        return [run_scenario(data, config.scenario, true_scores)]
    if config.mode == EXPERIMENT_ONE:
        return run_experiment_one(s["seed"], s["bootstrap.replicates"], s["data.subjects"])
    if config.mode == EXPERIMENT_TWO:
        raise ConfigError("suite experiment-two requires the evaluate command with --data")
    if config.mode == "evaluate":
        if not s["evaluate.data"]:
            raise ConfigError("evaluate command needs a data path (--data or evaluate.data)")
        return run_experiment_two(s["evaluate.data"], s["seed"], s["bootstrap.replicates"])
    data, spec = load_party_files(
        {_indices(key): path for key, path in s.items() if _row(key) == "run.party.#.#"},
        {_indices(key)[0]: path for key, path in s.items() if _row(key) == "run.block.#"},
        s["run.id_column"],
    )
    return [run_scenario(data, _scenario(s, spec, CollaborationScope.build("whole", spec), "dcqe"))]


def _result_row(result: ScenarioResult) -> dict[str, object]:
    """One result: a results.json entry, and a results.csv row whose columns are its keys."""
    return {
        "estimator": result.estimator,
        "collaboration": result.collaboration,
        "estimand": result.config.estimand,
        "analysis": result.config.analysis,
        "subjects": result.subject_count,
        **result.numbers(),
        "collaborative_dim": result.collaborative_dim,
        "replicates": len(result.bootstrap_estimates),
        "master_seed": result.config.master_seed,
    }


def format_table(results: list[ScenarioResult]) -> str:
    """Human-readable results with 4-decimal "mean (se)" cells."""
    estimand = results[0].config.estimand if results else "ATE"
    headers = ["Estimator", "Collaboration", estimand, "Gap",
               "Inconsistency w/True", "Inconsistency w/CA", "MASMD"]
    rows = []
    for r in results:
        n = r.numbers()
        cells = ["n/a" if n[f"{name}_mean"] is None
                 else f"{n[f'{name}_mean']:.4f} ({n[f'{name}_se']:.4f})"
                 for name in ("estimate", *METRICS)]
        gap = "n/a" if n["gap"] is None else f"{n['gap']:.4f}"
        rows.append([r.estimator, r.collaboration, cells[0], gap, *cells[1:]])
    widths = [max([len(h)] + [len(row[i]) for row in rows]) for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
             "  ".join("-" * w for w in widths)]
    lines.extend("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)) for row in rows)
    return "\n".join(lines) + "\n"


def _csv(rows) -> str:
    """The text of a CSV file of these rows, each line ended by a newline alone."""
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows(rows)
    return text.getvalue()


def emit_report(results: list[ScenarioResult], config: RunConfig) -> list[Path]:
    """Write the configured report files and return their paths."""
    if not results:
        raise DcqeError("no results to report")
    settings = config.settings
    out_dir = Path(settings["output.dir"])
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DcqeError(f"cannot create output directory {out_dir}: {exc}") from exc

    rows = [_result_row(result) for result in results]
    files = {"config.txt": format_config(config)}
    if "csv" in settings["output.formats"]:
        files["results.csv"] = _csv([rows[0], *([_render(value) for value in row.values()]
                                                 for row in rows)])
    if "json" in settings["output.formats"]:
        payload = {
            "command": config.command,
            "seed": settings["seed"],
            "config": _rendered(settings),
            "results": rows,
        }
        files["results.json"] = json.dumps(payload, indent=2) + "\n"
    if "table" in settings["output.formats"]:
        header = f"# command: {config.command}  seed: {settings['seed']}\n"
        files["results.txt"] = header + format_table(results)
    if settings["output.dump_bootstrap"]:
        files["bootstrap_estimates.csv"] = _csv([
            ["estimator", "collaboration", "replicate", "estimate"],
            *([r.estimator, r.collaboration, b, repr(float(est))]
              for r in results for b, est in enumerate(r.bootstrap_estimates))])
    # Each file is overwritten in place, then cut to length: on ext4 (auto_da_alloc),
    # closing a file that was opened with O_TRUNC flushes it to disk, which costs
    # far more than the write.
    for name, text in files.items():
        fd = os.open(out_dir / name, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
        with os.fdopen(fd, "wb") as handle:
            handle.write(text.encode("utf-8"))
            handle.truncate()
    return [out_dir / name for name in files]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dcqe",
        description="Privacy-preserving treatment-effect estimation across data silos",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    simulate = sub.add_parser("simulate", help="synthetic-data scenario or full benchmark suite")
    run = sub.add_parser("run", help="collaborative estimation on user-supplied party CSVs")
    evaluate = sub.add_parser("evaluate", help="job-training benchmark on a combined CSV")
    # Each override's destination is the key it sets.
    for p in (simulate, run, evaluate):
        p.add_argument("--config", required=True, help="path to a key = value config file")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", dest="output.dir", help="override the output directory")
    evaluate.add_argument("--data", dest="evaluate.data", type=lambda path: path or None,
                          help="combined benchmark CSV path; empty leaves evaluate.data")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = vars(_build_parser().parse_args(argv))
    overrides = {key: str(value) for key, value in args.items()
                 if key in SETTINGS and value is not None}
    try:
        config = parse_config(args["config"], args["command"], overrides)
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

"""The benchmark's workloads: inputs from a seed, set-up, main call and output check.

Each workload is a closed loop: one caller in one process makes its main
call, waits for the result, checks it and only then calls again.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "dcqe" / "__init__.py").is_file():
    raise SystemExit(f"benchmark: no dcqe sources under {SRC}; run it from a repository checkout")
sys.path.insert(0, str(SRC))

import dcqe  # noqa: E402
from dcqe import cli, experiments, tabular  # noqa: E402
from dcqe.datamodel import CollaborationScope, PartitionSpec  # noqa: E402

if Path(dcqe.__file__).resolve().parent != SRC / "dcqe":
    raise SystemExit(f"benchmark: imported dcqe from {dcqe.__file__}, expected {SRC / 'dcqe'}")

# The data-generating effect of generate_artificial, for every subject.
TRUE_EFFECT = 1.0
# Largest accepted |estimate_mean - TRUE_EFFECT| on any seed. On seeds 0 to
# 11 both workloads' estimates lie within 0.08 of the effect (standard
# deviation about 0.04 for IPW ATT); a sign flip, a zeroed weight or a wrong
# match lands outside.
NEAR_EFFECT = 0.25
# Seed whose results must agree with reference.json. Byte equality is not
# required: the BLAS thread count alone changes the last bits.
REFERENCE_SEED = 0
REFERENCE_RTOL = 1e-6
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# Per-scenario numbers checked for finiteness and against the reference.
FIELDS = (
    "estimate_mean", "estimate_se", "point_estimate", "gap",
    "inconsistency_true_mean", "inconsistency_ca_mean", "masmd_mean",
)

SUBJECTS_16K = 16000
ROW_BLOCKS_16K = (8000, 8000)
COL_BLOCKS_16K = (3, 3)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``prepare`` makes the benchmark's own inputs from the seed (untimed),
    ``setup`` is the program's own input preparation (timed as set-up),
    ``call`` is the main call (timed as wall time) and ``rows`` turns its
    return value into one dict per scenario, raising if there is none.
    """

    name: str
    why: str
    scenarios: int
    replicates: int
    prepare: Callable[[int, Path], dict]
    setup: Callable[[dict], object]
    call: Callable[[dict, object], object]
    rows: Callable[[dict, object], list[dict]]

    @property
    def runs_per_call(self) -> int:
        """Bootstrap replicates plus point runs completed by one main call."""
        return self.scenarios * (self.replicates + 1)


def _result_rows(results) -> list[dict]:
    rows = []
    for r in results:
        true_summary = r.inconsistency_true
        values = {
            "estimate_mean": r.estimate_mean,
            "estimate_se": r.estimate_se,
            "point_estimate": r.point_estimate,
            "gap": r.gap,
            "inconsistency_true_mean": None if true_summary is None else true_summary.mean,
            "inconsistency_ca_mean": r.inconsistency_ca.mean,
            "masmd_mean": r.masmd.mean,
        }
        rows.append({"label": f"{r.estimator}/{r.collaboration}",
                     **{k: v for k, v in values.items() if v is not None}})
    return rows


# -- psm_whole_16k: one whole-collaboration DC-QE PSM scenario ---------------

PSM_REPLICATES = 3


def _psm_prepare(seed: int, workdir: Path) -> dict:
    spec = PartitionSpec(ROW_BLOCKS_16K, COL_BLOCKS_16K)
    config = experiments.ScenarioConfig(
        partition=spec,
        scope=CollaborationScope.build("whole", spec),
        analysis="dcqe",
        estimator="PSM",
        estimand="ATE",
        intermediate_dim=2,
        collaborative_dim=6,
        anchor_size=SUBJECTS_16K,
        bootstrap_replicates=PSM_REPLICATES,
        master_seed=seed,
        benchmark=TRUE_EFFECT,
    )
    return {"seed": seed, "config": config}


def _psm_setup(inputs: dict):
    return experiments.generate_artificial(
        experiments.ArtificialDataConfig(subjects=SUBJECTS_16K, seed=inputs["seed"]))


def _psm_call(inputs: dict, state):
    data, true_scores = state
    return [experiments.run_scenario(data, inputs["config"], true_scores)]


# -- cli_run_ipw_16k: `dcqe run` on party CSV files --------------------------

CLI_REPLICATES = 30


def write_party_files(seed: int, directory: Path) -> tuple[dict, dict]:
    """Write the seeded 16k dataset as four party CSVs and two label CSVs.

    Every file carries an ``id`` column. Returns the party paths keyed by
    (row block, column block) and the label paths keyed by row block.
    """
    data, _ = experiments.generate_artificial(
        experiments.ArtificialDataConfig(subjects=SUBJECTS_16K, seed=seed))
    directory.mkdir(parents=True, exist_ok=True)
    party_paths, block_paths = {}, {}
    row_start = 0
    for k, rows in enumerate(ROW_BLOCKS_16K):
        block = slice(row_start, row_start + rows)
        ids = np.arange(row_start, row_start + rows)
        col_start = 0
        for l, cols in enumerate(COL_BLOCKS_16K):
            names = [f"x{j}" for j in range(col_start, col_start + cols)]
            path = directory / f"party_{k}_{l}.csv"
            table = np.column_stack([ids, data.covariates[block, col_start:col_start + cols]])
            np.savetxt(path, table, fmt=["%d"] + ["%.17g"] * cols, delimiter=",",
                       header=",".join(["id"] + names), comments="")
            party_paths[(k, l)] = str(path)
            col_start += cols
        path = directory / f"labels_{k}.csv"
        table = np.column_stack([ids, data.treatments[block], data.outcomes[block]])
        np.savetxt(path, table, fmt=["%d", "%d", "%.17g"], delimiter=",",
                   header="id,treatment,outcome", comments="")
        block_paths[k] = str(path)
        row_start += rows
    return party_paths, block_paths


def _cli_prepare(seed: int, workdir: Path) -> dict:
    party_paths, block_paths = write_party_files(seed, workdir / "data")
    out_dir = workdir / "results"
    # configs/run_template.conf, except for the estimand, the replicate
    # count, the seed and the paths.
    lines = [f"run.party.{k}.{l} = {p}" for (k, l), p in sorted(party_paths.items())]
    lines += [f"run.block.{k} = {p}" for k, p in sorted(block_paths.items())]
    lines += [
        "run.id_column = id",
        "reduction.intermediate_dim = 2",
        "reduction.collaborative_dim = 4",
        "estimation.estimator = IPW",
        "estimation.estimand = ATT",
        f"bootstrap.replicates = {CLI_REPLICATES}",
        f"seed = {seed}",
        f"output.dir = {out_dir}",
    ]
    config_path = workdir / "run.conf"
    config_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return {"seed": seed, "party_paths": party_paths, "block_paths": block_paths,
            "config_path": config_path, "out_dir": out_dir}


def _cli_setup(inputs: dict):
    return tabular.load_party_files(inputs["party_paths"], inputs["block_paths"], "id")


def _cli_call(inputs: dict, state):
    # The command prints its result table; keep it off the benchmark's output.
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(["run", "--config", str(inputs["config_path"])])


def _cli_rows(inputs: dict, exit_code) -> list[dict]:
    if exit_code != cli.EXIT_OK:
        raise RuntimeError(f"dcqe run exited with code {exit_code}")
    with (inputs["out_dir"] / "results.csv").open(newline="", encoding="utf-8") as handle:
        records = list(csv.DictReader(handle))
    return [{"label": f"{rec['estimator']}/{rec['collaboration']}",
             **{k: float(rec[k]) for k in FIELDS if rec[k] != ""}} for rec in records]


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="psm_whole_16k",
            why="one W-clb DC-QE PSM scenario at n=16000: the O(n^2) matching scan dominates "
                "time and peak memory, so a matching change must show here",
            scenarios=1,
            replicates=PSM_REPLICATES,
            prepare=_psm_prepare,
            setup=_psm_setup,
            call=_psm_call,
            rows=lambda inputs, results: _result_rows(results),
        ),
        Workload(
            name="cli_run_ipw_16k",
            why="dcqe run on party CSVs at n=16000 with IPW ATT: never matches, weighs on IRLS, "
                "PCA and alignment, and is the only workload reading CSV and writing reports",
            scenarios=1,
            replicates=CLI_REPLICATES,
            prepare=_cli_prepare,
            setup=_cli_setup,
            call=_cli_call,
            rows=_cli_rows,
        ),
    )
}


def load_reference(workload: str) -> list[dict]:
    """Stored rows of a workload at REFERENCE_SEED."""
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))[workload]


def check_rows(rows: list[dict], expected_count: int,
               reference: list[dict] | None) -> list[str]:
    """Problems found in one main call's scenario rows, one message per failed scenario."""
    problems = []
    if len(rows) != expected_count:
        problems += [f"expected {expected_count} scenarios, got {len(rows)}"] * max(
            expected_count - len(rows), 1)
    if reference is not None and [r["label"] for r in reference] != [r["label"] for r in rows]:
        return problems + [f"scenario labels differ from the reference: {r['label']}"
                           for r in rows]
    for index, row in enumerate(rows):
        found = []
        bad = [k for k in FIELDS if k in row and not math.isfinite(row[k])]
        if bad:
            found.append(f"non-finite {', '.join(bad)}")
        if "estimate_mean" not in row:
            found.append("no estimate_mean")
        elif not abs(row["estimate_mean"] - TRUE_EFFECT) <= NEAR_EFFECT:
            found.append(f"estimate_mean {row['estimate_mean']!r} is not within "
                         f"{NEAR_EFFECT} of {TRUE_EFFECT}")
        if reference is not None:
            expected = reference[index]
            for key in FIELDS:
                if (key in expected) != (key in row):
                    found.append(f"{key} present in only one of result and reference")
                elif key in row and not math.isclose(row[key], expected[key],
                                                     rel_tol=REFERENCE_RTOL, abs_tol=1e-12):
                    found.append(f"{key} {row[key]!r} differs from reference {expected[key]!r}")
        if found:
            problems.append(f"{row['label']}: " + "; ".join(found))
    return problems

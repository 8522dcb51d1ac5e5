"""Golden results: three CLI runs against their committed ``results.csv``.

Each case runs one command on a shipped config at 20 bootstrap replicates,
in a subprocess with one BLAS thread, and compares its ``results.csv`` with
``tests/golden/<case>.csv``:

- ``experiment_one``: ``dcqe simulate`` on ``configs/experiment_one.conf``;
- ``scenario``: ``dcqe simulate`` on ``configs/scenario.conf``;
- ``evaluate``: ``dcqe evaluate`` on ``configs/evaluate.conf`` with the
  synthetic job-training stand-in of ``write_benchmark_fixture`` (ATT, four
  parties, eight covariates).

The header, the row count and every text or integer cell must be equal, and
every real cell must agree within a relative ``RTOL``. A file that matches
but is not byte-identical only raises a warning: another BLAS build may
change the last bits.

After a change that is meant to move the numbers, rewrite the golden files
with

    PYTHONPATH=src python tests/test_golden.py
"""

import csv
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest

from test_experiments import write_benchmark_fixture

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
REPLICATES = 20
RTOL = 1e-9

# case: (command, config file, whether it reads the benchmark fixture)
CASES = {
    "experiment_one": ("simulate", "experiment_one.conf", False),
    "scenario": ("simulate", "scenario.conf", False),
    "evaluate": ("evaluate", "evaluate.conf", True),
}


def generate(workdir: Path) -> dict[str, Path]:
    """Run every case at once in ``workdir``; each case's ``results.csv``."""
    fixture = write_benchmark_fixture(workdir / "benchmark.csv")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    running = {}
    for name, (command, config, reads_fixture) in CASES.items():
        text, count = re.subn(r"(?m)^bootstrap\.replicates = .*$",
                              f"bootstrap.replicates = {REPLICATES}",
                              (ROOT / "configs" / config).read_text(encoding="utf-8"))
        assert count == 1, f"{config} sets bootstrap.replicates {count} times"
        config_path = workdir / f"{name}.conf"
        config_path.write_text(text, encoding="utf-8")
        args = [sys.executable, "-m", "dcqe.cli", command,
                "--config", str(config_path), "--out", str(workdir / name)]
        if reads_fixture:
            args += ["--data", str(fixture)]
        running[name] = subprocess.Popen(args, stdout=subprocess.DEVNULL,
                                         stderr=subprocess.PIPE, text=True, env=env)
    for name, proc in running.items():
        _, stderr = proc.communicate(timeout=300)
        assert proc.returncode == 0, f"{name}: exit code {proc.returncode}: {stderr}"
    return {name: workdir / name / "results.csv" for name in CASES}


def _real(cell: str) -> float | None:
    """The value of a real-number cell; None for text, integers and empty cells."""
    try:
        int(cell)
        return None
    except ValueError:
        pass
    try:
        return float(cell)
    except ValueError:
        return None


def mismatches(expected_path: Path, actual_path: Path) -> list[str]:
    """Every cell of ``actual_path`` that differs from ``expected_path`` beyond ``RTOL``."""
    with expected_path.open(newline="", encoding="utf-8") as handle:
        expected = list(csv.reader(handle))
    with actual_path.open(newline="", encoding="utf-8") as handle:
        actual = list(csv.reader(handle))
    if expected[0] != actual[0] or len(expected) != len(actual):
        return [f"header or row count differs: {len(actual) - 1} rows, "
                f"expected {len(expected) - 1}; header {actual[0]}"]
    problems = []
    for number, (want, got) in enumerate(zip(expected[1:], actual[1:]), start=1):
        for column, a, b in zip(expected[0], want, got):
            if a == b:
                continue
            x, y = _real(a), _real(b)
            if x is None or y is None or not math.isclose(x, y, rel_tol=RTOL, abs_tol=0.0):
                problems.append(f"row {number} {column}: {b!r}, expected {a!r}")
    return problems


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    return generate(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("case", sorted(CASES))
def test_results_match_golden(case, generated):
    expected, actual = GOLDEN / f"{case}.csv", generated[case]
    problems = mismatches(expected, actual)
    assert not problems, f"{case}: " + "; ".join(problems[:10])
    if expected.read_bytes() != actual.read_bytes():
        warnings.warn(f"{case}: results.csv matches within {RTOL} but is not byte-identical "
                      "to the golden file")


def test_mismatches_names_a_moved_cell_and_a_relabel(tmp_path):
    golden = GOLDEN / "scenario.csv"
    with golden.open(newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    column = rows[0].index("estimate_mean")
    value = float(rows[1][column])

    def variant(name, row):
        path = tmp_path / name
        with path.open("w", newline="", encoding="utf-8") as handle:
            csv.writer(handle, lineterminator="\n").writerows([rows[0], row])
        return mismatches(golden, path)

    assert variant("near.csv", [*rows[1][:column], repr(value * (1 + 1e-12)),
                                *rows[1][column + 1:]]) == []
    assert variant("far.csv", [*rows[1][:column], repr(value * (1 + 1e-8)),
                               *rows[1][column + 1:]]) != []
    assert variant("label.csv", [rows[1][0], "clb", *rows[1][2:]]) != []


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as scratch:
        for case, path in generate(Path(scratch)).items():
            shutil.copyfile(path, GOLDEN / f"{case}.csv")
            print(f"wrote {GOLDEN / f'{case}.csv'}")

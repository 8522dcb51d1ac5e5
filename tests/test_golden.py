"""Golden results: three CLI runs against their committed ``results.csv``.

Each case runs one command on a shipped config at 20 bootstrap replicates,
in a subprocess with one BLAS thread, and compares its ``results.csv`` with
``tests/golden/<case>.csv``:

- ``experiment_one``: ``dcqe simulate`` on ``configs/experiment_one.conf``;
- ``scenario``: ``dcqe simulate`` on ``configs/scenario.conf``;
- ``evaluate``: ``dcqe evaluate`` on ``configs/evaluate.conf`` with the
  synthetic job-training stand-in of ``write_benchmark_fixture`` (ATT, four
  parties, eight covariates).

The ``scenario`` case also writes ``bootstrap_estimates.csv``, which is
compared with ``tests/golden/scenario_bootstrap_estimates.csv`` the same way.

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
# Golden file name: (case, the report file it pins)
GOLDEN_FILES = {f"{case}.csv": (case, "results.csv") for case in CASES}
GOLDEN_FILES["scenario_bootstrap_estimates.csv"] = ("scenario", "bootstrap_estimates.csv")


def generate(workdir: Path) -> dict[str, Path]:
    """Run every case at once in ``workdir``; the report each golden file pins."""
    fixture = write_benchmark_fixture(workdir / "benchmark.csv")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    running = {}
    for name, (command, config, reads_fixture) in CASES.items():
        text, count = re.subn(r"(?m)^bootstrap\.replicates = .*$",
                              f"bootstrap.replicates = {REPLICATES}",
                              (ROOT / "configs" / config).read_text(encoding="utf-8"))
        assert count == 1, f"{config} sets bootstrap.replicates {count} times"
        if name == "scenario":
            text += "output.dump_bootstrap = true\n"
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
    return {golden: workdir / case / report for golden, (case, report) in GOLDEN_FILES.items()}


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


@pytest.mark.parametrize("golden", sorted(GOLDEN_FILES))
def test_results_match_golden(golden, generated):
    expected, actual = GOLDEN / golden, generated[golden]
    problems = mismatches(expected, actual)
    assert not problems, f"{golden}: " + "; ".join(problems[:10])
    if expected.read_bytes() != actual.read_bytes():
        warnings.warn(f"{golden}: {actual.name} matches within {RTOL} but is not byte-identical "
                      "to the golden file")


# A 16k-subject DC-QE IPW scenario: OpenBLAS splits a dot product this long
# across its threads, so a sum over the subjects left to BLAS moves the bits.
THREAD_CASE = """\
data.subjects = 16000
partition.row_blocks = 8000,8000
partition.col_blocks = 3,3
scope.kind = whole
analysis = dcqe
reduction.intermediate_dim = 2
reduction.collaborative_dim = 4
anchor.subjects = 1000
estimation.estimator = IPW
estimation.estimand = ATE
estimation.benchmark = 1.0
bootstrap.replicates = 4
seed = 0
output.formats = csv
"""


def test_results_do_not_depend_on_the_blas_thread_count(tmp_path):
    config = tmp_path / "threads.conf"
    config.write_text(THREAD_CASE, encoding="utf-8")
    running = {}
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        args = [sys.executable, "-m", "dcqe.cli", "simulate", "--config", str(config),
                "--out", str(tmp_path / threads)]
        running[threads] = subprocess.Popen(args, stdout=subprocess.DEVNULL,
                                            stderr=subprocess.PIPE, text=True, env=env)
    for threads, proc in running.items():
        _, stderr = proc.communicate(timeout=120)
        assert proc.returncode == 0, f"{threads} threads: exit code {proc.returncode}: {stderr}"
    one, two = ((tmp_path / threads / "results.csv").read_text(encoding="utf-8").splitlines()
                for threads in running)
    assert one == two, "results.csv differs between 1 and 2 BLAS threads: " + " vs ".join(
        line for pair in zip(one, two) if pair[0] != pair[1] for line in pair)


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
        for golden, path in generate(Path(scratch)).items():
            shutil.copyfile(path, GOLDEN / golden)
            print(f"wrote {GOLDEN / golden}")

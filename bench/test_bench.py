"""Self-tests of the benchmark: run with ``python3 -m pytest bench -q``."""

import json
import math
import sys

import numpy as np
import pytest

import run
import spans
import workloads
from dcqe import experiments, tabular
from dcqe.datamodel import CollaborationScope, PartitionSpec


def test_self_times_subtract_child_durations():
    # root [0, 10] holds a [1, 4] and b [5, 9]; a holds c [2, 3]; b holds two
    # touching children d [5, 6] and e [6, 8].
    synthetic = [
        ["root", 0.0, 10.0, None, None],
        ["a", 1.0, 4.0, 0, 0],
        ["c", 2.0, 3.0, 1, 0],
        ["b", 5.0, 9.0, 0, 1],
        ["d", 5.0, 6.0, 3, 1],
        ["e", 6.0, 8.0, 3, 1],
    ]
    selfs = spans.self_times(synthetic)
    assert selfs == {"root": 3.0, "a": 2.0, "c": 1.0, "b": 1.0, "d": 1.0, "e": 2.0}
    assert sum(selfs.values()) == 10.0
    assert spans.span_counts(synthetic)["a"] == 1


def test_self_times_add_repeated_names():
    synthetic = [
        ["root", 0.0, 6.0, None, None],
        ["leaf", 1.0, 2.0, 0, None],
        ["leaf", 3.0, 5.0, 0, None],
    ]
    assert spans.self_times(synthetic) == {"root": 3.0, "leaf": 3.0}


def _tree(*children):
    """A well-nested span set: the root [0, 10] and (name, start, end, parent) children."""
    return [[spans.ROOT, 0.0, 10.0, None, None]] + [
        [name, start, end, parent, None] for name, start, end, parent in children]


def test_nesting_problems_accepts_a_well_nested_call_tree():
    tree = _tree(("experiments.run_scenario", 1.0, 9.0, 0),
                 ("numerics.pca_fit", 2.0, 3.0, 1),
                 ("numerics.logistic_fit", 3.0, 5.0, 1))
    assert spans.nesting_problems(tree) == []
    assert spans.nesting_problems(tree + [[spans.ROOT, 11.0, 12.0, None, None]]) == []


@pytest.mark.parametrize("children", [
    [("causal.match_pairs", 9.0, 11.0, 0)],                                  # outside parent
    [("metrics.smd", 1.0, 4.0, 0), ("metrics.smd", 3.0, 5.0, 0)],            # siblings overlap
    [("metrics.smd", 4.0, 3.0, 0)],                                          # ends before start
    [("metrics.smd", 11.0, 12.0, None)],                                     # no parent
    [("metrics.smd", 1.0, 2.0, 1)],                                          # parent not earlier
    [("not.traced", 1.0, 2.0, 0)],                                           # unknown name
])
def test_nesting_problems_flags_malformed_spans(children):
    assert len(spans.nesting_problems(_tree(*children))) == 1


def _tracer_with(recorded):
    tracer = spans.Tracer()
    tracer.spans = recorded
    return tracer


def test_layer_metrics_require_self_times_to_add_up_to_the_traced_wall_time():
    tree = _tree(("experiments.run_scenario", 1.0, 9.0, 0), ("causal.match_pairs", 2.0, 8.0, 1))
    metrics, problems = run.layer_metrics(_tracer_with(tree), walls=[10.0], traced=[10.0001])
    assert problems == []
    assert metrics["causal.match_pairs.self_ms"] == (6000.0, "ms")
    assert metrics["experiments.run_scenario.self_ms"] == (2000.0, "ms")
    assert metrics["workload.self_ms"] == (2000.0, "ms")
    assert metrics["causal.match_pairs.calls"] == (1, "count")
    assert metrics["metrics.smd.calls"] == (0, "count")
    assert [name for name in metrics] == [name for name, _ in run.PER_LAYER]

    # Time outside the root span, or spans longer than the call, do not add up.
    assert len(run.layer_metrics(_tracer_with(tree), walls=[10.0], traced=[10.5])[1]) == 1
    assert len(run.layer_metrics(_tracer_with(tree), walls=[10.0], traced=[9.5])[1]) == 1
    # A malformed span set is reported even when the totals agree.
    bad = _tree(("experiments.run_scenario", 1.0, 9.0, 0), ("causal.match_pairs", 8.0, 11.0, 1))
    assert len(run.layer_metrics(_tracer_with(bad), walls=[10.0], traced=[10.0])[1]) == 1


def _dcqe_bindings() -> dict:
    return {(key, attr): value
            for key, module in sys.modules.items() if key == "dcqe" or key.startswith("dcqe.")
            for attr, value in vars(module).items()}


def _small_prepare(seed, workdir):
    spec = PartitionSpec((1000, 1000), (3, 3))
    configs = [
        experiments.ScenarioConfig(
            partition=spec, scope=CollaborationScope.build("whole", spec), estimator=estimator,
            intermediate_dim=2, collaborative_dim=6, bootstrap_replicates=2, master_seed=seed,
            benchmark=1.0)
        for estimator in ("PSM", "IPW")
    ]
    return {"seed": seed, "configs": configs}


def _small_call(inputs, state):
    data, true_scores = state
    return [experiments.run_scenario(data, config, true_scores) for config in inputs["configs"]]


SMALL = workloads.Workload(
    name="small_whole",
    why="",
    scenarios=2,
    replicates=2,
    prepare=_small_prepare,
    setup=lambda inputs: experiments.generate_artificial(
        experiments.ArtificialDataConfig(subjects=2000, seed=inputs["seed"])),
    call=_small_call,
    rows=lambda inputs, results: workloads._result_rows(results),
)


def test_traced_run_restores_every_binding(tmp_path):
    before = _dcqe_bindings()
    result, tracer = run.measure(SMALL, seed=1, seconds=0.0, trace=True, workdir=tmp_path)
    after = _dcqe_bindings()
    assert before.keys() == after.keys()
    assert all(after[key] is value for key, value in before.items())

    assert result["correct"] and result["failed"] == 0, result
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert list(metrics) == [name for name, _ in run.PER_LAYER]
    assert metrics["experiments.run_scenario.calls"] == 2
    assert metrics["causal.match_pairs.calls"] == 3
    assert metrics["numerics.ensure_matrix.calls"] > 0
    assert metrics["numerics.logistic_fit.iters"] >= metrics["numerics.logistic_fit.calls"]
    # One untraced and one traced call ran; the traced PSM scenario got id 0.
    assert {span[spans.SCENARIO_ID] for span in tracer.spans
            if span[spans.NAME] == "causal.match_pairs"} == {0}


def test_party_csvs_round_trip_to_the_generated_arrays(tmp_path):
    party_paths, block_paths = workloads.write_party_files(3, tmp_path)
    data, spec = tabular.load_party_files(party_paths, block_paths, "id")
    expected, _ = experiments.generate_artificial(
        experiments.ArtificialDataConfig(subjects=workloads.SUBJECTS_16K, seed=3))
    assert spec.row_blocks == workloads.ROW_BLOCKS_16K
    assert spec.col_blocks == workloads.COL_BLOCKS_16K
    assert np.array_equal(data.covariates, expected.covariates)
    assert np.array_equal(data.treatments, expected.treatments)
    assert np.array_equal(data.outcomes, expected.outcomes)


def test_check_rows_counts_each_bad_scenario():
    good = {"label": "IPW/CA", "estimate_mean": 1.1, "estimate_se": 0.1}
    assert workloads.check_rows([good], 1, [good]) == []
    assert workloads.check_rows([good], 1, None) == []
    far = dict(good, estimate_mean=2.5)
    nan = dict(good, estimate_se=math.nan)
    drifted = dict(good, estimate_mean=1.1 * (1 + 1e-5))
    assert len(workloads.check_rows([far, nan], 2, None)) == 2
    assert len(workloads.check_rows([drifted], 1, [good])) == 1
    assert len(workloads.check_rows([], 2, None)) == 2


def test_reference_covers_every_workload():
    stored = json.loads(workloads.REFERENCE_PATH.read_text(encoding="utf-8"))
    assert set(stored) == set(workloads.WORKLOADS)
    for name, rows in stored.items():
        assert len(rows) == workloads.WORKLOADS[name].scenarios
        assert workloads.check_rows(rows, len(rows), None) == []


def test_manifest_file_matches_the_definitions():
    stored = json.loads(run.MANIFEST_PATH.read_text(encoding="utf-8"))
    assert stored == run.manifest()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_names_and_reasons_fit_the_manifest_limits(name):
    workload = workloads.WORKLOADS[name]
    assert len(workload.why) <= 200 and "\n" not in workload.why
    assert len(name) <= 64

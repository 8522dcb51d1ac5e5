"""Arrays are checked where they enter the package.

Every public entry point on the pipeline path rejects a NaN or 1-d array
with ``InvalidDataError``, and every one that takes treatments rejects
labels other than 0/1 or from a single group the same way. Every one that
takes propensity scores rejects a NaN or 2-d score vector; those that divide
by the scores also reject a score outside the open interval (0, 1). A
pipeline run still calls public entry points, which the benchmark's tracer
times by name, on arrays it built itself, so it checks some arrays again;
the number of checks per run is bounded.
"""

import sys
import warnings

import numpy as np
import pytest

from dcqe import experiments, numerics
from dcqe.causal import estimate_ipw, estimate_propensity, ipw_weights, match_pairs
from dcqe.collaboration import make_intermediate
from dcqe.datamodel import CollaborationScope, Dataset, PartitionSpec
from dcqe.errors import InvalidDataError
from dcqe.metrics import smd
from dcqe.numerics import logistic_fit, pca_fit, pseudoinverse, svd_truncated

GOOD = np.random.default_rng(0).normal(size=(8, 3))
Z = np.array([0, 1] * 4)
Y = np.zeros(8)
NAN = GOOD.copy()
NAN[2, 1] = np.nan
FLAT = GOOD[:, 0]
# GOOD as its own anchor block, uncompressed: the factor [1, GOOD] and unit ranges.
FACTOR = np.column_stack([np.ones(8), GOOD])
RANGES = np.tile([0.0, 1.0], (3, 1))

ENTRY_POINTS = {
    "Dataset": lambda x: Dataset(x, Z, Y),
    "pca_fit": lambda x: pca_fit(x, 2),
    "svd_truncated": lambda x: svd_truncated(x, 1),
    "pseudoinverse": pseudoinverse,
    "logistic_fit": lambda x: logistic_fit(x, Z),
    "estimate_propensity": lambda x: estimate_propensity(x, Z),
    "make_intermediate-party": lambda x: make_intermediate(x, FACTOR, RANGES, 2),
    "make_intermediate-anchor": lambda x: make_intermediate(GOOD, x, RANGES, 2),
    "make_intermediate-ranges": lambda x: make_intermediate(GOOD, FACTOR, x, 2),
    "smd": lambda x: smd(x, Z),
}

BAD_ARRAYS = {"nan": NAN, "1d": FLAT}

# Scores for the eight subjects of Z; a bad one replaces the third.
SCORES = np.linspace(0.2, 0.8, 8)
SCORE_ENTRY_POINTS = {
    "match_pairs": lambda e: match_pairs(e, Z),
    **{f"ipw_weights-{estimand}": lambda e, estimand=estimand: ipw_weights(e, Z, estimand)
       for estimand in ("ATE", "ATT")},
    **{f"estimate_ipw-{estimand}": lambda e, estimand=estimand: estimate_ipw(e, Z, Y, estimand)
       for estimand in ("ATE", "ATT")},
}
BAD_SCORES = {"nan": np.where(np.arange(8) == 2, np.nan, SCORES), "2d": SCORES.reshape(4, 2),
              **{repr(v): np.where(np.arange(8) == 2, v, SCORES) for v in (0.0, 1.0, -0.1, 1.5)}}
# Matching only orders the scores, so it takes any finite ones.
MATCHING_BAD_SCORES = ("nan", "2d")

BAD_CASES = {
    **{f"{entry}-{bad}": (call, array)
       for entry, call in ENTRY_POINTS.items() for bad, array in BAD_ARRAYS.items()},
    **{f"{entry}-scores-{bad}": (call, array)
       for entry, call in SCORE_ENTRY_POINTS.items() for bad, array in BAD_SCORES.items()
       if entry != "match_pairs" or bad in MATCHING_BAD_SCORES},
}


@pytest.mark.parametrize("case", BAD_CASES)
def test_entry_point_rejects_bad_array(case):
    call, array = BAD_CASES[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidDataError):
            call(array)


# Five subjects: covariates, distinct scores and outcomes for the label checks.
X5 = GOOD[:5]
SCORES5 = np.array([0.2, 0.4, 0.6, 0.8, 0.5])
Y5 = np.arange(5.0)
LABEL_ENTRY_POINTS = {
    "Dataset": lambda z: Dataset(X5, z, Y5),
    "logistic_fit": lambda z: logistic_fit(X5, z),
    "estimate_propensity": lambda z: estimate_propensity(X5, z),
    "match_pairs": lambda z: match_pairs(SCORES5, z),
    "ipw_weights": lambda z: ipw_weights(SCORES5, z, "ATE"),
    "estimate_ipw": lambda z: estimate_ipw(SCORES5, z, Y5, "ATE"),
    "smd": lambda z: smd(X5, z),
}
BAD_LABELS = {
    "two": ([0, 1, 0, 1, 2], "must contain only 0 and 1"),
    "half": ([0, 1, 0, 1, 0.5], "must contain only 0 and 1"),
    "single": ([1, 1, 1, 1, 1], "contain a single class"),
}


@pytest.mark.parametrize("entry,bad", [
    pytest.param(entry, bad, id=f"{entry}-labels-{bad}")
    for entry in LABEL_ENTRY_POINTS for bad in BAD_LABELS
])
def test_entry_point_rejects_bad_labels(entry, bad):
    labels, message = BAD_LABELS[bad]
    with pytest.raises(InvalidDataError, match=message):
        LABEL_ENTRY_POINTS[entry](np.array(labels))


# The checks one run makes of each kind: matrices, vectors and 0/1 labels.
CHECKS_PER_RUN = {
    ("dcqe", "IPW"): {"ensure_matrix": 18, "ensure_vector": 8, "ensure_binary_labels": 4},
    ("dcqe", "PSM"): {"ensure_matrix": 17, "ensure_vector": 8, "ensure_binary_labels": 3},
    ("centralized", "IPW"): {"ensure_matrix": 2, "ensure_vector": 8, "ensure_binary_labels": 3},
    ("centralized", "PSM"): {"ensure_matrix": 1, "ensure_vector": 8, "ensure_binary_labels": 2},
}


@pytest.mark.parametrize("analysis,estimator", list(CHECKS_PER_RUN))
def test_one_run_checks_few_arrays(monkeypatch, analysis, estimator):
    expected = CHECKS_PER_RUN[analysis, estimator]
    calls = {name: 0 for name in expected}

    def counted(name, original):
        def check(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return check

    for name in expected:
        original = getattr(numerics, name)
        for key, module in list(sys.modules.items()):
            if key == "dcqe" or key.startswith("dcqe."):
                for attr in [a for a, v in vars(module).items() if v is original]:
                    monkeypatch.setattr(module, attr, counted(name, original))

    data, true_scores = experiments.generate_artificial(
        experiments.ArtificialDataConfig(subjects=200, seed=1))
    spec = PartitionSpec((100, 100), (3, 3))
    config = experiments.ScenarioConfig(
        partition=spec,
        scope=CollaborationScope.build("whole", spec),
        analysis=analysis,
        estimator=estimator,
        intermediate_dim=2 if analysis == "dcqe" else None,
        collaborative_dim=6 if analysis == "dcqe" else None,
        bootstrap_replicates=4,
        resample=False,
    )
    calls.update((name, 0) for name in calls)  # count the run only, not the data generation
    experiments.run_scenario(data, config, true_scores)
    assert calls == expected

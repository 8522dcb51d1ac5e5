"""Arrays are checked once, where they enter the package.

Every public entry point on the pipeline path rejects a NaN or 1-d array
with ``InvalidDataError``, every one that takes treatments rejects labels
other than 0/1 or from a single group the same way, and library code does
not send the arrays it has already checked through a public checker again,
so one pipeline run makes only a few checks.
"""

import sys

import numpy as np
import pytest

from dcqe import experiments, numerics
from dcqe.causal import estimate_ipw, estimate_propensity, ipw_weights, match_pairs
from dcqe.collaboration import make_intermediate
from dcqe.datamodel import CollaborationScope, Dataset, PartitionSpec, PartyView
from dcqe.errors import DegenerateLabelsError, InvalidDataError
from dcqe.metrics import smd
from dcqe.numerics import logistic_fit, pca_fit, pseudoinverse, svd_truncated

GOOD = np.random.default_rng(0).normal(size=(8, 3))
Z = np.array([0, 1] * 4)
Y = np.zeros(8)
NAN = GOOD.copy()
NAN[2, 1] = np.nan
FLAT = GOOD[:, 0]

ENTRY_POINTS = {
    "Dataset": lambda x: Dataset(x, Z, Y),
    "pca_fit": lambda x: pca_fit(x, 2),
    "svd_truncated": lambda x: svd_truncated(x, 1),
    "pseudoinverse": pseudoinverse,
    "logistic_fit": lambda x: logistic_fit(x, Z),
    "estimate_propensity": lambda x: estimate_propensity(x, Z),
    "make_intermediate-party": lambda x: make_intermediate(PartyView(0, 0, x), GOOD, 2),
    "make_intermediate-anchor": lambda x: make_intermediate(PartyView(0, 0, GOOD), x, 2),
    "smd": lambda x: smd(x, Z),
}


@pytest.mark.parametrize("entry,bad", [
    pytest.param(entry, bad, id=f"{entry}-{bad}")
    for entry in ENTRY_POINTS for bad in ("nan", "1d")
])
def test_entry_point_rejects_bad_array(entry, bad):
    with pytest.raises(InvalidDataError):
        ENTRY_POINTS[entry](NAN if bad == "nan" else FLAT)


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
    "two": ([0, 1, 0, 1, 2], InvalidDataError),
    "half": ([0, 1, 0, 1, 0.5], InvalidDataError),
    "single": ([1, 1, 1, 1, 1], DegenerateLabelsError),
}


@pytest.mark.parametrize("entry,bad", [
    pytest.param(entry, bad, id=f"{entry}-labels-{bad}")
    for entry in LABEL_ENTRY_POINTS for bad in BAD_LABELS
])
def test_entry_point_rejects_bad_labels(entry, bad):
    labels, error = BAD_LABELS[bad]
    with pytest.raises(error):
        LABEL_ENTRY_POINTS[entry](np.array(labels))


def test_single_class_is_invalid_data():
    assert issubclass(DegenerateLabelsError, InvalidDataError)


@pytest.mark.parametrize("analysis,most", [("dcqe", 14), ("centralized", 2)])
def test_one_run_checks_few_arrays(monkeypatch, analysis, most):
    original = numerics.ensure_matrix
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for key, module in list(sys.modules.items()):
        if key == "dcqe" or key.startswith("dcqe."):
            for attr in [a for a, v in vars(module).items() if v is original]:
                monkeypatch.setattr(module, attr, counted)

    data, true_scores = experiments.generate_artificial(
        experiments.ArtificialDataConfig(subjects=200, seed=1))
    spec = PartitionSpec((100, 100), (3, 3))
    config = experiments.ScenarioConfig(
        partition=spec,
        scope=CollaborationScope.build("whole", spec),
        analysis=analysis,
        estimator="IPW",
        intermediate_dim=2 if analysis == "dcqe" else None,
        collaborative_dim=6 if analysis == "dcqe" else None,
        bootstrap_replicates=4,
        resample=False,
    )
    calls.clear()  # count the run only, not the data generation
    experiments.run_scenario(data, config, true_scores)
    assert 0 < len(calls) <= most

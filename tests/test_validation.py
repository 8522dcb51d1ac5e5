"""Arrays are checked once, where they enter the package.

Every public entry point on the pipeline path rejects a NaN or 1-d array
with ``InvalidDataError``, and library code does not send the arrays it has
already checked through a public checker again, so one pipeline run makes
only a few checks.
"""

import sys

import numpy as np
import pytest

from dcqe import experiments, numerics
from dcqe.causal import estimate_propensity
from dcqe.collaboration import AnchorDataset, make_intermediate
from dcqe.datamodel import CollaborationScope, Dataset, PartitionSpec, PartyView
from dcqe.errors import InvalidDataError
from dcqe.metrics import smd
from dcqe.numerics import (
    logistic_fit,
    logistic_predict,
    pca_fit,
    pca_transform,
    pseudoinverse,
    standardize_apply,
    standardize_fit,
    svd_truncated,
)

GOOD = np.random.default_rng(0).normal(size=(8, 3))
Z = np.array([0, 1] * 4)
Y = np.zeros(8)
NAN = GOOD.copy()
NAN[2, 1] = np.nan
FLAT = GOOD[:, 0]

PCA = pca_fit(GOOD, 2)
LOGIT = logistic_fit(GOOD, Z)

ENTRY_POINTS = {
    "Dataset": lambda x: Dataset(x, Z, Y),
    "AnchorDataset": lambda x: AnchorDataset(x, (3,)),
    "standardize_fit": standardize_fit,
    "standardize_apply": lambda x: standardize_apply(PCA.params, x),
    "pca_fit": lambda x: pca_fit(x, 2),
    "pca_transform": lambda x: pca_transform(PCA, x),
    "svd_truncated": lambda x: svd_truncated(x, 1),
    "pseudoinverse": pseudoinverse,
    "logistic_fit": lambda x: logistic_fit(x, Z),
    "logistic_predict": lambda x: logistic_predict(LOGIT, x),
    "estimate_propensity": lambda x: estimate_propensity(x, Z),
    "make_intermediate-party": lambda x: make_intermediate(PartyView(0, 0, x, Z, Y), GOOD, 2),
    "make_intermediate-anchor": lambda x: make_intermediate(PartyView(0, 0, GOOD, Z, Y), x, 2),
    "smd": lambda x: smd(x, Z),
}
# ``TestStandardize.test_rejects_non_finite`` covers the NaN case of
# ``standardize_fit``.
NOT_COVERED = {("standardize_fit", "nan")}


@pytest.mark.parametrize("entry,bad", [
    pytest.param(entry, bad, id=f"{entry}-{bad}")
    for entry in ENTRY_POINTS for bad in ("nan", "1d") if (entry, bad) not in NOT_COVERED
])
def test_entry_point_rejects_bad_array(entry, bad):
    with pytest.raises(InvalidDataError):
        ENTRY_POINTS[entry](NAN if bad == "nan" else FLAT)


@pytest.mark.parametrize("analysis,most", [("dcqe", 15), ("centralized", 2)])
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

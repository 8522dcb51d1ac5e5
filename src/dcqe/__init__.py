"""Privacy-preserving treatment-effect estimation across partitioned data.

Parties holding different subjects and different covariates share only
dimensionality-reduced intermediate representations. An analyst aligns them
through a common anchor dataset into a collaborative representation and
estimates average treatment effects with propensity-score matching or
inverse-probability weighting.
"""

from .datamodel import CollaborationScope, PartitionSpec
from .experiments import (
    ArtificialDataConfig,
    ScenarioConfig,
    generate_artificial,
    run_scenario,
)

__version__ = "0.1.0"

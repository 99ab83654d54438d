"""Synthetic dataset suite.

The paper evaluates on four datasets (Table II): the IIMB benchmark,
DBLP-ACM, IMDB-YAGO and DBpedia-YAGO.  The original dumps are not available
offline, so this package synthesizes seeded two-KB worlds whose *structural
profile* mirrors each dataset: schema heterogeneity, relationship density,
entity-type mix, label noise, missing labels and the share of isolated
entities.  ``docs/design.md``, "Why the datasets are synthetic", gives the
substitution rationale.
"""

from repro.datasets.clustered import clustered_bundle
from repro.datasets.evolving import EvolvingBundle, evolving_bundle
from repro.datasets.synthesis import (
    AttributeSpec,
    DatasetBundle,
    NoiseConfig,
    RelationSpec,
    TypeSpec,
    WorldConfig,
    generate_dataset,
)
from repro.datasets.registry import DATASET_NAMES, EVOLVING_NAME, load_dataset

__all__ = [
    "AttributeSpec",
    "RelationSpec",
    "TypeSpec",
    "NoiseConfig",
    "WorldConfig",
    "DatasetBundle",
    "EvolvingBundle",
    "clustered_bundle",
    "evolving_bundle",
    "generate_dataset",
    "load_dataset",
    "DATASET_NAMES",
    "EVOLVING_NAME",
]

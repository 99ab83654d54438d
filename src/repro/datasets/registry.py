"""Dataset registry: named access to the four evaluation profiles."""

from __future__ import annotations

from functools import lru_cache

from repro.datasets.profiles import PROFILE_BUILDERS
from repro.datasets.synthesis import DatasetBundle, generate_dataset

#: Canonical dataset order used throughout the experiments (Table II order).
DATASET_NAMES: tuple[str, ...] = ("iimb", "dblp_acm", "imdb_yago", "dbpedia_yago")

#: The evolving-KB dataset (``repro.stream``); loads as its step-0 base
#: world (:func:`repro.datasets.evolving.evolving_base`), with deltas
#: available via :func:`repro.datasets.evolving_bundle`.
EVOLVING_NAME = "evolving"

#: Short display names matching the paper's abbreviations.
DISPLAY_NAMES: dict[str, str] = {
    "iimb": "IIMB",
    "dblp_acm": "D-A",
    "imdb_yago": "I-Y",
    "dbpedia_yago": "D-Y",
}


@lru_cache(maxsize=32)
def load_dataset(name: str, seed: int = 0, scale: float = 1.0) -> DatasetBundle:
    """Generate (and cache) the named dataset.

    Parameters
    ----------
    name:
        One of :data:`DATASET_NAMES`.
    seed:
        World-generation seed; different seeds give independent repetitions.
    scale:
        Multiplier on all entity-type counts (1.0 ≈ several hundred
        entities per KB; experiments use smaller scales where many runs
        are needed).
    """
    if name == EVOLVING_NAME:
        from repro.datasets.evolving import evolving_base

        return evolving_base(seed=seed, scale=scale)
    try:
        builder = PROFILE_BUILDERS[name]
    except KeyError:
        raise ValueError(
            f"unknown dataset {name!r}; expected one of "
            f"{DATASET_NAMES + (EVOLVING_NAME,)}"
        ) from None
    return generate_dataset(builder(scale), seed=seed)

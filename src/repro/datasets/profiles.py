"""The four dataset profiles mirroring Table II of the paper.

Each profile reproduces the *shape* of one evaluation dataset at laptop
scale (see ``docs/design.md``, "Why the datasets are synthetic"):

* ``iimb`` — small benchmark, identical schemas in both KBs, almost total
  overlap, low noise, almost no isolated entities.
* ``dblp_acm`` — publications and authors, a single relationship type
  (authorship), highly asymmetric KB sizes, clean attribute values.
* ``imdb_yago`` — movies/actors/directors/places with renamed schemas,
  noisy labels and a sizable share (~28%) of isolated entities (writers).
* ``dbpedia_yago`` — strongly heterogeneous schemas with attribute clutter,
  missing labels (~8%) and a majority (~60%) of isolated entities.
"""

from __future__ import annotations

from repro.datasets.synthesis import (
    AttributeSpec,
    NoiseConfig,
    RelationSpec,
    TypeSpec,
    WorldConfig,
)


def _scaled(count: int, scale: float) -> int:
    return max(4, int(round(count * scale)))


def iimb_config(scale: float = 1.0) -> WorldConfig:
    """IIMB-like: identical schemas, ~365 entities per KB, low noise."""
    types = (
        TypeSpec(
            "person",
            _scaled(120, scale),
            attributes=(
                AttributeSpec("birth_year", kind="year"),
                AttributeSpec("occupation", tokens=1),
            ),
            relations=(
                RelationSpec("actedIn", "movie", mean_degree=2.0, presence=0.8),
                RelationSpec("wasBornIn", "place", mean_degree=1.0, presence=0.9),
            ),
        ),
        TypeSpec(
            "movie",
            _scaled(100, scale),
            attributes=(
                AttributeSpec("release_year", kind="year"),
                AttributeSpec("genre", tokens=1),
            ),
            relations=(RelationSpec("directedBy", "person", mean_degree=1.0, presence=0.9),),
            label_tokens=3,
        ),
        TypeSpec(
            "place",
            _scaled(80, scale),
            attributes=(AttributeSpec("population", kind="number"),),
        ),
        TypeSpec(
            "organization",
            _scaled(65, scale),
            attributes=(AttributeSpec("founded", kind="year"),),
            relations=(RelationSpec("locatedIn", "place", mean_degree=1.0, presence=0.9),),
        ),
    )
    noise = NoiseConfig(
        label_typo_prob=0.15,
        label_token_drop_prob=0.05,
        value_noise_prob=0.15,
        value_break_prob=0.2,
        attribute_drop_prob=0.05,
        edge_drop_prob=0.05,
    )
    return WorldConfig(
        name="iimb",
        types=types,
        overlap=0.9,
        only1=0.05,
        only2=0.05,
        exact_label_fraction=0.4,
        noise1=NoiseConfig(),  # KB1 is the clean reference copy, as in IIMB
        noise2=noise,
        vocabulary_size=160,
        homonym_fraction=0.04,
    )


def dblp_acm_config(scale: float = 1.0) -> WorldConfig:
    """DBLP-ACM-like: one relationship type, asymmetric sizes, clean values."""
    types = (
        TypeSpec(
            "publication",
            _scaled(320, scale),
            attributes=(
                AttributeSpec("title", tokens=4),
                AttributeSpec("year", kind="year"),
                AttributeSpec("venue", tokens=2),
            ),
            relations=(RelationSpec("hasAuthor", "author", mean_degree=2.4),),
            label_tokens=3,
        ),
        TypeSpec("author", _scaled(260, scale), placement_from_sources=True),
    )
    noise = NoiseConfig(
        label_typo_prob=0.2,
        label_token_drop_prob=0.1,
        value_noise_prob=0.15,
        value_break_prob=0.15,
        attribute_drop_prob=0.04,
        edge_drop_prob=0.04,
    )
    return WorldConfig(
        name="dblp_acm",
        types=types,
        overlap=0.35,
        only1=0.03,
        only2=0.62,
        exact_label_fraction=0.35,
        noise1=NoiseConfig(label_typo_prob=0.05, value_noise_prob=0.05, value_break_prob=0.1),
        noise2=noise,
        vocabulary_size=140,
        homonym_fraction=0.08,
    )


def imdb_yago_config(scale: float = 1.0) -> WorldConfig:
    """IMDB-YAGO-like: renamed schemas, noisy labels, ~28% isolated matches."""
    types = (
        TypeSpec(
            "movie",
            _scaled(200, scale),
            attributes=(
                AttributeSpec("release_year", kind="year"),
                AttributeSpec("duration", kind="number"),
            ),
            relations=(RelationSpec("directedBy", "director", mean_degree=1.0, presence=0.9),),
            label_tokens=3,
        ),
        TypeSpec(
            "actor",
            _scaled(240, scale),
            attributes=(AttributeSpec("birth_year", kind="year"),),
            relations=(
                RelationSpec("actedIn", "movie", mean_degree=2.2, presence=0.9),
                RelationSpec("wasBornIn", "place", mean_degree=1.0, presence=0.8),
            ),
        ),
        TypeSpec(
            "director",
            _scaled(80, scale),
            attributes=(AttributeSpec("birth_year", kind="year"),),
            relations=(RelationSpec("wasBornIn", "place", mean_degree=1.0, presence=0.8),),
        ),
        TypeSpec(
            "place",
            _scaled(100, scale),
            attributes=(AttributeSpec("population", kind="number"),),
        ),
        # Writers have no relationships at all: they become the isolated
        # pairs that only the random-forest path can resolve (Table VIII).
        TypeSpec(
            "writer",
            _scaled(240, scale),
            attributes=(
                AttributeSpec("birth_year", kind="year"),
                AttributeSpec("notable_work", tokens=3),
            ),
        ),
    )
    schema2 = {
        "release_year": "initialReleaseDate",
        "duration": "filmLength",
        "birth_year": "yearOfBirth",
        "population": "numberOfInhabitants",
        "notable_work": "knownFor",
        "directedBy": "hasDirector",
        "actedIn": "performedIn",
        "wasBornIn": "birthPlace",
    }
    noise = NoiseConfig(
        label_typo_prob=0.3,
        label_token_drop_prob=0.15,
        value_noise_prob=0.2,
        value_break_prob=0.25,
        attribute_drop_prob=0.12,
        edge_drop_prob=0.08,
    )
    return WorldConfig(
        name="imdb_yago",
        types=types,
        overlap=0.35,
        only1=0.5,
        only2=0.1,
        exact_label_fraction=0.3,
        noise1=NoiseConfig(label_typo_prob=0.1, value_noise_prob=0.08, value_break_prob=0.15),
        noise2=noise,
        schema2=schema2,
        extra_attributes1=10,
        extra_attributes2=4,
        vocabulary_size=110,
        homonym_fraction=0.12,
    )


def dbpedia_yago_config(scale: float = 1.0) -> WorldConfig:
    """DBpedia-YAGO-like: heavy heterogeneity, missing labels, ~60% isolated."""
    types = (
        TypeSpec(
            "person",
            _scaled(130, scale),
            attributes=(
                AttributeSpec("birth_year", kind="year"),
                AttributeSpec("occupation", tokens=1, presence=0.8),
            ),
            relations=(
                RelationSpec("wasBornIn", "place", mean_degree=1.0, presence=0.85),
                RelationSpec("worksFor", "organization", mean_degree=1.0, presence=0.5),
            ),
        ),
        TypeSpec(
            "movie",
            _scaled(90, scale),
            attributes=(AttributeSpec("release_year", kind="year"),),
            relations=(RelationSpec("directedBy", "person", mean_degree=1.0, presence=0.9),),
            label_tokens=2,
        ),
        TypeSpec(
            "place",
            _scaled(90, scale),
            attributes=(
                AttributeSpec("population", kind="number"),
                AttributeSpec("area", kind="number", presence=0.7),
            ),
        ),
        TypeSpec(
            "organization",
            _scaled(70, scale),
            attributes=(AttributeSpec("founded", kind="year"),),
            relations=(RelationSpec("locatedIn", "place", mean_degree=1.0, presence=0.85),),
        ),
        # Relation-free types dominate: ~60% of gold matches are isolated.
        TypeSpec(
            "concept",
            _scaled(300, scale),
            attributes=(
                AttributeSpec("code", tokens=1),
                AttributeSpec("weight", kind="number", presence=0.6),
                AttributeSpec("category", tokens=2, presence=0.8),
            ),
        ),
        TypeSpec(
            "event",
            _scaled(260, scale),
            attributes=(
                AttributeSpec("happened", kind="year"),
                AttributeSpec("venue_name", tokens=2, presence=0.7),
            ),
            label_tokens=2,
        ),
    )
    schema2 = {
        "birth_year": "bornOnYear",
        "occupation": "hasProfession",
        "release_year": "publishedOnYear",
        "population": "hasPopulation",
        "area": "hasArea",
        "founded": "establishedOnYear",
        "code": "hasCode",
        "weight": "hasWeight",
        "category": "inCategory",
        "happened": "happenedOnYear",
        "venue_name": "venueLabel",
        "wasBornIn": "birthPlace",
        "worksFor": "affiliatedTo",
        "directedBy": "hasDirector",
        "locatedIn": "isLocatedIn",
    }
    noise = NoiseConfig(
        label_typo_prob=0.25,
        label_token_drop_prob=0.15,
        label_missing_prob=0.05,
        value_noise_prob=0.25,
        value_break_prob=0.3,
        attribute_drop_prob=0.15,
        edge_drop_prob=0.1,
    )
    return WorldConfig(
        name="dbpedia_yago",
        types=types,
        overlap=0.5,
        only1=0.25,
        only2=0.25,
        exact_label_fraction=0.35,
        noise1=NoiseConfig(
            label_typo_prob=0.12,
            label_missing_prob=0.04,
            value_noise_prob=0.1,
            value_break_prob=0.2,
            attribute_drop_prob=0.08,
        ),
        noise2=noise,
        schema2=schema2,
        extra_attributes1=40,
        extra_attributes2=6,
        vocabulary_size=110,
        homonym_fraction=0.12,
    )


PROFILE_BUILDERS = {
    "iimb": iimb_config,
    "dblp_acm": dblp_acm_config,
    "imdb_yago": imdb_yago_config,
    "dbpedia_yago": dbpedia_yago_config,
}

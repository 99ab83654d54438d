"""Multi-component synthetic datasets for the partition layer.

The four profile datasets grow one densely-connected world, so their ER
graphs tend toward few large components.  :func:`clustered_bundle`
instead builds many *independent* clusters — per cluster one studio
director, its movies and their actors — whose labels share a
cluster-unique token.  Candidate generation therefore never pairs
entities across clusters, and the ER graph decomposes into (at least)
one weakly-connected component per cluster: the worst case for a
monolithic run and the best case for :mod:`repro.partition`, which is
exactly what the partition tests and ``bench_partition`` need.

Label noise drops the movie/actor-distinguishing token from some KB2
labels, collapsing their priors into a within-cluster tie that only
crowd questions plus relational propagation can break — so the
human–machine loop has real work to do in every component.
"""

from __future__ import annotations

import random

from repro.datasets.synthesis import DatasetBundle
from repro.kb.model import KnowledgeBase

#: Distinguishing label words for movies/actors inside one cluster.
_WORDS = (
    "alpha", "bravo", "delta", "echo", "golf", "hotel", "india",
    "kilo", "lima", "mike", "oscar", "papa", "quebec", "romeo",
    "tango", "uniform", "victor", "whiskey", "xray", "yankee", "zulu",
)


def _word(index: int, cluster: int) -> str:
    """A distinguishing token unique to (index, cluster).

    The cluster id is baked into the token: a word shared across
    clusters would create cross-cluster candidate pairs, whose shared
    entities chain the clusters into one entity-closure component and
    defeat the whole point of this dataset.
    """
    base = _WORDS[index % len(_WORDS)]
    round_ = index // len(_WORDS)
    suffix = f"{cluster:03d}" if round_ == 0 else f"{round_}x{cluster:03d}"
    return f"{base}{suffix}"


def clustered_bundle(
    num_clusters: int = 8,
    movies_per_cluster: int = 5,
    seed: int = 0,
    label_noise: float = 0.3,
    critics_per_cluster: int = 0,
    name: str | None = None,
) -> DatasetBundle:
    """Generate a dataset whose ER graph has ≥ ``num_clusters`` components.

    Each cluster holds one director, ``movies_per_cluster`` movies and as
    many actors, wired director→movie→actor; every label carries the
    cluster token, so candidates — and hence ER-graph edges *and* shared
    entities — stay within a cluster.  ``label_noise`` is the
    probability that a KB2 movie/actor label loses its distinguishing
    word (director labels stay clean so each cluster keeps an ``M_in``
    seed and its hub).  ``critics_per_cluster`` adds relation-free
    entities whose candidate pairs are isolated — fodder for the
    classifier-only phase of :mod:`repro.partition`.

    Cross-cluster label Jaccard stays below the 0.3 candidate threshold:
    labels share at most one generic token (``film``/``actor``/
    ``critic``) out of ≥ 3 per side, and director labels are fully
    cluster-qualified (a shared ``director`` token in a 2-token label
    would hit 1/3 exactly and chain every cluster through the resulting
    candidate pairs).
    """
    if num_clusters < 1 or movies_per_cluster < 1:
        raise ValueError("need at least one cluster and one movie per cluster")
    rng = random.Random(seed)
    kb1 = KnowledgeBase("clustered1")
    kb2 = KnowledgeBase("clustered2")
    gold: set[tuple[str, str]] = set()
    entity_types: dict[str, str] = {}

    def add(world_id: str, type_name: str, label1: str, label2: str) -> tuple[str, str]:
        e1, e2 = f"x:{world_id}", f"y:{world_id}"
        kb1.add_entity(e1, label=label1)
        kb2.add_entity(e2, label=label2)
        gold.add((e1, e2))
        entity_types[e1] = entity_types[e2] = type_name
        return e1, e2

    def noisy(label: str) -> str:
        """Drop the distinguishing (last) word with probability label_noise."""
        if rng.random() < label_noise:
            return label.rsplit(" ", 1)[0]
        return label

    for c in range(num_clusters):
        cluster = f"studio{c:03d}"
        director_label = f"{cluster} director{c:03d}"
        d1, d2 = add(f"d{c}", "director", director_label, director_label)
        kb1.add_attribute_triple(d1, "founded", 1900 + c)
        kb2.add_attribute_triple(d2, "founded", 1900 + c)
        for j in range(movies_per_cluster):
            movie_label = f"{cluster} film {_word(j, c)}"
            m1, m2 = add(f"m{c}_{j}", "movie", movie_label, noisy(movie_label))
            year = 1980 + (c * 7 + j) % 40
            kb1.add_attribute_triple(m1, "year", year)
            kb2.add_attribute_triple(m2, "year", year)
            kb1.add_relationship_triple(d1, "directed", m1)
            kb2.add_relationship_triple(d2, "directed", m2)

            actor_label = f"{cluster} actor {_word(j, c)}"
            a1, a2 = add(f"a{c}_{j}", "actor", actor_label, noisy(actor_label))
            kb1.add_attribute_triple(a1, "born", 1950 + j)
            kb2.add_attribute_triple(a2, "born", 1950 + j)
            kb1.add_relationship_triple(m1, "stars", a1)
            kb2.add_relationship_triple(m2, "stars", a2)

        for j in range(critics_per_cluster):
            critic_label = f"{cluster} critic {_word(j, c)}"
            c1, c2 = add(f"c{c}_{j}", "critic", critic_label, noisy(critic_label))
            kb1.add_attribute_triple(c1, "age", 30 + j)
            kb2.add_attribute_triple(c2, "age", 30 + j)

    bundle = DatasetBundle(
        name=name or f"clustered-{num_clusters}x{movies_per_cluster}",
        kb1=kb1,
        kb2=kb2,
        gold_matches=gold,
        gold_attribute_matches={
            ("rdfs:label", "rdfs:label"),
            ("founded", "founded"),
            ("year", "year"),
            ("born", "born"),
            ("age", "age"),
        },
        gold_relationship_matches={("directed", "directed"), ("stars", "stars")},
        entity_types=entity_types,
    )
    return bundle

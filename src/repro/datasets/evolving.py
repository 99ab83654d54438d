"""Evolving two-KB worlds: a base bundle plus a seeded stream of deltas.

``evolving_bundle`` grows a :func:`~repro.datasets.clustered.clustered_bundle`
world (:func:`evolving_base`, which is all ``load_dataset("evolving")``
builds) and authors a deterministic sequence of :class:`~repro.stream.KBDelta`
steps against it — add a movie (and its actor) to a cluster, rename a
movie in both KBs, remove a movie, touch an attribute value, or open a
whole new cluster.  Every delta carries the fingerprint of the KB pair it
applies to and the gold-standard updates the simulated crowd needs, so a
stream can be replayed, composed, or cross-checked against a from-scratch
build of any step.

Edits follow the clustered dataset's token discipline (labels carry a
cluster-unique token), so the ER graph keeps one entity-closure component
per cluster and a step's dirt stays inside the clusters it names —
exactly the workload ``repro.stream`` is built for.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

from repro.datasets.clustered import _word, clustered_bundle
from repro.datasets.synthesis import DatasetBundle
from repro.kb.io import kb_pair_fingerprint
from repro.stream.delta import DeltaOp, KBDelta

Pair = tuple[str, str]


@dataclass(slots=True)
class EvolvingBundle:
    """A base world plus an ordered stream of deltas.

    ``deltas[i]`` transforms the step-``i`` world into step ``i+1``;
    :meth:`bundle_at` materializes any step from scratch (the
    equivalence suite's reference side).
    """

    base: DatasetBundle
    deltas: list[KBDelta]

    def gold_at(self, step: int) -> set[Pair]:
        gold = set(self.base.gold_matches)
        for delta in self.deltas[:step]:
            gold = delta.apply_gold(gold)
        return gold

    def bundle_at(self, step: int) -> DatasetBundle:
        """The world after ``step`` deltas, as an ordinary bundle."""
        if not 0 <= step <= len(self.deltas):
            raise ValueError(
                f"step must be in [0, {len(self.deltas)}], got {step}"
            )
        kb1, kb2 = self.base.kb1, self.base.kb2
        for delta in self.deltas[:step]:
            kb1, kb2 = delta.apply(kb1, kb2)
        return DatasetBundle(
            name=f"{self.base.name}+{step}",
            kb1=kb1,
            kb2=kb2,
            gold_matches=self.gold_at(step),
            gold_attribute_matches=set(self.base.gold_attribute_matches),
            gold_relationship_matches=set(self.base.gold_relationship_matches),
            entity_types=dict(self.base.entity_types),
        )


class _StreamAuthor:
    """Authors one delta step against the current world state."""

    def __init__(self, rng: random.Random, movies_per_cluster: int, label_noise: float):
        self.rng = rng
        self.label_noise = label_noise
        self.movies_per_cluster = movies_per_cluster
        #: cluster index -> live movie indices.
        self.movies: dict[int, list[int]] = {}
        #: cluster index -> next fresh movie index (word uniqueness).
        self.next_movie: dict[int, int] = {}
        self.next_cluster = 0

    def seed_from_base(self, num_clusters: int) -> None:
        for c in range(num_clusters):
            self.movies[c] = list(range(self.movies_per_cluster))
            self.next_movie[c] = self.movies_per_cluster
        self.next_cluster = num_clusters

    # -- op builders ----------------------------------------------------
    def _noisy(self, label: str) -> str:
        if self.rng.random() < self.label_noise:
            return label.rsplit(" ", 1)[0]
        return label

    def _movie_ops(self, c: int, j: int) -> tuple[list[DeltaOp], list[Pair]]:
        """Ops adding movie ``j`` (and its actor) to cluster ``c``."""
        cluster = f"studio{c:03d}"
        m1, m2 = f"x:m{c}_{j}", f"y:m{c}_{j}"
        a1, a2 = f"x:a{c}_{j}", f"y:a{c}_{j}"
        movie_label = f"{cluster} film {_word(j, c)}"
        actor_label = f"{cluster} actor {_word(j, c)}"
        year = 1980 + (c * 7 + j) % 40
        ops = [
            DeltaOp("add_entity", 1, m1, value=movie_label),
            DeltaOp("add_entity", 2, m2, value=self._noisy(movie_label)),
            DeltaOp("add_attribute", 1, m1, "year", year),
            DeltaOp("add_attribute", 2, m2, "year", year),
            DeltaOp("add_relation", 1, f"x:d{c}", "directed", m1),
            DeltaOp("add_relation", 2, f"y:d{c}", "directed", m2),
            DeltaOp("add_entity", 1, a1, value=actor_label),
            DeltaOp("add_entity", 2, a2, value=self._noisy(actor_label)),
            DeltaOp("add_attribute", 1, a1, "born", 1950 + j % 40),
            DeltaOp("add_attribute", 2, a2, "born", 1950 + j % 40),
            DeltaOp("add_relation", 1, m1, "stars", a1),
            DeltaOp("add_relation", 2, m2, "stars", a2),
        ]
        return ops, [(m1, m2), (a1, a2)]

    def add_movie(self, c: int) -> KBDelta:
        j = self.next_movie[c]
        self.next_movie[c] = j + 1
        self.movies[c].append(j)
        ops, gold = self._movie_ops(c, j)
        return KBDelta(ops=tuple(ops), gold_add=tuple(gold))

    def remove_movie(self, c: int) -> KBDelta:
        j = self.rng.choice(self.movies[c])
        self.movies[c].remove(j)
        pairs = [(f"x:m{c}_{j}", f"y:m{c}_{j}"), (f"x:a{c}_{j}", f"y:a{c}_{j}")]
        ops = []
        for left, right in pairs:
            ops.append(DeltaOp("remove_entity", 1, left))
            ops.append(DeltaOp("remove_entity", 2, right))
        return KBDelta(ops=tuple(ops), gold_remove=tuple(pairs))

    def rename_movie(self, c: int, kb1, kb2) -> KBDelta:
        j = self.rng.choice(self.movies[c])
        fresh = self.next_movie[c]
        self.next_movie[c] = fresh + 1
        cluster = f"studio{c:03d}"
        m1, m2 = f"x:m{c}_{j}", f"y:m{c}_{j}"
        new_label = f"{cluster} film {_word(fresh, c)}"
        ops = []
        old1, old2 = kb1.label(m1), kb2.label(m2)
        if old1 is not None:
            ops.append(DeltaOp("remove_attribute", 1, m1, "rdfs:label", old1))
        if old2 is not None:
            ops.append(DeltaOp("remove_attribute", 2, m2, "rdfs:label", old2))
        ops.append(DeltaOp("add_attribute", 1, m1, "rdfs:label", new_label))
        ops.append(DeltaOp("add_attribute", 2, m2, "rdfs:label", self._noisy(new_label)))
        return KBDelta(ops=tuple(ops))

    def touch_year(self, c: int, kb1, kb2) -> KBDelta:
        """Update one movie's ``year`` value in both KBs (an in-place edit)."""
        j = self.rng.choice(self.movies[c])
        m1, m2 = f"x:m{c}_{j}", f"y:m{c}_{j}"
        ops = []
        for kb_index, kb, entity in ((1, kb1, m1), (2, kb2, m2)):
            for value in sorted(kb.attribute_values(entity, "year"), key=str):
                ops.append(DeltaOp("remove_attribute", kb_index, entity, "year", value))
            ops.append(
                DeltaOp("add_attribute", kb_index, entity, "year", 2020 + (c + j) % 5)
            )
        return KBDelta(ops=tuple(ops))

    def add_cluster(self) -> KBDelta:
        c = self.next_cluster
        self.next_cluster = c + 1
        cluster = f"studio{c:03d}"
        d1, d2 = f"x:d{c}", f"y:d{c}"
        director_label = f"{cluster} director{c:03d}"
        ops = [
            DeltaOp("add_entity", 1, d1, value=director_label),
            DeltaOp("add_entity", 2, d2, value=director_label),
            DeltaOp("add_attribute", 1, d1, "founded", 1900 + c),
            DeltaOp("add_attribute", 2, d2, "founded", 1900 + c),
        ]
        gold: list[Pair] = [(d1, d2)]
        self.movies[c] = []
        self.next_movie[c] = 0
        for _ in range(2):
            j = self.next_movie[c]
            self.next_movie[c] = j + 1
            self.movies[c].append(j)
            movie_ops, movie_gold = self._movie_ops(c, j)
            ops.extend(movie_ops)
            gold.extend(movie_gold)
        return KBDelta(ops=tuple(ops), gold_add=tuple(gold))

    # -- one step -------------------------------------------------------
    def author_step(self, kb1, kb2) -> KBDelta:
        clusters = [c for c, live in self.movies.items() if live]
        kinds = ["add_movie", "add_movie", "rename", "touch_year"]
        if any(len(self.movies[c]) >= 2 for c in clusters):
            kinds.append("remove_movie")
        kinds.append("add_cluster")
        kind = self.rng.choice(kinds)
        if kind == "add_cluster":
            return self.add_cluster()
        c = self.rng.choice(sorted(clusters))
        if kind == "add_movie":
            return self.add_movie(c)
        if kind == "rename":
            return self.rename_movie(c, kb1, kb2)
        if kind == "touch_year":
            return self.touch_year(c, kb1, kb2)
        candidates = [c for c in sorted(clusters) if len(self.movies[c]) >= 2]
        return self.remove_movie(self.rng.choice(candidates))


def _cluster_count(scale: float, num_clusters: int | None) -> int:
    """An explicit ``num_clusters``, else the default count scaled."""
    return max(3, round(8 * scale)) if num_clusters is None else num_clusters


def evolving_base(
    seed: int = 0,
    scale: float = 1.0,
    num_clusters: int | None = None,
    movies_per_cluster: int = 4,
    label_noise: float = 0.3,
) -> DatasetBundle:
    """The step-0 world of :func:`evolving_bundle` with the same arguments.

    It authors no deltas, so it costs a fraction of the full bundle.
    """
    num_clusters = _cluster_count(scale, num_clusters)
    return clustered_bundle(
        num_clusters=num_clusters,
        movies_per_cluster=movies_per_cluster,
        seed=seed,
        label_noise=label_noise,
        critics_per_cluster=1,
        name=f"evolving-{num_clusters}x{movies_per_cluster}",
    )


@lru_cache(maxsize=16)
def evolving_bundle(
    seed: int = 0,
    scale: float = 1.0,
    steps: int = 6,
    num_clusters: int | None = None,
    movies_per_cluster: int = 4,
    label_noise: float = 0.3,
) -> EvolvingBundle:
    """A clustered base world plus ``steps`` authored deltas.

    ``scale`` multiplies the default cluster count (mirroring the other
    datasets' scale knob); an explicit ``num_clusters`` overrides it.
    The result is cached — deltas carry chained fingerprints, so
    regeneration is deterministic anyway.
    """
    num_clusters = _cluster_count(scale, num_clusters)
    base = evolving_base(
        seed,
        num_clusters=num_clusters,
        movies_per_cluster=movies_per_cluster,
        label_noise=label_noise,
    )
    author = _StreamAuthor(
        random.Random(seed * 7919 + 17), movies_per_cluster, label_noise
    )
    author.seed_from_base(num_clusters)

    deltas: list[KBDelta] = []
    kb1, kb2 = base.kb1, base.kb2
    for _ in range(steps):
        delta = author.author_step(kb1, kb2)
        delta = KBDelta(
            ops=delta.ops,
            gold_add=delta.gold_add,
            gold_remove=delta.gold_remove,
            parent_fingerprint=kb_pair_fingerprint(kb1, kb2),
        )
        kb1, kb2 = delta.apply(kb1, kb2, check_fingerprint=False)
        deltas.append(delta)
    return EvolvingBundle(base=base, deltas=deltas)

"""Inference for isolated entity pairs — Section VII-B.

Pairs whose entities occur in no relationship triple cannot be reached by
match propagation.  Instead of polling the crowd pair by pair, a random
forest is trained on the resolved pairs whose *attribute signature* (the
set of attribute matches populated on both sides) is similar to the
isolated pair's — the neighborhood ``N_p`` with Jaccard ≥ ψ.  Unresolved
neighbors count as non-matches to balance the heavily-positive labels that
propagation produces.

Two practical extensions (``docs/design.md``, "The isolated phase against
Section VII-B", lists them with the match threshold and the negative cap):

* When a signature group has no positive labels at all — common when whole
  entity types are isolated — a small, bounded number of seed questions is
  asked about the group's most probable pairs, giving the forest something
  to learn from.  This keeps the paper's "avoid polling one by one" intent
  while making the classifier usable on datasets like I-Y and D-Y where
  isolated pairs dominate.
* The label-similarity prior is appended to the feature vector, so pairs
  with few shared attributes are still classifiable.

A forest is a pure function of its training set, the forest size and the
seed, so each is keyed by a digest of exactly those (:func:`forest_key`).
A caller may hand the classifier the forests of an earlier classify as a
read-only memo; a training set whose key the memo holds takes its forest
instead of fitting an identical one.  A stream update hands in its
parent's, whose isolated group usually trains on the same set.
"""

from __future__ import annotations

import hashlib
import random
from typing import Callable, Mapping

import numpy as np

from repro.core.config import RempConfig
from repro.ml import RandomForestClassifier
from repro.obs import runtime as obs
from repro.text.similarity import jaccard

Pair = tuple[str, str]
Signature = frozenset[int]
Vector = tuple[float, ...]

#: Callback for crowd-labeling one pair: returns True (match), False
#: (non-match) or None (labels were inconsistent / pair stays unresolved).
AskFn = Callable[[Pair], bool | None]


def forest_key(X: np.ndarray, y: np.ndarray, forest_size: int, seed: int) -> str:
    """Digest of a forest's whole training input.

    ``RandomForestClassifier.fit`` is a pure function of X (its float64
    bytes and shape), y, the forest size and the seed, so two inputs
    with one key fit identical forests.
    """
    digest = hashlib.sha256(repr((X.shape, forest_size, seed)).encode())
    digest.update(np.asarray(X, dtype=np.float64).tobytes())
    digest.update(np.asarray(y, dtype=np.float64).tobytes())
    return digest.hexdigest()


def attribute_signature(vector_presence: tuple[bool, ...]) -> Signature:
    """Indices of attribute matches populated on both sides of a pair."""
    return frozenset(i for i, present in enumerate(vector_presence) if present)


def build_signatures(kb1, kb2, retained, attribute_matches) -> dict[Pair, Signature]:
    """Attribute signature of every retained pair.

    :func:`repro.accel.candidates.intern_signatures` computes one
    presence bitmask per entity and side instead of probing the KB
    accessors per pair, and interns one frozenset per distinct
    signature; contents and key order (``retained`` iteration order)
    match the per-pair reference loop (:mod:`repro.accel.reference`).
    """
    from repro.accel.candidates import intern_signatures

    return intern_signatures(kb1, kb2, retained, attribute_matches)


class IsolatedPairClassifier:
    """Random-forest resolution of isolated pairs.

    Parameters
    ----------
    vectors:
        Similarity vector of every retained pair.
    signatures:
        Attribute signature of every retained pair.
    priors:
        Label-similarity priors (extra feature + seed-question ordering).
    config:
        Supplies ψ, the forest size and seed-question budget.
    forests:
        Read-only memo of fitted forests by :func:`forest_key`, e.g. the
        :attr:`forests` of an earlier classify; never mutated.
    """

    def __init__(
        self,
        vectors: dict[Pair, Vector],
        signatures: dict[Pair, Signature],
        priors: dict[Pair, float],
        config: RempConfig | None = None,
        seed: int = 0,
        forests: Mapping[str, RandomForestClassifier] | None = None,
    ):
        self._vectors = vectors
        self._signatures = signatures
        self._priors = priors
        self._config = config or RempConfig()
        self._seed = seed
        self._memo = forests or {}
        self.questions_asked = 0
        #: The forests this classifier used, fitted or taken from the
        #: memo, by :func:`forest_key`.  A fitted forest is never mutated,
        #: so runs may share it.
        self.forests: dict[str, RandomForestClassifier] = {}

    # ------------------------------------------------------------------
    def neighborhood(self, pair: Pair) -> list[Pair]:
        """``N_p``: retained pairs with attribute-signature Jaccard ≥ ψ."""
        signature = self._signatures[pair]
        psi = self._config.psi
        return sorted(
            other
            for other, other_sig in self._signatures.items()
            if other != pair and jaccard(signature, other_sig) >= psi
        )

    def _features(self, pair: Pair) -> list[float]:
        # The pipeline's vectors already lead with the label prior.
        return list(self._vectors[pair])

    # ------------------------------------------------------------------
    def classify(
        self,
        pairs: list[Pair],
        resolved_matches: set[Pair],
        resolved_non_matches: set[Pair],
        ask: AskFn | None = None,
    ) -> set[Pair]:
        """Predict which isolated ``pairs`` are matches.

        One forest is trained per distinct attribute signature (pairs with
        equal signatures share a neighborhood and therefore a model).  When
        ``ask`` is provided and a group's neighborhood lacks positive or
        negative labels, up to ``config.isolated_seed_questions`` of the
        group's highest-prior pairs are crowd-labeled first.  Groups that
        still cannot be trained yield no predictions.
        """
        predicted: set[Pair] = set()
        by_signature: dict[Signature, list[Pair]] = {}
        for pair in sorted(pairs):
            by_signature.setdefault(self._signatures[pair], []).append(pair)

        # Deterministic group order regardless of set-iteration order.
        for _, members in sorted(by_signature.items(), key=lambda kv: sorted(kv[0])):
            members = [p for p in members if p not in resolved_matches
                       and p not in resolved_non_matches]
            if not members:
                continue
            neighborhood = self.neighborhood(members[0])
            if ask is not None:
                self._seed_labels(
                    members, neighborhood, resolved_matches, resolved_non_matches, ask
                )
            members = [p for p in members if p not in resolved_matches
                       and p not in resolved_non_matches]
            if not members:
                continue
            model = self._train(neighborhood, resolved_matches, resolved_non_matches)
            if model is None:
                continue
            X = np.array([self._features(p) for p in members], dtype=float)
            proba = model.predict_proba(X)
            threshold = self._config.isolated_match_threshold
            predicted.update(p for p, score in zip(members, proba) if score >= threshold)
        return predicted

    # ------------------------------------------------------------------
    def _seed_labels(
        self,
        members: list[Pair],
        neighborhood: list[Pair],
        resolved_matches: set[Pair],
        resolved_non_matches: set[Pair],
        ask: AskFn,
    ) -> None:
        """Crowd-label a few high-prior pairs so the group becomes trainable."""
        budget = self._config.isolated_seed_questions
        positives = sum(1 for p in neighborhood if p in resolved_matches)
        if positives > 0 or budget <= 0:
            return
        target = self._config.isolated_seed_positive_target
        ranked = sorted(members, key=lambda p: -self._priors.get(p, 0.0))
        for pair in ranked[:budget]:
            answer = ask(pair)
            self.questions_asked += 1
            if answer is True:
                resolved_matches.add(pair)
            elif answer is False:
                resolved_non_matches.add(pair)
            enough_positive = (
                sum(1 for p in neighborhood if p in resolved_matches) >= target
            )
            has_negative = any(p in resolved_non_matches for p in neighborhood)
            if enough_positive and has_negative:
                break

    def _train(
        self,
        neighborhood: list[Pair],
        resolved_matches: set[Pair],
        resolved_non_matches: set[Pair],
    ) -> RandomForestClassifier | None:
        if not neighborhood:
            return None
        # Resolved non-matches and unresolved pairs both count as negatives
        # (Section VII-B's class balancing); resolved negatives are kept in
        # full, unlabeled negatives are subsampled so the handful of
        # positive labels is not drowned out.
        positives = [p for p in neighborhood if p in resolved_matches]
        known_negatives = [p for p in neighborhood if p in resolved_non_matches]
        unlabeled = [
            p
            for p in neighborhood
            if p not in resolved_matches and p not in resolved_non_matches
        ]
        if not positives:
            return None
        rng = random.Random(self._seed)
        negative_cap = max(5 * len(positives), 10)
        if len(known_negatives) > negative_cap:
            known_negatives = rng.sample(known_negatives, negative_cap)
        if known_negatives:
            # Trust crowd-confirmed negatives; unlabeled pairs may well be
            # matches in dense pools and would poison the training set.
            negatives = known_negatives
        else:
            room = max(0, negative_cap)
            if len(unlabeled) > room:
                unlabeled = rng.sample(unlabeled, room)
            negatives = unlabeled
        if not negatives:
            return None
        X = np.array(
            [self._features(p) for p in positives + negatives], dtype=float
        )
        y = np.array([1.0] * len(positives) + [0.0] * len(negatives))
        forest_size = self._config.forest_size
        key = forest_key(X, y, forest_size, self._seed)
        model = self._memo.get(key)
        if model is None:
            model = RandomForestClassifier(n_estimators=forest_size, seed=self._seed)
            model.fit(X, y)
            obs.count("isolated.forest.fitted")
        else:
            obs.count("isolated.forest.reused")
        self.forests[key] = model
        return model

"""Tests for the isolated-pair classifier (Section VII-B)."""

import numpy as np
import pytest

from repro.core.config import RempConfig
from repro.core.isolated import IsolatedPairClassifier, attribute_signature
from repro.ml import RandomForestClassifier
from repro.obs import runtime as obs


def test_attribute_signature():
    assert attribute_signature((True, False, True)) == frozenset({0, 2})
    assert attribute_signature(()) == frozenset()


def _setup(num=40):
    """Synthetic retained set: vector (s,) where matches have s ~ 0.9."""
    vectors, signatures, priors = {}, {}, {}
    matches, non_matches = set(), set()
    for i in range(num):
        pair = (f"a{i}", f"b{i}")
        is_match = i % 2 == 0
        sim = 0.9 if is_match else 0.1
        vectors[pair] = (sim,)
        signatures[pair] = frozenset({0})
        priors[pair] = sim
        if i < num // 2:  # first half resolved
            (matches if is_match else non_matches).add(pair)
    return vectors, signatures, priors, matches, non_matches


class TestNeighborhood:
    def test_same_signature_in_neighborhood(self):
        vectors, signatures, priors, _, _ = _setup()
        clf = IsolatedPairClassifier(vectors, signatures, priors)
        hood = clf.neighborhood(("a0", "b0"))
        assert ("a1", "b1") in hood
        assert ("a0", "b0") not in hood

    def test_different_signature_excluded(self):
        vectors, signatures, priors, _, _ = _setup()
        signatures[("odd", "odd")] = frozenset({5})
        vectors[("odd", "odd")] = (0.5,)
        clf = IsolatedPairClassifier(vectors, signatures, priors)
        assert ("odd", "odd") not in clf.neighborhood(("a0", "b0"))


class TestClassify:
    def test_learns_separable_boundary(self):
        vectors, signatures, priors, matches, non_matches = _setup()
        clf = IsolatedPairClassifier(vectors, signatures, priors)
        unresolved = [p for p in vectors if p not in matches and p not in non_matches]
        predicted = clf.classify(unresolved, set(matches), set(non_matches))
        expected = {p for p in unresolved if vectors[p][0] > 0.5}
        assert predicted == expected

    def test_no_positives_without_ask_abstains(self):
        vectors, signatures, priors, _, non_matches = _setup()
        clf = IsolatedPairClassifier(vectors, signatures, priors)
        unresolved = sorted(vectors)
        predicted = clf.classify(unresolved, set(), set(non_matches))
        assert predicted == set()

    def test_seed_questions_unlock_group(self):
        vectors, signatures, priors, _, _ = _setup()
        # Make seeding realistic: a few high-prior pairs are actually
        # non-matches, so the crowd answers contain both classes.
        for i in (1, 3):
            pair = (f"a{i}", f"b{i}")
            priors[pair] = 0.95
        clf = IsolatedPairClassifier(
            vectors, signatures, priors, RempConfig(isolated_seed_questions=12)
        )
        gold = {p for p in vectors if vectors[p][0] > 0.5}

        def ask(pair):
            return pair in gold

        predicted = clf.classify(sorted(vectors), set(), set(), ask=ask)
        asked_gold = {p for p in gold if p in clf._priors and ask(p)}
        assert 0 < clf.questions_asked <= 12
        found = len((predicted | gold) & gold)  # sanity on shapes
        recovered = predicted & gold
        assert len(recovered) / (len(gold) - clf.questions_asked) > 0.5

    def test_seeding_disabled_with_zero_budget(self):
        vectors, signatures, priors, _, _ = _setup()
        clf = IsolatedPairClassifier(
            vectors, signatures, priors, RempConfig(isolated_seed_questions=0)
        )
        predicted = clf.classify(sorted(vectors), set(), set(), ask=lambda p: True)
        assert clf.questions_asked == 0
        assert predicted == set()

    def test_already_resolved_pairs_not_predicted(self):
        vectors, signatures, priors, matches, non_matches = _setup()
        clf = IsolatedPairClassifier(vectors, signatures, priors)
        predicted = clf.classify(sorted(matches), set(matches), set(non_matches))
        assert predicted == set()

    def test_deterministic(self):
        vectors, signatures, priors, matches, non_matches = _setup()
        unresolved = [p for p in vectors if p not in matches and p not in non_matches]
        a = IsolatedPairClassifier(vectors, signatures, priors, seed=3).classify(
            unresolved, set(matches), set(non_matches)
        )
        b = IsolatedPairClassifier(vectors, signatures, priors, seed=3).classify(
            unresolved, set(matches), set(non_matches)
        )
        assert a == b


def _memo_setup():
    """Ten pairs of one signature: three matches, ``a3``, three non-matches
    and three unresolved.  ``a3`` sorts between the matches and the
    non-matches, so labeling it either way keeps the training rows (the
    neighborhood's matches, then its non-matches) and changes one label.
    """
    pairs = [(f"a{i}", f"b{i}") for i in range(10)]
    vectors = {pair: (0.9 - 0.1 * i, 0.5) for i, pair in enumerate(pairs)}
    signatures = {pair: frozenset({0}) for pair in pairs}
    priors = {pair: vectors[pair][0] for pair in pairs}
    return vectors, signatures, priors, pairs


class TestForestMemo:
    """A forest is keyed by its whole training input; a memo hit fits none."""

    @staticmethod
    def _classify(forests=None, *, seed=0, forest_size=10, a3_matches=True):
        vectors, signatures, priors, pairs = _memo_setup()
        matches, non_matches = set(pairs[:3]), set(pairs[4:7])
        (matches if a3_matches else non_matches).add(pairs[3])
        clf = IsolatedPairClassifier(
            vectors,
            signatures,
            priors,
            RempConfig(forest_size=forest_size),
            seed=seed,
            forests=forests,
        )
        scope = obs.RunScope(trace=False)
        with scope.activate():
            predicted = clf.classify(pairs[7:], matches, non_matches)
        return clf, predicted, scope.export()["metrics"]["counters"]

    def test_an_identical_training_set_takes_the_memo_forest(self, monkeypatch):
        first, expected, counters = self._classify()
        assert counters["isolated.forest.fitted"] == 1
        assert "isolated.forest.reused" not in counters
        (key, forest), = first.forests.items()

        def refuse(self, X, y):
            raise AssertionError("fitted a forest the memo holds")

        monkeypatch.setattr(RandomForestClassifier, "fit", refuse)
        second, predicted, counters = self._classify(first.forests)
        assert predicted == expected
        assert counters["isolated.forest.reused"] == 1
        assert "isolated.forest.fitted" not in counters
        assert list(second.forests) == [key] and second.forests[key] is forest

    @pytest.mark.parametrize(
        "change",
        [{"a3_matches": False}, {"seed": 1}, {"forest_size": 11}],
        ids=["one_label", "seed", "forest_size"],
    )
    def test_another_training_input_misses_and_fits(self, change, monkeypatch):
        first, _, _ = self._classify()
        inputs = []
        fit = RandomForestClassifier.fit

        def recorded(self, X, y):
            inputs.append((X.copy(), y.copy()))
            return fit(self, X, y)

        monkeypatch.setattr(RandomForestClassifier, "fit", recorded)
        self._classify()  # records the unchanged training input
        changed, _, counters = self._classify(first.forests, **change)
        assert counters["isolated.forest.fitted"] == 1
        assert "isolated.forest.reused" not in counters
        assert len(inputs) == 2
        assert changed.forests.keys().isdisjoint(first.forests)
        (X, y), (X_changed, y_changed) = inputs
        assert np.array_equal(X, X_changed)
        # Only the label changes y, by exactly one label.
        assert int((y != y_changed).sum()) == ("a3_matches" in change)

    def test_the_memo_is_left_unmutated(self):
        first, _, _ = self._classify()
        memo = dict(first.forests)
        snapshot = list(memo.items())
        trees = [list(forest._trees) for forest in memo.values()]
        for change in ({}, {"seed": 1}):
            self._classify(memo, **change)
            # Forests compare by identity: the same keys, objects and trees.
            assert list(memo.items()) == snapshot
            assert [list(forest._trees) for forest in memo.values()] == trees

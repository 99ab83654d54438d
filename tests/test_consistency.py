"""Tests for relationship-consistency estimation (Section V-A)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel import reference
from repro.accel.propagation import IncrementalPropagator
from repro.core import RempConfig
from repro.core.consistency import (
    Consistency,
    _best_latent,
    _Observation,
    estimate_all_consistencies,
    estimate_consistency,
)
from repro.core.er_graph import build_er_graph
from repro.kb import KnowledgeBase
from repro.obs.runtime import RunScope


class TestBestLatent:
    def test_zero_zeta_prefers_lower_bound(self):
        assert _best_latent(5, 5, 0, 1e-9) == 0

    def test_huge_zeta_prefers_max(self):
        assert _best_latent(5, 5, 0, 1e9) == 5

    def test_respects_lower_bound(self):
        assert _best_latent(5, 5, 3, 1e-9) == 3

    def test_upper_bound_is_min(self):
        assert _best_latent(2, 9, 0, 1e9) == 2


class TestEstimateConsistency:
    def test_fully_consistent_relationship(self):
        obs = [_Observation(2, 2, 2) for _ in range(10)]
        c = estimate_consistency(obs)
        assert c.epsilon1 > 0.9
        assert c.epsilon2 > 0.9

    def test_fully_inconsistent_relationship(self):
        obs = [_Observation(2, 2, 0) for _ in range(10)]
        c = estimate_consistency(obs)
        # With no observed matches the MLE can sit anywhere; the latent
        # search starts at the observed lower bound, so epsilon stays low.
        assert c.epsilon1 < 0.5

    def test_asymmetric_value_sets(self):
        # r1 single-valued and always matched; r2 multi-valued.
        obs = [_Observation(1, 4, 1) for _ in range(10)]
        c = estimate_consistency(obs)
        assert c.epsilon1 > c.epsilon2

    def test_empty_observations(self):
        c = estimate_consistency([])
        assert c == Consistency(0.5, 0.5, 0)

    def test_epsilons_clamped(self):
        obs = [_Observation(1, 1, 1) for _ in range(50)]
        c = estimate_consistency(obs, epsilon_ceiling=0.95)
        assert c.epsilon1 <= 0.95
        assert c.epsilon2 <= 0.95

    def test_gamma_positive(self):
        assert Consistency(0.9, 0.9, 1).gamma() > 1.0
        assert Consistency(0.1, 0.1, 1).gamma() < 1.0


class TestEstimateAll:
    @pytest.fixture()
    def functional_kbs(self):
        """wasBornIn is functional and perfectly consistent across KBs."""
        kb1, kb2 = KnowledgeBase("x"), KnowledgeBase("y")
        matches = set()
        for i in range(8):
            kb1.add_relationship_triple(f"a{i}", "bornIn", f"ac{i}")
            kb2.add_relationship_triple(f"b{i}", "birthPlace", f"bc{i}")
            matches.add((f"a{i}", f"b{i}"))
            matches.add((f"ac{i}", f"bc{i}"))
        return kb1, kb2, matches

    def test_functional_relationship_high_epsilon(self, functional_kbs):
        kb1, kb2, matches = functional_kbs
        result = estimate_all_consistencies(
            kb1, kb2, {("bornIn", "birthPlace")}, matches
        )
        c = result[("bornIn", "birthPlace")]
        assert c.epsilon1 > 0.9
        assert c.epsilon2 > 0.9
        assert c.support == 8

    def test_unsupported_label_gets_default(self, functional_kbs):
        kb1, kb2, matches = functional_kbs
        result = estimate_all_consistencies(
            kb1, kb2, {("nope", "nada")}, matches, epsilon_default=0.42
        )
        assert result[("nope", "nada")].epsilon1 == 0.42

    def test_min_support_fallback(self, functional_kbs):
        kb1, kb2, matches = functional_kbs
        result = estimate_all_consistencies(
            kb1, kb2, {("bornIn", "birthPlace")}, matches,
            min_support=100, epsilon_default=0.5,
        )
        assert result[("bornIn", "birthPlace")].epsilon1 == 0.5

    def test_inverse_labels_estimated(self, functional_kbs):
        kb1, kb2, matches = functional_kbs
        result = estimate_all_consistencies(
            kb1, kb2, {("~bornIn", "~birthPlace")}, matches
        )
        c = result[("~bornIn", "~birthPlace")]
        assert c.epsilon1 > 0.9

    def test_partially_consistent(self):
        """Half the matched pairs have matching values -> epsilon near 0.5."""
        kb1, kb2 = KnowledgeBase("x"), KnowledgeBase("y")
        matches = set()
        for i in range(10):
            kb1.add_relationship_triple(f"a{i}", "r", f"ac{i}")
            kb2.add_relationship_triple(f"b{i}", "s", f"bc{i}")
            matches.add((f"a{i}", f"b{i}"))
            if i < 5:
                matches.add((f"ac{i}", f"bc{i}"))
        result = estimate_all_consistencies(kb1, kb2, {("r", "s")}, matches)
        c = result[("r", "s")]
        assert 0.3 < c.epsilon1 < 0.8


def _counted(counter, fn) -> float:
    """How much ``fn`` adds to ``counter`` in a fresh run scope."""
    scope = RunScope("consistency-counters")
    with scope.activate():
        fn()
    return scope.metrics.counter(counter)


class TestApproximationCounters:
    def test_exhausted_iterations_count_one_non_convergence(self):
        # The latent counts settle on the second iteration.
        observations = [_Observation(1, 1, 0), _Observation(2, 2, 2)]

        def non_converged(iterations):
            return _counted(
                "consistency.not_converged",
                lambda: estimate_consistency(observations, max_iterations=iterations),
            )

        assert non_converged(1) == 1
        assert non_converged(2) == 0
        assert non_converged(30) == 0

    def test_label_under_support_counts_one_fallback_on_both_paths(self):
        """The full rebuild and the incremental propagator count alike."""
        kb1, kb2 = KnowledgeBase("x"), KnowledgeBase("y")
        kb1.add_relationship_triple("a", "bornIn", "ac")
        kb2.add_relationship_triple("b", "birthPlace", "bc")
        matches = {("a", "b"), ("ac", "bc")}
        graph = build_er_graph(kb1, kb2, matches)
        labels = {label for by_label in graph.groups.values() for label in by_label}
        config = RempConfig()
        # The forward and the inverse label each have one informative
        # matched pair, under the default support of 2.
        assert len(labels) == 2 and config.min_consistency_support == 2

        def fallbacks(fn):
            return _counted("consistency.default_fallback", fn)

        rebuild = fallbacks(
            lambda: estimate_all_consistencies(
                kb1, kb2, labels, matches, min_support=config.min_consistency_support
            )
        )
        incremental = fallbacks(
            lambda: IncrementalPropagator(graph, kb1, kb2, config).estimate_consistencies(
                matches
            )
        )
        assert rebuild == incremental == len(labels)
        supported = fallbacks(
            lambda: estimate_all_consistencies(kb1, kb2, labels, matches, min_support=1)
        )
        assert supported == 0


@st.composite
def _observation(draw):
    n1 = draw(st.integers(min_value=0, max_value=6))
    n2 = draw(st.integers(min_value=0, max_value=6))
    return _Observation(n1, n2, draw(st.integers(min_value=0, max_value=min(n1, n2))))


@settings(max_examples=150, deadline=None)
@given(
    observations=st.lists(_observation(), max_size=30),
    max_iterations=st.integers(min_value=1, max_value=30),
)
def test_per_shape_ascent_matches_reference(observations, max_iterations):
    """One latent assignment per shape gives the per-observation result.

    Few small shapes make them repeat; one iteration forces the
    non-convergence count on most inputs.
    """

    def estimate(fn):
        found = []
        count = _counted(
            "consistency.not_converged",
            lambda: found.append(fn(observations, max_iterations=max_iterations)),
        )
        return found[0], count

    assert estimate(estimate_consistency) == estimate(reference.estimate_consistency)

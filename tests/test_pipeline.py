"""Integration tests for the end-to-end Remp pipeline."""

import pytest

from repro.core import Remp, RempConfig
from repro.crowd import CrowdPlatform
from repro.eval import evaluate_matches


@pytest.fixture(scope="module")
def bundle(bundle_iimb_04):
    return bundle_iimb_04


@pytest.fixture(scope="module")
def oracle_result(bundle):
    remp = Remp()
    platform = CrowdPlatform.with_oracle(bundle.gold_matches)
    return remp.run(bundle.kb1, bundle.kb2, platform), platform


class TestPrepare:
    def test_artifacts_consistent(self, prepared_iimb_04):
        state = prepared_iimb_04
        assert state.retained <= state.candidates.pairs
        assert set(state.priors) == state.retained
        assert state.isolated <= state.retained
        assert set(state.signatures) == state.retained
        for pair in state.retained:
            assert pair in state.vector_index.vectors

    def test_initial_matches_have_prior_one(self, prepared_iimb_04):
        state = prepared_iimb_04
        for pair in state.candidates.initial_matches:
            assert state.candidates.priors[pair] == 1.0


class TestRun:
    def test_oracle_run_high_precision(self, bundle, oracle_result):
        result, _ = oracle_result
        quality = evaluate_matches(result.matches, bundle.gold_matches)
        assert quality.precision > 0.9
        assert quality.recall > 0.7
        assert quality.f1 > 0.85

    def test_question_count_bounded_by_loops(self, bundle, oracle_result):
        result, platform = oracle_result
        config = RempConfig()
        loop_questions = sum(len(r.questions) for r in result.history)
        assert loop_questions <= result.num_loops * config.mu
        assert result.questions_asked >= loop_questions
        assert platform.questions_asked == result.questions_asked

    def test_match_partition(self, bundle, oracle_result):
        result, _ = oracle_result
        assert result.matches == (
            result.labeled_matches | result.inferred_matches | result.isolated_matches
        )
        assert not (result.labeled_matches & result.inferred_matches)

    def test_far_fewer_questions_than_matches(self, bundle, oracle_result):
        """The headline claim: inference resolves many pairs per label."""
        result, _ = oracle_result
        assert result.questions_asked < len(result.matches)

    def test_budget_respected(self, bundle):
        config = RempConfig(budget=5)
        platform = CrowdPlatform.with_oracle(bundle.gold_matches)
        result = Remp(config).run(bundle.kb1, bundle.kb2, platform)
        # isolated seeding is also crowd labeling but budget gates the loop
        loop_questions = sum(len(r.questions) for r in result.history)
        assert loop_questions <= 5

    def test_unknown_strategy_rejected(self, bundle):
        platform = CrowdPlatform.with_oracle(bundle.gold_matches)
        with pytest.raises(ValueError, match="unknown selection strategy"):
            Remp().run(bundle.kb1, bundle.kb2, platform, strategy="nope")

    def test_alternative_strategies_run(self, bundle):
        for strategy in ("maxinf", "maxpr"):
            platform = CrowdPlatform.with_oracle(bundle.gold_matches)
            result = Remp().run(bundle.kb1, bundle.kb2, platform, strategy=strategy)
            quality = evaluate_matches(result.matches, bundle.gold_matches)
            assert quality.precision > 0.5

    def test_noisy_workers_still_accurate(self, bundle):
        platform = CrowdPlatform.with_simulated_workers(
            bundle.gold_matches, num_workers=30, error_rate=0.15, seed=1
        )
        result = Remp().run(bundle.kb1, bundle.kb2, platform)
        quality = evaluate_matches(result.matches, bundle.gold_matches)
        assert quality.f1 > 0.75

    def test_deterministic_given_same_platform_seed(self, bundle):
        results = []
        for _ in range(2):
            platform = CrowdPlatform.with_simulated_workers(
                bundle.gold_matches, num_workers=30, error_rate=0.1, seed=7
            )
            results.append(Remp().run(bundle.kb1, bundle.kb2, platform).matches)
        assert results[0] == results[1]


class TestPropagateOnly:
    def test_seeds_propagate(self, bundle):
        import random

        rng = random.Random(0)
        seeds = set(rng.sample(sorted(bundle.gold_matches), len(bundle.gold_matches) // 2))
        matches = Remp().propagate_only(bundle.kb1, bundle.kb2, seeds)
        assert matches >= seeds
        quality = evaluate_matches(matches, bundle.gold_matches)
        assert quality.recall > 0.5
        assert quality.precision > 0.85

    def test_no_seeds_no_matches(self, bundle):
        assert Remp().propagate_only(bundle.kb1, bundle.kb2, set()) == set()

"""Tests for question benefit and selection (Section VI, Algorithm 3)."""

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.accel.reference import greedy_question_selection as reference_greedy
from repro.core.selection import (
    benefit,
    gain_bands,
    greedy_question_selection,
    initial_gains,
    max_inference_selection,
    max_probability_selection,
)


def _sets(mapping):
    return {q: {p: 0.0 for p in pairs} for q, pairs in mapping.items()}


def _greedy(questions, inferred, priors, mu):
    """Greedy from the questions' gain bands, as the loop hands them over."""
    return greedy_question_selection(
        gain_bands(initial_gains(questions, inferred, priors)), inferred, priors, mu
    )


class TestBenefit:
    def test_single_question(self):
        inferred = _sets({"q1": ["q1", "p1", "p2"]})
        priors = {"q1": 0.5}
        assert benefit(["q1"], inferred, priors) == pytest.approx(1.5)

    def test_disjoint_questions_add(self):
        inferred = _sets({"q1": ["p1"], "q2": ["p2"]})
        priors = {"q1": 0.5, "q2": 0.5}
        assert benefit(["q1", "q2"], inferred, priors) == pytest.approx(1.0)

    def test_overlapping_questions_subadditive(self):
        inferred = _sets({"q1": ["p1"], "q2": ["p1"]})
        priors = {"q1": 0.5, "q2": 0.5}
        together = benefit(["q1", "q2"], inferred, priors)
        assert together == pytest.approx(0.75)  # 1 - 0.5*0.5

    def test_empty(self):
        assert benefit([], {}, {}) == 0.0


@settings(max_examples=40, deadline=None)
@given(
    data=st.dictionaries(
        st.sampled_from(["q1", "q2", "q3", "q4"]),
        st.sets(st.sampled_from(["p1", "p2", "p3", "p4", "p5"]), max_size=5),
        max_size=4,
    ),
    priors=st.dictionaries(
        st.sampled_from(["q1", "q2", "q3", "q4"]),
        st.floats(0.0, 1.0),
        max_size=4,
    ),
)
def test_benefit_monotone_and_submodular(data, priors):
    """Theorem 2: benefit is increasing and submodular."""
    inferred = _sets(data)
    questions = sorted(data)
    for size in range(len(questions)):
        for subset in itertools.combinations(questions, size):
            base = benefit(list(subset), inferred, priors)
            for extra in questions:
                if extra in subset:
                    continue
                grown = benefit(list(subset) + [extra], inferred, priors)
                assert grown >= base - 1e-9  # increasing
                # submodularity: gain shrinks as the set grows
                for extra2 in questions:
                    if extra2 in subset or extra2 == extra:
                        continue
                    with_two = benefit(list(subset) + [extra, extra2], inferred, priors)
                    with_second = benefit(list(subset) + [extra2], inferred, priors)
                    lhs = with_two - with_second
                    rhs = grown - base
                    assert lhs <= rhs + 1e-9


class TestGreedySelection:
    def test_picks_highest_benefit_first(self):
        inferred = _sets({"q1": ["q1", "p1", "p2", "p3"], "q2": ["q2"]})
        priors = {"q1": 0.9, "q2": 0.9}
        selected = _greedy(["q1", "q2"], inferred, priors, mu=1)
        assert selected == ["q1"]

    def test_prefers_scattered_questions(self):
        """Two questions covering the same pairs: pick one, then diversify."""
        inferred = _sets({
            "q1": ["q1", "p1", "p2"],
            "q2": ["q2", "p1", "p2"],
            "q3": ["q3", "p9"],
        })
        priors = {"q1": 0.9, "q2": 0.85, "q3": 0.6}
        selected = _greedy(["q1", "q2", "q3"], inferred, priors, mu=2)
        assert selected[0] == "q1"
        assert selected[1] == "q3"  # diversification beats overlap

    def test_respects_mu(self):
        inferred = _sets({f"q{i}": [f"q{i}"] for i in range(10)})
        priors = {f"q{i}": 0.5 for i in range(10)}
        assert len(_greedy(list(priors), inferred, priors, mu=3)) == 3

    def test_skips_zero_prior_questions(self):
        inferred = _sets({"q1": ["q1", "p1"]})
        priors = {"q1": 0.0}
        assert _greedy(["q1"], inferred, priors, mu=5) == []

    def test_mu_must_be_positive(self):
        with pytest.raises(ValueError):
            greedy_question_selection({}, {}, {}, mu=0)

    @settings(max_examples=30, deadline=None)
    @given(
        data=st.dictionaries(
            st.sampled_from([f"q{i}" for i in range(6)]),
            st.sets(st.sampled_from([f"p{i}" for i in range(8)]), max_size=8),
            min_size=1,
            max_size=6,
        ),
        seed=st.integers(0, 100),
        mu=st.integers(1, 4),
    )
    def test_greedy_matches_exhaustive_to_1_minus_1_over_e(self, data, seed, mu):
        """The lazy greedy result is within (1-1/e) of the optimum."""
        import random

        rng = random.Random(seed)
        inferred = _sets(data)
        priors = {q: rng.uniform(0.1, 1.0) for q in data}
        questions = sorted(data)
        greedy = _greedy(questions, inferred, priors, mu)
        greedy_value = benefit(greedy, inferred, priors)
        best = 0.0
        for subset in itertools.combinations(questions, min(mu, len(questions))):
            best = max(best, benefit(list(subset), inferred, priors))
        assert greedy_value >= (1 - 1 / 2.718281828) * best - 1e-9


@st.composite
def _tied_selection_inputs(draw):
    """Candidates whose (prior, set size) keys repeat and whose gains tie.

    Few priors and sizes up to 10 make keys repeat and give exact ties
    across keys (0.25 x 4 and 0.5 x 2 both sum to 1.0), while 0.1
    summed ten times lands just below 1.0, where ``prior * n`` would
    not.  Some candidates have no prior or no inferred set.
    """
    count = draw(st.integers(min_value=1, max_value=10))
    questions = [f"q{i}" for i in range(count)]
    pool = [f"p{i}" for i in range(12)] + questions
    inferred, priors = {}, {}
    for question in questions:
        if draw(st.integers(0, 9)):
            size = draw(st.sampled_from([0, 1, 2, 4, 10]))
            members = draw(st.permutations(pool))[:size]
            inferred[question] = {pair: 0.0 for pair in members}
        if draw(st.integers(0, 9)):
            priors[question] = draw(st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.5, 1.0]))
    return questions, inferred, priors


@settings(max_examples=150, deadline=None)
@given(_tied_selection_inputs())
@example(
    (
        ["q0", "q1"],
        {"q0": {f"p{i}": 0.0 for i in range(10)}, "q1": {f"p{i}": 0.0 for i in range(4)}},
        {"q0": 0.1, "q1": 0.25},
    )
)
# After q0, q2's bound 2.0 goes stale at 1.0: the heap empties, the band
# {q3} (1.5) enters, and q2 goes back at exactly the gain of the band
# {q1} not yet admitted; q1 < q2 must then be picked first.
@example(
    (
        ["q0", "q1", "q2", "q3"],
        {
            "q0": {f"p{i}": 0.0 for i in range(4)},
            "q1": {"p4": 0.0, "p5": 0.0},
            "q2": {f"p{i}": 0.0 for i in range(4)},
            "q3": {"p6": 0.0, "p7": 0.0, "p8": 0.0},
        },
        {"q0": 0.5, "q1": 0.5, "q2": 0.5, "q3": 0.5},
    )
)
# Popping q1 empties the heap before the last band {q2} (1.5) enters,
# and q1's stale bound must be tested against it.
@example(
    (
        ["q0", "q1", "q2"],
        {
            "q0": {f"p{i}": 0.0 for i in range(4)},
            "q1": {f"p{i}": 0.0 for i in range(4)},
            "q2": {"p4": 0.0, "p5": 0.0, "p6": 0.0},
        },
        {"q0": 0.5, "q1": 0.5, "q2": 0.5},
    )
)
def test_greedy_matches_reference_greedy(inputs):
    """Greedy from the gain bands picks the reference greedy's batch.

    The reference pushes every candidate onto one heap; greedy admits a
    band only once the heap's best bound falls to the band's gain.
    Reversing the bands' order changes nothing: the heap entries are
    totally ordered.
    """
    questions, inferred, priors = inputs
    bands = gain_bands(initial_gains(questions, inferred, priors))
    reversed_bands = {gain: set(bands[gain]) for gain in reversed(bands)}
    for mu in range(1, len(questions) + 3):
        expected = reference_greedy(bands, inferred, priors, mu)
        assert greedy_question_selection(bands, inferred, priors, mu) == expected
        assert greedy_question_selection(reversed_bands, inferred, priors, mu) == expected


class TestHeuristics:
    def test_maxinf_picks_largest_sets(self):
        inferred = _sets({"q1": ["a"], "q2": ["a", "b", "c"], "q3": ["a", "b"]})
        assert max_inference_selection(["q1", "q2", "q3"], inferred, 2) == ["q2", "q3"]

    def test_maxpr_picks_highest_priors(self):
        priors = {"q1": 0.2, "q2": 0.9, "q3": 0.5}
        assert max_probability_selection(["q1", "q2", "q3"], priors, 2) == ["q2", "q3"]

    def test_deterministic_tie_break(self):
        priors = {"qb": 0.5, "qa": 0.5}
        assert max_probability_selection(["qb", "qa"], priors, 1) == ["qa"]

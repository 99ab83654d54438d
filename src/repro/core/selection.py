"""Multiple questions selection — Section VI, Algorithm 3.

``benefit(Q)`` (Eq. 16) is the expected number of pairs resolvable as
matches once the questions in ``Q`` are labeled: a pair ``p`` is inferred
if at least one labeled-as-match question infers it, so
``Pr[p ∈ inferred(H) | Q] = 1 − Π_{q: p∈inferred(q)} (1 − Pr[m_q])``.
The function is increasing and submodular (Theorem 2), so lazy greedy
selection gives a (1 − 1/e) approximation.

Greedy takes the candidates grouped into bands of equal initial gain
(:func:`gain_bands`), which :class:`repro.core.pipeline.LoopState` keeps
across loops, and pushes a band onto its heap only when the selection
reaches the band's gain, not every askable question each loop.

The MaxInf and MaxPr heuristics from the Figure 5 ablation are also
provided.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Collection, Iterable, Mapping

Pair = tuple[str, str]
InferredSets = Mapping[Pair, Mapping[Pair, float]]
GainBands = Mapping[float, Collection[Pair]]


def benefit(
    questions: list[Pair],
    inferred: InferredSets,
    priors: Mapping[Pair, float],
) -> float:
    """Eq. 16: expected number of inferred matches for a question set."""
    miss: dict[Pair, float] = {}
    for question in questions:
        prior = priors.get(question, 0.0)
        for pair in inferred.get(question, ()):
            miss[pair] = miss.get(pair, 1.0) * (1.0 - prior)
    return sum(1.0 - m for m in miss.values())


def initial_gains(
    questions: Iterable[Pair],
    inferred: InferredSets,
    priors: Mapping[Pair, float],
) -> dict[Pair, float]:
    """Each question's marginal gain before the first pick, by question.

    With nothing selected yet, a question's gain is its prior summed
    once per inferred pair, so the sum is computed once per distinct
    (prior, set size).  It stays a repeated sum: ``prior * n`` can differ
    in the last bit and reorder near-ties.
    """
    memo: dict[tuple[float, int], float] = {}
    gains: dict[Pair, float] = {}
    for question in questions:
        key = (priors.get(question, 0.0), len(inferred.get(question, ())))
        gain = memo.get(key)
        if gain is None:
            gain = memo[key] = sum(itertools.repeat(*key))
        gains[question] = gain
    return gains


def gain_bands(gains: Mapping[Pair, float]) -> dict[float, set[Pair]]:
    """Group questions by their exact initial gain: greedy's input."""
    bands: dict[float, set[Pair]] = {}
    for question, gain in gains.items():
        bands.setdefault(gain, set()).add(question)
    return bands


def greedy_question_selection(
    bands: GainBands,
    inferred: InferredSets,
    priors: Mapping[Pair, float],
    mu: int,
) -> list[Pair]:
    """Algorithm 3: lazy greedy maximization of the benefit function.

    ``bands`` maps each initial gain (:func:`initial_gains`) to the
    candidate questions that have exactly that gain (:func:`gain_bands`).
    A max-heap holds stale upper bounds on each question's marginal gain;
    submodularity guarantees a recomputed gain that still tops the heap
    is exact, so most candidates are never re-evaluated.  A band enters
    the heap only while the heap is empty or the band's gain is at least
    the heap's best bound, so every pop, tie and stale re-push sees the
    same heap top as one heap of all candidates would, and a band the
    selection never reaches is never pushed.  The heap entries ``(-gain,
    question)`` are totally ordered, so the batch does not depend on the
    order of ``bands`` or of a band.

    Selection stops at ``mu`` questions, when the candidates run out, or
    at the first popped question whose recomputed gain is not positive.
    That last stop does not mean no candidate has positive gain: the
    popped question's gain is zero once the picks resolve its whole
    inferred set with probability 1 (picks with prior 1 that cover it,
    say), while a question with a lower bound may still infer pairs no
    pick covers.  A batch can therefore hold fewer than ``mu`` questions
    although more would add benefit.
    """
    if mu < 1:
        raise ValueError("mu must be positive")
    # resolved_prob[p] = Pr[p ∈ inferred(H) | Q] for the selected Q so far.
    resolved_prob: dict[Pair, float] = {}

    def marginal_gain(question: Pair) -> float:
        prior = priors.get(question, 0.0)
        if prior <= 0.0:
            return 0.0
        return sum(
            (1.0 - resolved_prob.get(pair, 0.0)) * prior
            for pair in inferred.get(question, ())
        )

    order = sorted((gain for gain in bands if gain > 0.0), reverse=True)
    heap: list[tuple[float, Pair]] = []
    admitted = 0

    def admit() -> None:
        """Push every band whose gain reaches the heap's best bound."""
        nonlocal admitted
        while admitted < len(order) and (not heap or order[admitted] >= -heap[0][0]):
            gain = order[admitted]
            for question in bands[gain]:
                heapq.heappush(heap, (-gain, question))
            admitted += 1

    selected: list[Pair] = []
    chosen: set[Pair] = set()
    while len(selected) < mu:
        admit()
        if not heap:
            break
        neg_gain, question = heapq.heappop(heap)
        if question in chosen:
            continue
        gain = marginal_gain(question)
        if gain <= 0.0:
            break
        admit()
        if heap and gain < -heap[0][0] - 1e-12:
            heapq.heappush(heap, (-gain, question))  # stale bound; retry later
            continue
        selected.append(question)
        chosen.add(question)
        prior = priors.get(question, 0.0)
        for pair in inferred.get(question, ()):
            previous = resolved_prob.get(pair, 0.0)
            resolved_prob[pair] = previous + (1.0 - previous) * prior
    return selected


def max_inference_selection(
    candidates: Iterable[Pair],
    inferred: InferredSets,
    mu: int,
) -> list[Pair]:
    """MaxInf baseline: the µ questions with the largest inferred sets."""
    ranked = sorted(candidates, key=lambda q: (-len(inferred.get(q, ())), q))
    return ranked[:mu]


def max_probability_selection(
    candidates: Iterable[Pair],
    priors: Mapping[Pair, float],
    mu: int,
) -> list[Pair]:
    """MaxPr baseline: the µ questions with the highest prior."""
    ranked = sorted(candidates, key=lambda q: (-priors.get(q, 0.0), q))
    return ranked[:mu]

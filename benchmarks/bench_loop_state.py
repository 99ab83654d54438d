"""Micro-benchmark for the distant-propagation hot spot.

``LoopState.propagate`` used to recompute ``unresolved()`` — a set
difference over every retained pair — inside the inner distant-propagation
loop, making the phase O(labels × inferred × retained).  The loop state
now maintains the unresolved set incrementally, so the membership test is
O(1).  The two benchmarks below run the exact inner loop both ways on the
same snapshot; the ``incremental`` variant is the shipped code path.
"""

from repro.core import Remp
from repro.core.pipeline import LoopState, parse_state_doc
from repro.datasets import load_dataset

SCALE = 0.6


def _labeled_loop_state() -> tuple[LoopState, dict, dict]:
    """A loop state with half the gold matches labeled and inferred sets built.

    The snapshot is taken *before* propagation, so each benchmark round
    restores to a state where every inferred resolution is still pending.
    """
    bundle = load_dataset("iimb", seed=0, scale=SCALE)
    remp = Remp()
    state = remp.prepare(bundle.kb1, bundle.kb2)
    loop_state = remp._make_loop_state(state)
    for pair in sorted(bundle.gold_matches)[::2]:
        if pair in state.retained:
            loop_state.labeled_matches.add(pair)
    snapshot = loop_state.snapshot()
    loop_state.propagate(bundle.kb1, bundle.kb2)
    return loop_state, snapshot, dict(loop_state._inferred_sets)


def _distant_naive(loop_state: LoopState) -> int:
    """The pre-fix inner loop: a full set difference per membership test."""
    resolved = 0
    for match in sorted(loop_state.labeled_matches & loop_state.state.retained):
        for pair in loop_state._inferred_sets.get(match, ()):
            unresolved = (
                loop_state.state.retained
                - loop_state.resolved_matches
                - loop_state.resolved_non_matches
            )
            if pair in unresolved:
                loop_state.resolve_match(pair, labeled=False)
                resolved += 1
    return resolved


def _distant_incremental(loop_state: LoopState) -> int:
    """The shipped inner loop: O(1) membership in the maintained set."""
    resolved = 0
    for match in sorted(loop_state.labeled_matches & loop_state.state.retained):
        for pair in loop_state._inferred_sets.get(match, ()):
            if pair in loop_state._unresolved:
                loop_state.resolve_match(pair, labeled=False)
                resolved += 1
    return resolved


def _bench(benchmark, body):
    loop_state, snapshot, inferred = _labeled_loop_state()

    def setup():
        loop_state.restore(*parse_state_doc(snapshot))
        loop_state._inferred_sets = inferred
        return (loop_state,), {}

    return benchmark.pedantic(body, setup=setup, rounds=3, iterations=1)


def test_distant_propagation_incremental(benchmark):
    assert _bench(benchmark, _distant_incremental) > 0


def test_distant_propagation_naive(benchmark):
    assert _bench(benchmark, _distant_naive) > 0


def test_both_variants_resolve_identically():
    loop_state, snapshot, inferred = _labeled_loop_state()
    _distant_incremental(loop_state)
    fast = set(loop_state.inferred_matches)
    loop_state.restore(*parse_state_doc(snapshot))
    loop_state._inferred_sets = inferred
    _distant_naive(loop_state)
    assert set(loop_state.inferred_matches) == fast

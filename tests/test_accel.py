"""The accel equivalence oracle: kernels vs the paper-faithful references.

Every kernel in :mod:`repro.accel` is the only product path for its
stage and claims *byte-identical* results to the reference it replaced,
which lives on in :mod:`repro.accel.reference`.  This suite pins that
claim four ways:

* property-based (hypothesis) equivalence of the dominance kernels and
  the interned simL scorer against the reference functions, across
  seeds, scales, attribute counts, degenerate blocks of size <= k,
  duplicate vectors and empty-token labels;
* serialized-document identity of a full ``Remp.prepare`` against the
  same prepare under :func:`repro.accel.reference.reference_kernels`;
* full-run identity (including per-loop question batches, which are
  sensitive to inferred-set iteration order) through the incremental
  propagator against the full-rebuild reference, and resumption from
  every checkpoint of a run;
* per-round identity: after every incremental propagate, the inferred
  sets equal a from-scratch reference rebuild of the same state, the
  kept propagation inputs equal those rebuilt from the resolution sets,
  the Eq. 12 restricted sets, the askable questions' initial gains and
  their gain bands kept across loops equal a from-scratch filter, sum
  and grouping, each label's kept shape counts equal a recount of its
  observations, and greedy picks the reference greedy's batch.
"""

import functools
import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.accel.dominance import (
    _MIN_NUMPY_BLOCK,
    PackedVectors,
    _any_dominator_python,
    any_strict_dominator,
)
from repro.accel.candidates import score_candidates
from repro.accel.literals import LiteralScorer
from repro.accel.marginals import _marginals_dp
from repro.accel.propagation import IncrementalPropagator
from repro.accel.reference import (
    RebuildLoopState,
    RebuildRemp,
    dominance_counts,
    er_graph_groups,
    exact_marginal_map,
    reference_kernels,
    signatures,
)
from repro.core import Remp, RempConfig
from repro.core.attributes import AttributeMatch
from repro.core.candidates import _token_index
from repro.core.consistency import shape_counts
from repro.core.hybrid import _HybridLoopState
from repro.core.pipeline import LoopState, parse_state_doc
from repro.core.truth import TruthInferenceResult
from repro.core.er_graph import build_er_graph
from repro.core.isolated import build_signatures
from repro.core.propagation import _marginals_exact, _odds
from repro.core.selection import gain_bands
from repro.kb.model import KnowledgeBase
from repro.core.pruning import partial_order_pruning, pruning_error_rate
from repro.core.vectors import VectorIndex
from repro.crowd import CrowdPlatform
from repro.crowd.worker import SimulatedWorker
from repro.datasets import clustered_bundle, load_dataset
from repro.obs.runtime import RunScope
from repro.store.serialize import prepared_state_to_doc, result_to_doc
from repro.text.literal import literal_set_similarity

# ----------------------------------------------------------------------
# Kernel-level properties
# ----------------------------------------------------------------------
#: Tied component values dominate real blocks; a coarse grid maximizes
#: duplicate vectors and equal-sum prefixes (the tricky kernel paths).
_GRID = [0.0, 0.25, 0.5, 0.75, 1.0]
_component = st.sampled_from(_GRID)


@st.composite
def _blocks(draw):
    width = draw(st.integers(min_value=0, max_value=5))
    size = draw(st.integers(min_value=0, max_value=64))
    vector = st.tuples(*[_component] * width)
    return draw(st.lists(vector, min_size=size, max_size=size))


def _seeded_block() -> list[tuple]:
    """A fixed block wide enough for ``_counts_numpy``'s sort prefilter.

    1,200 5-wide vectors on the grid; after merging duplicates the
    1,003 distinct rows exceed the single-broadcast budget, so the
    chunked sum-sorted path runs.
    """
    rng = random.Random(0)
    return [tuple(rng.choice(_GRID) for _ in range(5)) for _ in range(1200)]


@settings(max_examples=60, deadline=None)
@given(_blocks(), st.sampled_from([None, 4]))
@example(_seeded_block(), 4)
def test_packed_counts_match_reference(block, cap):
    vectors = {(f"L{i}", f"R{i}"): v for i, v in enumerate(block)}
    packed = PackedVectors(vectors)
    assert packed.counts(list(vectors), cap) == dominance_counts(block, cap)


@settings(max_examples=40, deadline=None)
@given(_blocks(), _blocks())
def test_any_dominator_matches_reference(targets, candidates):
    width = len(targets[0]) if targets else 0
    candidates = [c[:width] + (0.0,) * (width - len(c)) for c in candidates]
    assert any_strict_dominator(targets, candidates) == _any_dominator_python(
        targets, candidates
    )


#: Literal pool mixing strings, numeric strings, numbers, bools and
#: labels that normalize to an empty token set ("!!!", "").
_literal = st.sampled_from(
    [
        "The Cradle Will Rock",
        "cradle rock film",
        "rock",
        "1999",
        " 1999 ",
        1999,
        1999.0,
        2024,
        3.14,
        "3.14",
        True,
        False,
        "",
        "!!!",
        "Ω λ",
        0,
        "nan",
    ]
)
_values = st.lists(_literal, min_size=0, max_size=4).map(tuple)


@settings(max_examples=100, deadline=None)
@given(_values, _values, st.sampled_from([0.5, 0.9, 1.0]))
def test_literal_scorer_matches_reference(values_a, values_b, threshold):
    scorer = LiteralScorer(threshold)
    expected = literal_set_similarity(values_a, values_b, threshold)
    assert scorer.set_similarity(values_a, values_b) == expected
    # Memoized second call must return the identical float.
    assert scorer.set_similarity(values_a, values_b) == expected


# ----------------------------------------------------------------------
# Index / pruning equivalence (product vs reference loops)
# ----------------------------------------------------------------------
@st.composite
def _vector_indexes(draw):
    width = draw(st.integers(min_value=1, max_value=4))
    n_left = draw(st.integers(min_value=1, max_value=8))
    n_right = draw(st.integers(min_value=1, max_value=8))
    vector = st.tuples(*[_component] * width)
    vectors = {}
    for i in range(n_left):
        for j in range(n_right):
            if draw(st.booleans()):
                vectors[(f"L{i}", f"R{j}")] = draw(vector)
    return vectors


@st.composite
def _hub_indexes(draw):
    """A random index plus one left and one right hub of packed size.

    ``HUB`` has at least ``_MIN_NUMPY_BLOCK`` partners, so the KB1-side
    pass packs its block; each ``HL*`` entity has a single candidate
    that survives that pass, so the KB2-side pass packs ``RHUB``'s block.
    """
    vectors = draw(_vector_indexes())
    width = len(next(iter(vectors.values()))) if vectors else 1
    vector = st.tuples(*[_component] * width)
    left_size = draw(st.integers(min_value=_MIN_NUMPY_BLOCK, max_value=40))
    right_size = draw(st.integers(min_value=_MIN_NUMPY_BLOCK, max_value=40))
    for j in range(left_size):
        vectors[("HUB", f"H{j}")] = draw(vector)
    for i in range(right_size):
        vectors[(f"HL{i}", "RHUB")] = draw(vector)
    return vectors


@settings(max_examples=40, deadline=None)
@given(_hub_indexes(), st.integers(min_value=1, max_value=5))
def test_pruning_and_min_rank_equivalence(vectors, k):
    """Packed pruning equals the reference loop; packed counts equal Eq. 2."""
    pairs = set(vectors)
    index = VectorIndex(dict(vectors))
    retained = partial_order_pruning(pairs, index, k)
    with reference_kernels():
        reference = partial_order_pruning(pairs, VectorIndex(dict(vectors)), k)
    assert retained == reference
    packed = PackedVectors(index.vectors)
    left_hub = index.by_left["HUB"]
    assert packed.counts(left_hub) == [index.min_rank_left(p) for p in left_hub]
    right_hub = index.by_right["RHUB"]
    assert packed.counts(right_hub) == [index.min_rank_right(p) for p in right_hub]


@settings(max_examples=30, deadline=None)
@given(_vector_indexes(), st.data())
def test_pruning_error_rate_equivalence(vectors, data):
    pairs = sorted(vectors)
    gold = set(
        data.draw(st.lists(st.sampled_from(pairs), unique=True))
    ) if pairs else set()
    rate = pruning_error_rate(set(pairs), VectorIndex(dict(vectors)), gold)
    with reference_kernels():
        reference = pruning_error_rate(set(pairs), VectorIndex(dict(vectors)), gold)
    assert rate == reference


# ----------------------------------------------------------------------
# Pipeline-level byte identity
# ----------------------------------------------------------------------
def _bundle():
    return clustered_bundle(
        num_clusters=4,
        movies_per_cluster=3,
        seed=0,
        label_noise=0.5,
        critics_per_cluster=1,
    )


def _dump(doc) -> str:
    return json.dumps(doc, sort_keys=True)


def test_prepare_byte_identity():
    bundle = _bundle()
    doc = prepared_state_to_doc(Remp().prepare(bundle.kb1, bundle.kb2))
    with reference_kernels():
        reference = prepared_state_to_doc(Remp().prepare(bundle.kb1, bundle.kb2))
    assert _dump(doc) == _dump(reference)


def test_full_run_byte_identity():
    """Loops, question batches and all resolution sets must coincide."""
    bundle = _bundle()

    def run(remp):
        platform = CrowdPlatform.with_simulated_workers(
            bundle.gold_matches, error_rate=0.1, seed=3
        )
        return remp.run(bundle.kb1, bundle.kb2, platform)

    result = run(Remp())
    with reference_kernels():
        reference = run(RebuildRemp())
    assert _dump(result_to_doc(result)) == _dump(result_to_doc(reference))
    assert [r.questions for r in result.history] == [
        r.questions for r in reference.history
    ]


def test_checkpoint_restore_resets_propagator():
    """Resuming from *every* checkpoint reproduces the uninterrupted run.

    A restored loop state re-primes the incremental propagator cold:
    resolutions restored from a snapshot arrive without the propagator
    having seen the intermediate diffs.  Each resume must still finish
    with the uninterrupted result document and per-loop batches.  The
    evolving world runs 15 loops.
    """
    for bundle in (_bundle(), load_dataset("evolving", seed=0, scale=2)):
        _assert_every_resume_matches(bundle)


def _assert_every_resume_matches(bundle) -> None:
    config = RempConfig()

    def platform():
        return CrowdPlatform.with_simulated_workers(
            bundle.gold_matches, error_rate=0.1, seed=1
        )

    state = Remp(config).prepare(bundle.kb1, bundle.kb2)
    straight = Remp(config).run(bundle.kb1, bundle.kb2, platform(), state=state)
    # Collect checkpoints from a throwaway loop drive, then restart from
    # each on a fresh platform that replays its answer log (the
    # documented resume protocol).
    checkpoints = []
    Remp(config).run_loop_phase(state, platform(), on_checkpoint=checkpoints.append)
    assert len(checkpoints) == straight.num_loops >= 2
    for checkpoint in checkpoints:
        resumed_platform = platform()
        resumed_platform.load_answer_log(checkpoint.answer_log)
        resumed = Remp(config).run(
            bundle.kb1,
            bundle.kb2,
            resumed_platform,
            state=state,
            resume_from=checkpoint,
        )
        assert _dump(result_to_doc(resumed)) == _dump(result_to_doc(straight))
        assert [r.questions for r in resumed.history] == [
            r.questions for r in straight.history
        ]


class _CheckedLoopState(LoopState):
    """Checks every incremental propagate against a from-scratch rebuild.

    Each propagate snapshots the state first; afterwards a fresh
    :class:`RebuildLoopState` restored from that snapshot propagates
    through the full rebuild (``build_probabilistic_graph`` +
    ``dijkstra_inferred_sets``) with the reference kernels.  Both must
    give the same inferred sets, in content and in per-source iteration
    order.  Before and after each propagate, the kept effective priors
    and source set must equal those rebuilt from the resolution sets.
    After each propagate, each label's shape counts kept by the
    propagator must equal a recount of its observations.  The
    restricted sets this state keeps across loops must equal
    :class:`RebuildLoopState`'s from-scratch filter of those inferred
    sets, in content and in per-set order, and the askable questions'
    kept initial gains its from-scratch ones, whenever they are asked
    for.  Then, and after every restore, the kept gain bands must equal
    the askable gains regrouped.  Each round's consistency records are
    kept so the test can tell which re-estimation cases the run went
    through, and the kept sets that lost pairs (``pruned``) and the sets
    rebuilt from a map new this round (``rebuilt``) are counted, so a
    test can tell which restricted-set paths it went through.
    """

    def __init__(self, state, config):
        super().__init__(state, config)
        self.rounds: list[dict] = []
        self.restricted_rounds = 0
        self.pruned = 0
        self.rebuilt = 0

    def propagate(self, kb1, kb2):
        before = self.snapshot()
        _assert_kept_inputs(self)
        super().propagate(kb1, kb2)
        _assert_kept_inputs(self)
        reference = RebuildLoopState(self.state, self.config)
        reference.restore(*parse_state_doc(before))
        with reference_kernels():
            reference.propagate(kb1, kb2)
        assert _ordered(self._inferred_sets) == _ordered(reference._inferred_sets)
        _assert_kept_shapes(self._propagator)
        self.rounds.append(dict(self._propagator._consistencies))

    def restore(self, priors, sets):
        super().restore(priors, sets)
        _assert_kept_bands(self)

    def restricted_inferred_sets(self):
        fresh = set(self._fresh)
        sizes = {question: len(kept) for question, kept in self._restricted.items()}
        restricted = super().restricted_inferred_sets()
        expected = RebuildLoopState.restricted_inferred_sets(self)
        assert _ordered(restricted) == _ordered(expected)
        self.restricted_rounds += 1
        for question, kept in restricted.items():
            if question not in sizes:
                continue
            if question in fresh:
                self.rebuilt += 1
            elif len(kept) < sizes[question]:
                self.pruned += 1
        return restricted

    def askable_questions(self, restricted):
        askable = super().askable_questions(restricted)
        assert askable == self._askable_gains(restricted, restricted)
        _assert_kept_bands(self)
        return askable


def _assert_kept_bands(loop_state: LoopState) -> None:
    """The kept gain bands equal the askable gains regrouped."""
    assert loop_state.askable_bands == gain_bands(loop_state._askable)


def _assert_kept_shapes(propagator: IncrementalPropagator) -> None:
    """Each label's kept shape counts equal a recount of its observations.

    Compared as plain dicts: ``Counter`` equality would take a shape
    left at count zero for an absent one.
    """
    for label, observations in propagator._observations.items():
        assert dict(propagator._shapes[label]) == dict(shape_counts(observations.values()))


def _assert_kept_inputs(loop_state: LoopState) -> None:
    """The kept effective priors and sources equal a rebuild from the state."""
    if loop_state._effective is None:
        return
    rebuilt = LoopState(loop_state.state, loop_state.config)
    rebuilt.restore(*parse_state_doc(loop_state.snapshot()))
    rebuilt._prime()
    assert loop_state._effective == rebuilt._effective
    assert loop_state._sources == rebuilt._sources


class _CheckedRemp(Remp):
    """Also checks every batch against the reference greedy's."""

    def _make_loop_state(self, state):
        return _CheckedLoopState(state, self.config)

    def _select(self, strategy, candidates, loop_state, remaining_budget, restricted):
        batch = super()._select(strategy, candidates, loop_state, remaining_budget, restricted)
        with reference_kernels():
            expected = super()._select(
                strategy, candidates, loop_state, remaining_budget, restricted
            )
        assert batch == expected
        return batch


def _ordered(inferred: dict) -> dict:
    return {source: list(distances.items()) for source, distances in inferred.items()}


def _round_cases(rounds: list[dict]) -> set[str]:
    """Which re-estimation cases consecutive rounds went through.

    ``"support-only"``: some label's consistency record changed but no
    changed label's γ moved, so the propagator dirtied no group for it.
    ``"gamma-moved"``: some label's γ changed.
    """
    cases = set()
    for previous, current in zip(rounds, rounds[1:]):
        changed = [label for label in current if current[label] != previous.get(label)]
        moved = [
            label
            for label in changed
            if label not in previous or current[label].gamma() != previous[label].gamma()
        ]
        if moved:
            cases.add("gamma-moved")
        elif changed:
            cases.add("support-only")
    return cases


@pytest.mark.parametrize(
    "world, case",
    [
        # γ sits at the ε ceiling while support grows.
        ("bundle", "support-only"),
        # Re-estimation moves γ for some labels.
        ("dbpedia_yago", "gamma-moved"),
    ],
)
def test_incremental_propagate_matches_rebuild_every_round(world, case):
    bundle = _bundle() if world == "bundle" else load_dataset(world, seed=0, scale=0.5)
    platform = CrowdPlatform.with_simulated_workers(
        bundle.gold_matches, error_rate=0.1, seed=3
    )
    remp = _CheckedRemp()
    loop_state, _, _ = remp.run_loop_phase(remp.prepare(bundle.kb1, bundle.kb2), platform)
    rounds = loop_state.rounds
    assert len(rounds) >= 3
    assert loop_state.restricted_rounds == len(rounds) - 1
    assert case in _round_cases(rounds), f"{world} never hit the {case} case"


@pytest.mark.parametrize(
    "world, scale, path",
    [
        # Resolutions shrink sets whose inferred maps propagation kept.
        ("evolving", 2, "pruned"),
        # Propagation replaces maps of questions that stay unresolved.
        ("iimb", 0.4, "rebuilt"),
    ],
)
def test_kept_restricted_sets_match_rebuild_every_round(world, scale, path):
    bundle = load_dataset(world, seed=0, scale=scale)
    platform = CrowdPlatform.with_simulated_workers(
        bundle.gold_matches, error_rate=0.1, seed=3
    )
    remp = _CheckedRemp()
    loop_state, _, _ = remp.run_loop_phase(remp.prepare(bundle.kb1, bundle.kb2), platform)
    assert getattr(loop_state, path) > 0, f"{world} never took the {path} path"


class _CheckedHybridLoopState(_CheckedLoopState, _HybridLoopState):
    """The hybrid loop state's monotone inference under the same checks."""


@functools.lru_cache(maxsize=1)
def _small_state():
    bundle = _bundle()
    return Remp().prepare(bundle.kb1, bundle.kb2)


#: 0.99 and 0.01 are the resolved pairs' effective priors: a pair moved
#: there and then resolved keeps its effective prior, so nothing but the
#: resolution itself tells propagation that it changed.
_prior = st.sampled_from([0.0, 0.01, 0.3, 0.5, 0.7, 0.99])
_index = st.integers(min_value=0, max_value=10_000)
_loop_op = st.one_of(
    st.tuples(st.just("match"), _index, st.booleans()),
    st.tuples(st.just("non_match"), _index),
    st.tuples(
        st.just("truth"),
        st.lists(_index, max_size=2),
        st.lists(_index, max_size=2),
        st.dictionaries(_index, _prior, max_size=3),
    ),
    st.tuples(st.just("restore"), _index),
    st.tuples(st.just("propagate")),
    st.tuples(st.just("select")),
)


@settings(max_examples=60, deadline=None)
@given(
    hybrid=st.booleans(),
    ops=st.lists(_loop_op, min_size=1, max_size=12),
)
def test_kept_loop_state_matches_rebuild_under_random_changes(hybrid, ops):
    """Random resolutions, truth rounds and restores keep the kept state exact.

    Every propagate checks the inferred sets against a from-scratch
    rebuild and the kept effective priors and sources against those
    rebuilt from the resolution sets, and every selection checks the
    restricted sets and the askable gains (:class:`_CheckedLoopState`).
    Between two propagates or selections, resolutions, prior moves and
    restores pile up, so one call sees several rounds of changes at once.
    """
    state = _small_state()
    pairs = sorted(state.retained)
    checked = _CheckedHybridLoopState if hybrid else _CheckedLoopState
    loop_state = checked(state, RempConfig())
    snapshots = [loop_state.snapshot()]

    def pair(index):
        return pairs[index % len(pairs)]

    def select():
        loop_state.askable_questions(loop_state.restricted_inferred_sets())

    for op in ops:
        kind = op[0]
        if kind == "match":
            loop_state.resolve_match(pair(op[1]), labeled=op[2])
        elif kind == "non_match":
            loop_state.resolve_non_match(pair(op[1]))
        elif kind == "truth":
            loop_state.apply_truth(
                TruthInferenceResult(
                    matches={pair(i) for i in op[1]},
                    non_matches={pair(i) for i in op[2]},
                    unresolved={pair(i): prior for i, prior in op[3].items()},
                )
            )
        elif kind == "restore":
            loop_state.restore(*parse_state_doc(snapshots[op[1] % len(snapshots)]))
        elif kind == "propagate":
            loop_state.propagate(state.kb1, state.kb2)
        else:
            select()
        snapshots.append(loop_state.snapshot())
    loop_state.propagate(state.kb1, state.kb2)
    select()


def test_isolated_ask_moves_kept_effective_priors():
    """An isolated-phase ask that leaves its pair unresolved moves its prior.

    The classifier's asks write the loop's priors through
    ``LoopState.move_priors``, so the effective priors kept since the
    last propagate follow them.  One worker of quality 0.7 moves most
    priors without crossing a truth-inference threshold.
    """
    bundle = load_dataset("dblp_acm", seed=0, scale=0.3)
    remp = Remp()
    state = remp.prepare(bundle.kb1, bundle.kb2)
    loop_state = remp._make_loop_state(state)
    loop_state.propagate(state.kb1, state.kb2)
    platform = CrowdPlatform(
        [SimulatedWorker("w0", error_rate=0.3, seed=0)],
        bundle.gold_matches,
        workers_per_question=1,
    )
    remp._classify_isolated(state, loop_state, platform)
    moved = {pair for pair in state.isolated if loop_state.priors[pair] != state.priors[pair]}
    assert moved & loop_state.unresolved()
    _assert_kept_inputs(loop_state)


def test_propagator_work_counters():
    """One work count per update; unchanged inputs add nothing."""
    bundle = _bundle()
    config = RempConfig()
    state = Remp(config).prepare(bundle.kb1, bundle.kb2)
    propagator = IncrementalPropagator(state.graph, state.kb1, state.kb2, config)
    consistencies = propagator.estimate_consistencies(state.candidates.initial_matches)
    sources = set(state.graph.groups)

    def work():
        return (
            scope.metrics.counter("propagation.groups_recomputed"),
            scope.metrics.counter("propagation.dijkstra_runs"),
        )

    priors = dict(state.priors)
    scope = RunScope("work-counters")
    with scope.activate():
        fresh = propagator.update(priors, [], consistencies, sources, sources)
        first = work()
        again = propagator.update(priors, [], consistencies, sources, set())
        second = work()
    groups = sum(len(by_label) for by_label in state.graph.groups.values())
    assert first == (groups, len(sources))
    assert set(fresh) == sources
    assert second == first
    assert again == {}


# ----------------------------------------------------------------------
# Kernel-floor properties: marginals, ER graph, candidates, signatures
# ----------------------------------------------------------------------
def _random_world_pairs(draw, max_side=6, max_pairs=12):
    n_left = draw(st.integers(min_value=1, max_value=max_side))
    n_right = draw(st.integers(min_value=1, max_value=max_side))
    universe = [(f"l{i}", f"r{j}") for i in range(n_left) for j in range(n_right)]
    pairs = draw(
        st.lists(
            st.sampled_from(universe), min_size=1, max_size=max_pairs, unique=True
        )
    )
    return sorted(pairs)


@st.composite
def _marginal_groups(draw):
    pairs = _random_world_pairs(draw)
    # Repeated 0.5s force prior ties; missing entries take the default.
    prior = st.sampled_from([0.1, 0.25, 0.5, 0.5, 0.5, 0.9, 0.99])
    priors = {p: draw(prior) for p in pairs if draw(st.booleans())}
    gamma = draw(st.sampled_from([0.01, 0.5, 1.0, 2.0]))
    return pairs, priors, gamma


@settings(max_examples=80, deadline=None)
@given(_marginal_groups())
def test_marginal_dp_matches_reference(group):
    """The memoized permanent DP is bit-equal to the plain recursion."""
    pairs, priors, gamma = group
    odds = [_odds(priors.get(p, 0.5)) * gamma for p in pairs]
    reference = exact_marginal_map(pairs, odds)
    dp = _marginals_dp(pairs, odds)
    assert list(dp) == list(reference)
    assert all(dp[p].hex() == reference[p].hex() for p in pairs)
    product = _marginals_exact(pairs, priors, gamma)
    with reference_kernels():
        rebound = _marginals_exact(pairs, priors, gamma)
    assert all(product[p].hex() == rebound[p].hex() for p in pairs)


@st.composite
def _relational_worlds(draw):
    size = draw(st.integers(min_value=2, max_value=7))
    relations = ("directed", "acted_in", "cites")
    triple = st.tuples(
        st.integers(min_value=0, max_value=size - 1),
        st.sampled_from(relations),
        st.integers(min_value=0, max_value=size - 1),
    )
    kb1 = KnowledgeBase("hw1")
    kb2 = KnowledgeBase("hw2")
    for i in range(size):
        kb1.add_entity(f"a{i}")
        kb2.add_entity(f"b{i}")
    for s, rel, t in draw(st.lists(triple, max_size=24)):
        kb1.add_relationship_triple(f"a{s}", rel, f"a{t}")
    for s, rel, t in draw(st.lists(triple, max_size=24)):
        kb2.add_relationship_triple(f"b{s}", rel, f"b{t}")
    vertex = st.tuples(
        st.integers(min_value=0, max_value=size - 1),
        st.integers(min_value=0, max_value=size - 1),
    )
    vertices = [
        (f"a{i}", f"b{j}")
        for i, j in draw(st.lists(vertex, min_size=1, max_size=16, unique=True))
    ]
    return kb1, kb2, vertices


@settings(max_examples=60, deadline=None)
@given(_relational_worlds())
def test_er_graph_kernel_matches_reference(world):
    """Adjacency-joined groups replay the reference's dict orders exactly."""
    kb1, kb2, vertices = world
    accel = build_er_graph(kb1, kb2, vertices)
    pure = er_graph_groups(kb1, kb2, vertices)
    assert accel.vertices == set(vertices)
    assert list(accel.groups) == list(pure)
    for vertex, by_label in pure.items():
        assert list(accel.groups[vertex]) == list(by_label)
        for label, members in by_label.items():
            assert accel.groups[vertex][label] == members


@st.composite
def _label_worlds(draw):
    tokens = ("north", "star", "blue", "rock", "film", "x1")
    label = st.lists(
        st.sampled_from(tokens), min_size=1, max_size=3, unique=True
    ).map(" ".join)
    kb1 = KnowledgeBase("lw1")
    kb2 = KnowledgeBase("lw2")
    for i, text in enumerate(draw(st.lists(label, min_size=1, max_size=12))):
        kb1.add_entity(f"p{i}", label=text)
    for j, text in enumerate(draw(st.lists(label, min_size=1, max_size=12))):
        kb2.add_entity(f"q{j}", label=text)
    threshold = draw(st.sampled_from([0.3, 0.5, 1.0]))
    return kb1, kb2, threshold


@settings(max_examples=60, deadline=None)
@given(_label_worlds())
def test_candidate_scoring_kernel_matches_reference(world):
    """The vectorized postings join scores bit-equal Jaccard priors."""
    kb1, kb2, threshold = world
    tokens1, _ = _token_index(kb1)
    tokens2, inverted2 = _token_index(kb2)
    expected: dict[tuple[str, str], float] = {}
    for entity1, tset1 in tokens1.items():
        intersections: dict[str, int] = {}
        for token in tset1:
            for entity2 in inverted2.get(token, ()):
                intersections[entity2] = intersections.get(entity2, 0) + 1
        for entity2, shared in intersections.items():
            sim = shared / (len(tset1) + len(tokens2[entity2]) - shared)
            if sim >= threshold:
                expected[(entity1, entity2)] = sim
    scored = score_candidates(tokens1, tokens2, inverted2, threshold, min_entities=0)
    assert scored is not None
    assert scored.keys() == expected.keys()
    assert all(scored[pair].hex() == expected[pair].hex() for pair in expected)


@st.composite
def _attribute_worlds(draw):
    attrs = ("year", "runtime", "budget", "rating")
    size = draw(st.integers(min_value=1, max_value=6))
    kb1 = KnowledgeBase("aw1")
    kb2 = KnowledgeBase("aw2")
    cell = st.tuples(
        st.integers(min_value=0, max_value=size - 1), st.sampled_from(attrs)
    )
    for i in range(size):
        kb1.add_entity(f"a{i}")
        kb2.add_entity(f"b{i}")
    for i, attr in draw(st.lists(cell, max_size=12)):
        kb1.add_attribute_triple(f"a{i}", attr, 1)
    for i, attr in draw(st.lists(cell, max_size=12)):
        kb2.add_attribute_triple(f"b{i}", attr, 1)
    matches = [
        AttributeMatch(attr, attr, 1.0) for attr in draw(st.sets(st.sampled_from(attrs)))
    ]
    vertex = st.tuples(
        st.integers(min_value=0, max_value=size - 1),
        st.integers(min_value=0, max_value=size - 1),
    )
    retained = [
        (f"a{i}", f"b{j}")
        for i, j in draw(st.lists(vertex, min_size=1, max_size=12, unique=True))
    ]
    return kb1, kb2, retained, matches


@settings(max_examples=60, deadline=None)
@given(_attribute_worlds())
def test_signature_interning_matches_reference(world):
    """Interned signatures equal the per-pair accessor loop's, key order too."""
    kb1, kb2, retained, matches = world
    interned = build_signatures(kb1, kb2, retained, matches)
    reference = signatures(kb1, kb2, retained, matches)
    assert list(interned) == list(reference)
    assert interned == reference
    by_value: dict[frozenset, int] = {}
    for signature in interned.values():
        previous = by_value.setdefault(signature, id(signature))
        assert previous == id(signature), "equal signatures must be one object"


def test_prepare_byte_identity_above_scoring_cutoff():
    """Full-prepare identity on a world large enough to engage the
    vectorized scoring kernel (the small bundle stays below its cutoff)."""
    bundle = clustered_bundle(
        num_clusters=6,
        movies_per_cluster=5,
        seed=0,
        label_noise=0.5,
        critics_per_cluster=2,
    )
    doc = prepared_state_to_doc(Remp().prepare(bundle.kb1, bundle.kb2))
    with reference_kernels():
        reference = prepared_state_to_doc(Remp().prepare(bundle.kb1, bundle.kb2))
    assert _dump(doc) == _dump(reference)

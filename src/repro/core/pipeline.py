"""The end-to-end Remp pipeline (Figure 2's workflow).

``prepare`` runs the offline stages: candidate generation, attribute
matching, similarity vectors, partial-order pruning and ER-graph
construction.  ``run`` executes the human–machine loop: consistency
estimation, probabilistic propagation, multiple questions selection, crowd
labeling and truth inference — iterating until no unresolved pair can be
inferred by relational match propagation — then resolves isolated pairs
with the random-forest classifier.

The loop is resumable.  :class:`LoopState` records what each loop
changes, and :class:`LoopDriver` (the one place the loop is advanced,
billed and checkpointed) hands that change set out as a
:class:`LoopCheckpoint` *delta* after every batch of crowd answers:
:mod:`repro.store` appends each delta as one journal row.
:func:`fold_checkpoints` folds deltas back into one resumable checkpoint,
``run`` accepts such a checkpoint to continue an interrupted run
mid-loop, and its ``on_checkpoint`` callback receives the running fold.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Mapping

from repro.accel.propagation import IncrementalPropagator
from repro.obs import runtime as obs
from repro.core.attributes import AttributeMatch, match_attributes
from repro.core.candidates import CandidateSet, generate_candidates
from repro.core.config import RempConfig
from repro.core.er_graph import ERGraph, build_er_graph
from repro.core.isolated import IsolatedPairClassifier, Signature, build_signatures
from repro.core.pruning import partial_order_pruning
from repro.core.selection import (
    greedy_question_selection,
    initial_gains,
    max_inference_selection,
    max_probability_selection,
)
from repro.core.truth import infer_truths
from repro.core.vectors import VectorIndex, build_similarity_vectors, lead_with_prior
from repro.crowd.platform import CrowdPlatform
from repro.kb.model import KnowledgeBase
from repro.ml import RandomForestClassifier

Pair = tuple[str, str]

#: Effective prior given to already-resolved pairs during propagation.
_RESOLVED_MATCH_PRIOR = 0.99
_RESOLVED_NON_MATCH_PRIOR = 0.01


@dataclass(slots=True)
class PreparedState:
    """Artifacts of the offline stages, reused by the loop and experiments."""

    kb1: KnowledgeBase
    kb2: KnowledgeBase
    candidates: CandidateSet
    attribute_matches: list[AttributeMatch]
    vector_index: VectorIndex
    retained: set[Pair]
    graph: ERGraph
    signatures: dict[Pair, Signature]
    priors: dict[Pair, float]
    isolated: set[Pair]
    #: Content key (KB-pair fingerprint, config hash) of the arena that
    #: holds this state (:mod:`repro.substrate`), or ``None`` when
    #: unattached.  A plain string tuple — never the arena itself — so
    #: states stay picklable and serializable; slices (:meth:`restrict`)
    #: drop it.
    substrate_key: tuple[str, str] | None = None
    #: The retained pairs' entity-closure components, kept once found
    #: (:func:`repro.partition.entity_closure_components`); ``None``
    #: until then.  Slices drop them.
    components: list[frozenset[Pair]] | None = field(default=None, compare=False)

    def restrict(self, vertices: set[Pair], *, isolated: set[Pair] | None = None) -> "PreparedState":
        """A self-contained slice of this state over ``vertices``.

        The KBs, candidate set and attribute matches are shared by
        reference (they are read-only for the loop, and consistency
        estimation deliberately keeps the *global* ``M_in`` so a slice
        sees the same relationship statistics as the whole).  The
        retained set, ER graph, vectors, signatures and priors are cut
        down to ``vertices``.  When ``vertices`` is a union of whole
        weakly-connected components the slice is closed under
        propagation — running the loop on it resolves exactly the pairs
        the monolithic loop could resolve through those components.
        """
        kept = self.retained & vertices
        # Index by the kept pairs (vectors/signatures/priors are total
        # maps over the retained set), so slicing S shards costs one
        # pass over the state rather than S full-dict scans.
        vectors = self.vector_index.vectors
        return PreparedState(
            kb1=self.kb1,
            kb2=self.kb2,
            candidates=self.candidates,
            attribute_matches=self.attribute_matches,
            vector_index=VectorIndex({pair: vectors[pair] for pair in kept}),
            retained=kept,
            graph=self.graph.subgraph(kept),
            signatures={pair: self.signatures[pair] for pair in kept},
            priors={pair: self.priors[pair] for pair in kept},
            isolated=set(isolated) if isolated is not None else self.isolated & kept,
        )


@dataclass(slots=True)
class LoopRecord:
    """Bookkeeping for one human–machine loop."""

    loop_index: int
    questions: list[Pair]
    labeled_matches: int
    labeled_non_matches: int
    unresolved_questions: int
    inferred_matches_so_far: int


@dataclass(slots=True)
class RempResult:
    """Final output of a Remp run."""

    matches: set[Pair]
    questions_asked: int
    num_loops: int
    history: list[LoopRecord] = field(default_factory=list)
    labeled_matches: set[Pair] = field(default_factory=set)
    inferred_matches: set[Pair] = field(default_factory=set)
    isolated_matches: set[Pair] = field(default_factory=set)
    non_matches: set[Pair] = field(default_factory=set)


@dataclass(slots=True)
class LoopCheckpoint:
    """Everything needed to resume an interrupted run mid-loop — or a delta.

    ``loop_state`` is a :meth:`LoopState.snapshot`-shaped document and
    ``answer_log`` a :meth:`repro.crowd.CrowdPlatform.export_answer_log`
    record list — both plain JSON-able values, so a checkpoint can be
    persisted and reloaded by :mod:`repro.store` without pickling.

    The same shape carries a loop's *delta* (:meth:`LoopDriver.checkpoint`):
    ``history`` holds the new loop records, ``loop_state`` the moved
    priors and the pairs newly added to each resolution set,
    ``answer_log`` the newly recorded labels, and the two counters are
    cumulative.  A full checkpoint is a delta from the prepared state, and
    :func:`fold_checkpoints` turns a journal of deltas back into one
    resumable checkpoint.
    """

    next_loop_index: int
    questions_asked: int
    history: list[LoopRecord]
    loop_state: dict
    answer_log: list[dict]


#: Callback invoked with a checkpoint after each labeling round.
CheckpointSink = Callable[[LoopCheckpoint], None]

#: The resolution sets of a :meth:`LoopState.snapshot` document.
_RESOLUTION_SETS = (
    "labeled_matches",
    "inferred_matches",
    "resolved_matches",
    "resolved_non_matches",
)


class Remp:
    """Crowdsourced collective entity resolution with match propagation.

    Examples
    --------
    >>> from repro.datasets import load_dataset
    >>> from repro.crowd import CrowdPlatform
    >>> bundle = load_dataset("iimb", seed=0, scale=0.2)
    >>> platform = CrowdPlatform.with_oracle(bundle.gold_matches)
    >>> result = Remp().run(bundle.kb1, bundle.kb2, platform)
    >>> len(result.matches) > 0
    True
    """

    def __init__(self, config: RempConfig | None = None, seed: int = 0):
        self.config = config or RempConfig()
        self.seed = seed

    # ------------------------------------------------------------------
    # Offline stages (Section IV)
    # ------------------------------------------------------------------
    def prepare(self, kb1: KnowledgeBase, kb2: KnowledgeBase) -> PreparedState:
        """Run ER-graph construction and return every intermediate artifact.

        Each stage is timed with :func:`repro.obs.timed` into the active
        run scope, so the service can persist a per-run timing profile.
        """
        config = self.config
        with obs.timed("prepare.candidates"):
            candidates = generate_candidates(kb1, kb2, config.label_similarity_threshold)
        with obs.timed("prepare.attributes"):
            attribute_matches = match_attributes(
                kb1,
                kb2,
                candidates.initial_matches,
                literal_threshold=config.literal_threshold,
            )
        with obs.timed("prepare.vectors"):
            vectors = lead_with_prior(
                build_similarity_vectors(
                    kb1, kb2, candidates.pairs, attribute_matches, config.literal_threshold
                ),
                candidates.priors,
            )
        index = VectorIndex(vectors)
        with obs.timed("prepare.pruning"):
            retained = partial_order_pruning(candidates.pairs, index, config.k)
        obs.count("prepare.pruning.candidates", len(candidates.pairs))
        obs.count("prepare.pruning.retained", len(retained))
        obs.count("prepare.pruning.discarded", len(candidates.pairs) - len(retained))
        if candidates.pairs:
            obs.gauge(
                "prepare.pruning.discard_rate",
                round(1.0 - len(retained) / len(candidates.pairs), 6),
            )
        with obs.timed("prepare.graph"):
            graph = build_er_graph(kb1, kb2, retained)
        with obs.timed("prepare.signatures"):
            signatures = build_signatures(kb1, kb2, retained, attribute_matches)
        priors = {pair: candidates.priors.get(pair, config.default_prior) for pair in retained}
        return PreparedState(
            kb1=kb1,
            kb2=kb2,
            candidates=candidates,
            attribute_matches=attribute_matches,
            vector_index=index,
            retained=retained,
            graph=graph,
            signatures=signatures,
            priors=priors,
            isolated=graph.isolated_vertices(),
        )

    # ------------------------------------------------------------------
    # Online loop (Sections V–VII)
    # ------------------------------------------------------------------
    def run(
        self,
        kb1: KnowledgeBase,
        kb2: KnowledgeBase,
        platform: CrowdPlatform,
        strategy: str = "remp",
        state: PreparedState | None = None,
        resume_from: LoopCheckpoint | None = None,
        on_checkpoint: CheckpointSink | None = None,
    ) -> RempResult:
        """Execute the full crowdsourced collective ER workflow.

        ``strategy`` selects the question-selection policy: ``"remp"``
        (Algorithm 3), ``"maxinf"`` or ``"maxpr"`` (the Figure 5 baselines).
        A pre-computed ``state`` may be passed to share offline work across
        runs.  ``resume_from`` continues an interrupted run from a
        checkpoint, replaying its answer log into ``platform`` so past
        questions are not re-billed (a caller that already replayed it
        loses nothing: :meth:`CrowdPlatform.load_answer_log` keeps labels
        that are already recorded); ``on_checkpoint`` receives a
        resumable :class:`LoopCheckpoint` after every labeling round —
        the fold of ``resume_from`` and every loop's delta so far, equal
        to what :mod:`repro.store` returns after the same loop.  The loop is
        advanced by a :class:`LoopDriver`, the same one that drives the
        shards of :mod:`repro.partition` and the stepwise sessions of
        :mod:`repro.service`.

        ``questions_asked`` counts the *distinct* questions billed by the
        platform during the run (plus those recorded in ``resume_from``):
        a question whose labels are already recorded — re-selected because
        truth inference left it unresolved, re-used by the isolated-pair
        classifier, or replayed on resume — costs nothing extra.
        """
        state = state or self.prepare(kb1, kb2)
        driver = LoopDriver(self, state, platform, strategy, resume_from)
        driver.run(_folding(on_checkpoint, resume_from))
        return driver.finish()

    def run_loop_phase(
        self,
        state: PreparedState,
        platform: CrowdPlatform,
        strategy: str = "remp",
        resume_from: LoopCheckpoint | None = None,
        on_checkpoint: CheckpointSink | None = None,
    ) -> tuple["LoopState", list[LoopRecord], int]:
        """Drive the human–machine loop to convergence (no isolated pairs).

        The loop half of :meth:`run`: ends with the final propagation
        pass for the last batch of labels and returns the finished loop
        state, the loop history and the questions billed so far
        (including those recorded in ``resume_from``).  ``on_checkpoint``
        receives resumable checkpoints, as in :meth:`run`.
        """
        driver = LoopDriver(self, state, platform, strategy, resume_from)
        driver.run(_folding(on_checkpoint, resume_from))
        driver.loop_state.propagate(state.kb1, state.kb2)
        return driver.loop_state, driver.history, driver.questions_asked

    def _loop_once(
        self,
        loop_state: "LoopState",
        platform: CrowdPlatform,
        strategy: str,
        loop_index: int,
        remaining_budget: int | None,
    ) -> LoopRecord | None:
        """One human–machine loop: propagate, select, ask, infer truth.

        Returns ``None`` once the loop has converged (no askable question
        remains) or the budget is exhausted.  Called by :class:`LoopDriver`.
        """
        config = self.config
        kb1, kb2 = loop_state.state.kb1, loop_state.state.kb2
        with obs.timed("loop.iteration", loop=loop_index):
            loop_state.propagate(kb1, kb2)
            restricted = loop_state.restricted_inferred_sets()
            candidates = loop_state.askable_questions(restricted)
            if not candidates:
                return None
            if remaining_budget is not None and remaining_budget <= 0:
                return None
            batch = self._select(strategy, candidates, loop_state, remaining_budget, restricted)
            if not batch:
                return None
            billed_before = platform.questions_asked
            answers = platform.ask_batch(batch)
            truth = infer_truths(
                answers,
                loop_state.priors,
                config.match_posterior,
                config.non_match_posterior,
                config.default_prior,
            )
            loop_state.apply_truth(truth)
            obs.count("crowd.questions_billed", platform.questions_asked - billed_before)
            obs.count("loop.iterations")
            return LoopRecord(
                loop_index=loop_index,
                questions=batch,
                labeled_matches=len(truth.matches),
                labeled_non_matches=len(truth.non_matches),
                unresolved_questions=len(truth.unresolved),
                inferred_matches_so_far=len(loop_state.inferred_matches),
            )

    def propagate_only(
        self,
        kb1: KnowledgeBase,
        kb2: KnowledgeBase,
        seeds: set[Pair],
        state: PreparedState | None = None,
    ) -> set[Pair]:
        """Pure propagation from trusted seed matches (Table VI protocol).

        Seeds act as labeled matches; no questions are asked and the
        isolated-pair classifier is skipped.  Returns seeds plus every pair
        inferred at precision threshold τ.
        """
        state = state or self.prepare(kb1, kb2)
        loop_state = self._make_loop_state(state)
        for seed in seeds:
            if seed in state.retained:
                loop_state.resolve_match(seed, labeled=True)
            else:
                loop_state.labeled_matches.add(seed)
        loop_state.propagate(kb1, kb2)
        return set(loop_state.labeled_matches) | set(loop_state.inferred_matches)

    # ------------------------------------------------------------------
    def _make_loop_state(self, state: PreparedState) -> "LoopState":
        """Hook for subclasses that add inference rules (see core.hybrid)."""
        return LoopState(state, self.config)

    def _select(
        self,
        strategy: str,
        candidates: dict[Pair, float],
        loop_state: "LoopState",
        remaining_budget: int | None,
        restricted: dict[Pair, dict[Pair, float]],
    ) -> list[Pair]:
        mu = self.config.mu
        if remaining_budget is not None:
            mu = min(mu, remaining_budget)
        if strategy == "remp":
            return greedy_question_selection(
                loop_state.askable_bands, restricted, loop_state.priors, mu
            )
        if strategy == "maxinf":
            return max_inference_selection(candidates, restricted, mu)
        if strategy == "maxpr":
            return max_probability_selection(candidates, loop_state.priors, mu)
        raise ValueError(f"unknown selection strategy {strategy!r}")

    def _classify_isolated(
        self,
        state: PreparedState,
        loop_state: "LoopState",
        platform: CrowdPlatform | None,
        forests: Mapping[str, RandomForestClassifier] | None = None,
    ) -> tuple[set[Pair], dict[str, RandomForestClassifier]]:
        """The predicted isolated matches and the forests the classifier used.

        ``forests`` is the classifier's read-only memo
        (:class:`IsolatedPairClassifier`), e.g. a stream parent's.
        """
        isolated_unresolved = sorted(
            pair
            for pair in state.isolated
            if pair not in loop_state.resolved_matches
            and pair not in loop_state.resolved_non_matches
        )
        if not isolated_unresolved:
            return set(), {}
        classifier = IsolatedPairClassifier(
            state.vector_index.vectors,
            state.signatures,
            loop_state.priors,
            self.config,
            self.seed,
            forests,
        )

        ask = None
        if platform is not None:

            def ask(pair: Pair) -> bool | None:
                """Crowd-label one seed pair through truth inference."""
                answers = {pair: platform.ask(pair)}
                truth = infer_truths(
                    answers,
                    loop_state.priors,
                    self.config.match_posterior,
                    self.config.non_match_posterior,
                    self.config.default_prior,
                )
                if pair in truth.matches:
                    loop_state.resolve_match(pair, labeled=True)
                    return True
                if pair in truth.non_matches:
                    loop_state.resolve_non_match(pair)
                    return False
                loop_state.move_priors(truth.unresolved)
                return None

        with obs.timed("loop.isolated_classify", pairs=len(isolated_unresolved)):
            predicted = classifier.classify(
                isolated_unresolved,
                loop_state.resolved_matches,
                loop_state.resolved_non_matches,
                ask=ask,
            )
        obs.count("crowd.questions_billed", classifier.questions_asked)
        return predicted, classifier.forests


class LoopState:
    """Mutable state threaded through the human–machine loops.

    The currently-unresolved pair set is maintained incrementally (every
    resolution removes its pair), so membership checks inside propagation
    are O(1) instead of rebuilding a set difference over all retained
    pairs.  :meth:`snapshot` writes the resolution state as a JSON-able
    document for checkpoint/resume, and :meth:`restore` reads it back
    through :func:`parse_state_doc`.

    During the loops the state changes only through :meth:`resolve_match`,
    :meth:`resolve_non_match` (and the competitor demotions) and
    :meth:`move_priors`, and each records what it changed, so
    :meth:`take_changes` hands out the delta since the last call.

    The same writers keep what the loop derives from the state, so no
    step rescans it: from the first :meth:`propagate` after construction
    or :meth:`restore` on, propagation's inputs (effective priors,
    Dijkstra sources, new estimation matches), and downstream the Eq. 12
    restricted sets and the askable questions' initial gains, which also
    follow the distance maps propagation replaces, with the same
    questions grouped by gain for greedy selection.
    """

    def __init__(self, state: PreparedState, config: RempConfig):
        self.state = state
        self.config = config
        self.priors: dict[Pair, float] = dict(state.priors)
        self.labeled_matches: set[Pair] = set()
        self.inferred_matches: set[Pair] = set()
        self.resolved_matches: set[Pair] = set()
        self.resolved_non_matches: set[Pair] = set()
        self._unresolved: set[Pair] = set(state.retained)
        self._by_left: dict[str, list[Pair]] = {}
        self._by_right: dict[str, list[Pair]] = {}
        for pair in state.retained:
            self._by_left.setdefault(pair[0], []).append(pair)
            self._by_right.setdefault(pair[1], []).append(pair)
        self._clear_changes()
        self._clear_derived()

    def _clear_changes(self) -> None:
        #: Priors moved and pairs newly added to each resolution set since
        #: the last :meth:`take_changes` (or :meth:`restore`).
        self._moved_priors: dict[Pair, float] = {}
        self._added: dict[str, set[Pair]] = {name: set() for name in _RESOLUTION_SETS}

    def _clear_derived(self) -> None:
        """Forget the derived state; the next :meth:`propagate` rebuilds it."""
        #: Derived propagation state across loops.
        self._propagator: IncrementalPropagator | None = None
        #: Propagation's kept inputs: each pair's effective prior (0.99 /
        #: 0.01 once resolved, else its prior), with the value each pair
        #: touched since the last propagate had before (``_was``); the
        #: sources (labeled retained matches and unresolved pairs with
        #: neighbor groups), those added since the last propagate, and
        #: the estimation matches added since then.  ``_effective`` is
        #: ``None`` until the next propagate builds them all from the
        #: state (:meth:`_prime`), replacing what the writers added first.
        self._effective: dict[Pair, float] | None = None
        self._was: dict[Pair, float | None] = {}
        self._sources: set[Pair] = set()
        self._entered: set[Pair] = set()
        self._new_matches: set[Pair] = set()
        #: Each current source's distance map.
        self._inferred_sets: dict[Pair, dict[Pair, float]] = {}
        #: The Eq. 12 restricted sets kept across loops, per question.
        #: ``_holders`` maps a pair to (at least) the questions whose set
        #: holds it; ``_taken`` lists the pairs taken out of
        #: ``_unresolved`` and ``_fresh`` the sources propagation handed a
        #: new map, both since the last :meth:`restricted_inferred_sets`.
        self._restricted: dict[Pair, dict[Pair, float]] = {}
        self._holders: dict[Pair, tuple[Pair, ...]] = {}
        self._taken: list[Pair] = []
        self._fresh: set[Pair] = set()
        #: The askable questions with their initial gains, the same
        #: questions grouped by exact gain (:attr:`askable_bands`), and
        #: the questions whose restricted set or prior changed since the
        #: last :meth:`askable_questions`.
        self._askable: dict[Pair, float] = {}
        self._bands: dict[float, set[Pair]] = {}
        self._regain: set[Pair] = set()

    def _take(self, pair: Pair) -> None:
        """Take ``pair`` out of the unresolved set, once.

        A resolved pair stays a source only when labeled, and a labeled
        resolve puts it back (:meth:`resolve_match`).
        """
        if pair in self._unresolved:
            self._unresolved.remove(pair)
            self._taken.append(pair)
            self._sources.discard(pair)
            self._inferred_sets.pop(pair, None)

    def _set_effective(self, pair: Pair, prior: float) -> None:
        """Set a kept effective prior, noting its value before the first
        change since the last propagate."""
        effective = self._effective
        if effective is not None:
            self._was.setdefault(pair, effective.get(pair))
            effective[pair] = prior

    # -- resolution bookkeeping ---------------------------------------
    def resolve_match(self, pair: Pair, labeled: bool) -> None:
        if pair in self.resolved_matches:
            return
        # A positive label overrides an earlier competitor demotion.
        self.resolved_non_matches.discard(pair)
        self.resolved_matches.add(pair)
        self._added["resolved_matches"].add(pair)
        self._take(pair)
        self._set_effective(pair, _RESOLVED_MATCH_PRIOR)
        self._new_matches.add(pair)
        if labeled:
            self.labeled_matches.add(pair)
            self._added["labeled_matches"].add(pair)
            if pair in self.state.retained:
                self._sources.add(pair)
                self._entered.add(pair)
        else:
            self.inferred_matches.add(pair)
            self._added["inferred_matches"].add(pair)
        if self.config.enforce_one_to_one:
            self._demote_competitors(pair)

    def resolve_non_match(self, pair: Pair) -> None:
        if pair not in self.resolved_matches:
            self._add_non_match(pair)

    def _add_non_match(self, pair: Pair) -> None:
        # Only a real addition is a change; a re-demotion is not.
        if pair not in self.resolved_non_matches:
            self.resolved_non_matches.add(pair)
            self._added["resolved_non_matches"].add(pair)
            self._set_effective(pair, _RESOLVED_NON_MATCH_PRIOR)
        self._take(pair)

    def move_priors(self, priors: dict[Pair, float]) -> None:
        """Set the priors that truth inference left unresolved pairs with.

        The one writer of :attr:`priors` during a run: the loop's
        :meth:`apply_truth` and the isolated-pair phase's asks both go
        through it, so the move reaches the next checkpoint delta, the
        effective priors and the askable questions' gains.
        """
        self.priors.update(priors)
        self._moved_priors.update(priors)
        self._regain.update(priors)
        for pair, prior in priors.items():
            if pair in self._unresolved:
                self._set_effective(pair, prior)

    def apply_truth(self, truth) -> None:
        """Fold one round of truth inference into the resolution state."""
        for question in sorted(truth.matches):
            self.resolve_match(question, labeled=True)
        for question in sorted(truth.non_matches):
            self.resolve_non_match(question)
        self.move_priors(truth.unresolved)

    def _demote_competitors(self, pair: Pair) -> None:
        """The 1:1 assumption: siblings of a resolved match are non-matches."""
        for sibling in self._by_left.get(pair[0], ()):
            if sibling != pair and sibling not in self.resolved_matches:
                self._add_non_match(sibling)
        for sibling in self._by_right.get(pair[1], ()):
            if sibling != pair and sibling not in self.resolved_matches:
                self._add_non_match(sibling)

    def unresolved(self) -> set[Pair]:
        """A copy of the currently-unresolved retained pairs."""
        return set(self._unresolved)

    # -- checkpointing --------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-able document capturing priors and all resolution sets.

        The inferred sets and the probabilistic graph are derived state
        and are rebuilt by the next :meth:`propagate` call after
        :meth:`restore`.
        """
        return _state_doc(self.priors, {name: getattr(self, name) for name in _RESOLUTION_SETS})

    def take_changes(self) -> dict:
        """The :meth:`snapshot`-shaped delta since the last call, then reset.

        It holds the moved priors and the pairs newly added to each
        resolution set; :func:`fold_checkpoints` folds such deltas.
        """
        changes = _state_doc(self._moved_priors, self._added)
        self._clear_changes()
        return changes

    def restore(self, priors: dict[Pair, float], sets: dict[str, set[Pair]]) -> None:
        """Reset this state to ``priors`` and the four resolution ``sets``.

        The prepared state's priors are overlaid with ``priors``, so a
        sparse fold and a full snapshot restore the same state, and the
        priors keep the prepared state's key order.  The sets are copied,
        so one merged state may restore several loop states.  A
        :meth:`snapshot`-shaped document restores through
        :func:`parse_state_doc`; :func:`merge_loop_snapshots` returns
        these arguments directly.  The derived state is dropped (the
        propagator's diffs assume continuous history), so the next
        propagate rebuilds it from scratch.
        """
        self.priors = dict(self.state.priors)
        self.priors.update(priors)
        self.labeled_matches = set(sets["labeled_matches"])
        self.inferred_matches = set(sets["inferred_matches"])
        self.resolved_matches = set(sets["resolved_matches"])
        self.resolved_non_matches = set(sets["resolved_non_matches"])
        self._unresolved = (
            self.state.retained - self.resolved_matches - self.resolved_non_matches
        )
        self._clear_changes()
        self._clear_derived()

    # -- propagation ----------------------------------------------------
    def propagate(self, kb1: KnowledgeBase, kb2: KnowledgeBase) -> None:
        """Rebuild the probabilistic graph and infer from labeled matches.

        The rebuild is *incremental*: an :class:`IncrementalPropagator`
        takes the kept inputs' changes (the estimation matches added,
        the pairs whose effective prior moved, the sources that
        entered), re-estimates only labels whose observations moved,
        recomputes only neighbor groups containing a moved pair (or
        whose label's γ changed), and re-runs Dijkstra only from sources
        whose ζ-reachable region intersects the changed vertices.  It
        returns only the maps that are new this round.  The equivalence
        oracles hold it to a full rebuild from the same kept inputs
        (:class:`repro.accel.reference.RebuildLoopState`): identical
        inferred sets, in map contents *and* iteration order.
        """
        with obs.timed("loop.propagate"):
            if self._effective is None:
                self._prime()
            fresh = self._infer_incremental(kb1, kb2)
            self._was, self._entered, self._new_matches = {}, set(), set()
            self._inferred_sets.update(fresh)
            self._fresh.update(fresh)
        # Distant propagation: everything within ζ of a labeled match.  A
        # labeled match whose map is not new holds no unresolved pair:
        # the propagate that last handed it out resolved them all, and
        # the unresolved set only shrinks between restores.  The
        # incrementally-maintained unresolved set keeps the membership
        # test O(1); resolve_match (and its competitor demotions) updates
        # it.
        labeled = self.labeled_matches
        for match in sorted(source for source in fresh if source in labeled):
            for pair in fresh[match]:
                if pair in self._unresolved:
                    self.resolve_match(pair, labeled=False)

    def _prime(self) -> None:
        """Build propagation's kept inputs from the resolution state."""
        effective = dict(self.priors)
        effective.update(dict.fromkeys(self.resolved_matches, _RESOLVED_MATCH_PRIOR))
        effective.update(dict.fromkeys(self.resolved_non_matches, _RESOLVED_NON_MATCH_PRIOR))
        self._effective = effective
        groups = self.state.graph.groups
        self._sources = self.labeled_matches & self.state.retained
        self._sources.update(q for q in self._unresolved if groups.get(q))
        self._entered = set(self._sources)
        self._new_matches = self._estimation_matches()

    def _estimation_matches(self) -> set[Pair]:
        """``M_in`` and every match resolved so far (Section VII-A)."""
        return (
            self.state.candidates.initial_matches
            | self.labeled_matches
            | self.inferred_matches
        )

    def _infer_incremental(self, kb1, kb2) -> dict[Pair, dict[Pair, float]]:
        """The maps new this round, through the cached :class:`IncrementalPropagator`."""
        if self._propagator is None:
            self._propagator = IncrementalPropagator(
                self.state.graph, kb1, kb2, self.config
            )
        effective = self._effective
        moved = [pair for pair, was in self._was.items() if effective[pair] != was]
        consistencies = self._propagator.estimate_consistencies(self._new_matches)
        return self._propagator.update(
            effective, moved, consistencies, self._sources, self._entered
        )

    # -- question candidates -------------------------------------------
    def restricted_inferred_sets(self) -> dict[Pair, dict[Pair, float]]:
        """Inferred sets restricted to currently unresolved pairs (Eq. 12).

        The sets are kept across loops, and a call pays only for what
        moved since the last one: a resolved question's set is dropped,
        each pair resolved since then is deleted from the sets that hold
        it, and a set is rebuilt only when propagation handed its
        question a new map.  Deleting keys keeps the survivors' order, so
        every set equals, in content and order, a from-scratch filter of
        its map.  The returned mapping and its sets are this state's own
        and must be treated as read-only.
        """
        unresolved, sets, holders = self._unresolved, self._restricted, self._holders
        regain = self._regain
        for pair in self._taken:
            if sets.pop(pair, None) is not None:
                regain.add(pair)
            for question in holders.pop(pair, ()):
                held = sets.get(question)
                if held is not None and pair in held:
                    del held[pair]
                    regain.add(question)
        self._taken = []
        for question in self._fresh:
            if question not in unresolved:
                continue
            held = sets.get(question, {})
            restricted = {
                p: d for p, d in self._inferred_sets[question].items() if p in unresolved
            }
            for pair in restricted:
                if pair not in held:
                    holders[pair] = holders.get(pair, ()) + (question,)
            sets[question] = restricted
            regain.add(question)
        self._fresh = set()
        return sets

    def askable_questions(self, restricted: dict[Pair, dict[Pair, float]]) -> dict[Pair, float]:
        """Unresolved questions that can still infer something by relations.

        The paper stops "when there is no unresolved entity pair that can
        be inferred by relational match propagation": a question is worth
        asking only while its inferred set reaches beyond the question
        itself.  ``restricted`` is this state's
        :meth:`restricted_inferred_sets`, kept across loops by this state
        and shared with question selection.  Returns each askable
        question's initial gain (:func:`repro.core.selection.initial_gains`).
        The mapping is kept across loops too: a call recomputes only the
        questions whose restricted set or prior changed since the last
        one, and moves each of them from the band of its old gain to the
        band of its new one in :attr:`askable_bands`.  It is this state's
        own and must be treated as read-only.
        """
        regain, self._regain = self._regain, set()
        askable, bands = self._askable, self._bands
        for question in regain:
            gain = askable.pop(question, None)
            if gain is not None:
                band = bands[gain]
                band.remove(question)
                if not band:
                    del bands[gain]
        for question, gain in self._askable_gains(regain, restricted).items():
            askable[question] = gain
            bands.setdefault(gain, set()).add(question)
        return askable

    @property
    def askable_bands(self) -> dict[float, set[Pair]]:
        """Greedy's input: the last :meth:`askable_questions` grouped by
        exact gain (:func:`repro.core.selection.gain_bands`), kept with
        it across loops.  This state's own: treat it as read-only."""
        return self._bands

    def _askable_gains(self, questions, restricted) -> dict[Pair, float]:
        """The initial gains of those ``questions`` whose restricted set
        reaches beyond the question and whose prior is positive."""
        priors = self.priors
        return initial_gains(
            [q for q in questions if len(restricted.get(q, ())) > 1 and priors.get(q, 0.0) > 0.0],
            restricted,
            priors,
        )


class LoopDriver:
    """Advances, bills and checkpoints one run of the human–machine loop.

    The one copy of the loop's bookkeeping, driven by :meth:`Remp.run`,
    by the graph shards of :mod:`repro.partition` and by the stepwise
    sessions of :mod:`repro.service`: loop-state construction (through
    :meth:`Remp._make_loop_state`, so subclasses keep their inference
    rules), resume from a :class:`LoopCheckpoint` (state restore and
    answer-log replay), the question budget, the itemised cost ledger,
    checkpoints, and the finish (final propagation, isolated-pair
    classifier, result assembly).
    """

    def __init__(
        self,
        remp: Remp,
        state: PreparedState,
        platform: CrowdPlatform,
        strategy: str = "remp",
        resume_from: LoopCheckpoint | None = None,
    ):
        self.remp = remp
        self.platform = platform
        self.strategy = strategy
        self.loop_state = remp._make_loop_state(state)
        self.history: list[LoopRecord] = []
        self.next_loop = 0
        self._converged = False
        #: Billed questions itemised per loop, isolated-pair phase and
        #: resume; they sum to :attr:`questions_asked` exactly.
        self.cost_items: list[dict] = []
        self._base_questions = 0
        held = platform.recorded_questions()
        logged: set[Pair] = set()
        if resume_from is not None:
            self.loop_state.restore(*parse_state_doc(resume_from.loop_state))
            platform.load_answer_log(resume_from.answer_log)
            logged = {tuple(entry["question"]) for entry in resume_from.answer_log}
            self.history = list(resume_from.history)
            self.next_loop = resume_from.next_loop_index
            self._base_questions = resume_from.questions_asked
            if self._base_questions:
                # Loops billed before the restart are no longer itemisable
                # per loop; one checkpoint item keeps the ledger total
                # equal to the result's question count.
                self.cost_items.append(
                    {"scope": "checkpoint", "key": "resume", "questions": self._base_questions}
                )
        self._billed_at_start = platform.questions_asked
        # What the next checkpoint still owes the journal.  The first one
        # carries every label the platform held that the resumed-from log
        # lacks (on a shared platform, labels of earlier runs); after that
        # each carries the labels recorded past the cursor.
        self._unlogged = [question for question in held if question not in logged]
        self._label_cursor = len(platform.recorded_questions())
        self._history_cursor = len(self.history)

    @property
    def questions_asked(self) -> int:
        """Questions billed so far, including those recorded before a resume."""
        return self._base_questions + (self.platform.questions_asked - self._billed_at_start)

    def step(self) -> LoopRecord | None:
        """Run one loop; ``None`` once converged, out of budget or at ``max_loops``."""
        config = self.remp.config
        if self._converged or self.next_loop >= config.max_loops:
            self._converged = True
            return None
        remaining_budget = None
        if config.budget is not None:
            remaining_budget = config.budget - self.questions_asked
        billed_before = self.platform.questions_asked
        record = self.remp._loop_once(
            self.loop_state, self.platform, self.strategy, self.next_loop, remaining_budget
        )
        if record is None:
            self._converged = True
            return None
        self.cost_items.append(
            {
                "scope": "loop",
                "key": str(self.next_loop),
                "questions": self.platform.questions_asked - billed_before,
            }
        )
        self.history.append(record)
        self.next_loop += 1
        return record

    def checkpoint(self) -> LoopCheckpoint:
        """The delta since the last checkpoint (or the start): one journal row.

        It carries the new loop records, the loop state's
        :meth:`LoopState.take_changes`, the newly recorded labels and the
        cumulative counters, so its size follows what the loops changed,
        not the run's state.  Folding every delta onto the resumed-from
        checkpoint (:func:`fold_checkpoints`) gives everything needed to
        resume after the loops run so far.
        """
        new = self.platform.recorded_questions(self._label_cursor)
        self._label_cursor += len(new)
        questions, self._unlogged = self._unlogged + new, []
        history = self.history[self._history_cursor :]
        self._history_cursor = len(self.history)
        return LoopCheckpoint(
            next_loop_index=self.next_loop,
            questions_asked=self.questions_asked,
            history=history,
            loop_state=self.loop_state.take_changes(),
            answer_log=self.platform.export_answer_log(questions),
        )

    def run(self, on_checkpoint: CheckpointSink | None = None) -> None:
        """Step to convergence, handing ``on_checkpoint`` each loop's delta."""
        while self.step() is not None:
            if on_checkpoint is not None:
                on_checkpoint(self.checkpoint())

    def finish(self) -> RempResult:
        """Final propagation, isolated-pair classification, the result."""
        loop_state, platform = self.loop_state, self.platform
        state = loop_state.state
        loop_state.propagate(state.kb1, state.kb2)
        billed_before = platform.questions_asked
        isolated_matches, _ = self.remp._classify_isolated(state, loop_state, platform)
        isolated_billed = platform.questions_asked - billed_before
        if isolated_billed:
            self.cost_items.append(
                {"scope": "isolated", "key": "classifier", "questions": isolated_billed}
            )
        return RempResult(
            matches=loop_state.labeled_matches | loop_state.inferred_matches | isolated_matches,
            questions_asked=self.questions_asked,
            num_loops=len(self.history),
            history=list(self.history),
            labeled_matches=set(loop_state.labeled_matches),
            inferred_matches=set(loop_state.inferred_matches),
            isolated_matches=isolated_matches,
            non_matches=set(loop_state.resolved_non_matches),
        )


def merge_loop_snapshots(
    state: PreparedState, snapshots: list[dict]
) -> tuple[dict[Pair, float], dict[str, set[Pair]]]:
    """Combine per-shard :meth:`LoopState.snapshot` documents into one state.

    Priors start from the prepared state's and are overlaid with each
    snapshot's (shard priors cover disjoint retained subsets, so later
    snapshots never clobber earlier ones); the resolution sets are
    unioned, with resolved matches winning over a non-match recorded for
    the same pair by another shard.  Returns ``(priors, sets)``, the
    arguments of :meth:`LoopState.restore` over the *full* ``state`` —
    the training input for the isolated-pair classification phase of
    :mod:`repro.partition`.  No document is built: the priors keep the
    prepared state's key order, which is the order a restore gives them.
    """
    return _merge_state_docs(snapshots, dict(state.priors))


def merge_shard_results(results: list[tuple[int, RempResult]]) -> RempResult:
    """Deterministically reassemble shard results into one result.

    Resolution sets are unioned (a match recorded by any shard wins over
    a competitor demotion from another), questions and loops are summed
    — shards ask about disjoint pair sets, so distinct-question billing
    is additive — and histories concatenate in shard-id order with the
    loop index rewritten to a single global sequence.
    """
    merged = RempResult(matches=set(), questions_asked=0, num_loops=0)
    for _, result in sorted(results, key=lambda item: item[0]):
        merged.matches |= result.matches
        merged.labeled_matches |= result.labeled_matches
        merged.inferred_matches |= result.inferred_matches
        merged.isolated_matches |= result.isolated_matches
        merged.non_matches |= result.non_matches
        merged.questions_asked += result.questions_asked
        for record in result.history:
            merged.history.append(replace(record, loop_index=len(merged.history)))
    merged.non_matches -= merged.matches
    merged.num_loops = len(merged.history)
    return merged


def parse_state_doc(doc: dict) -> tuple[dict[Pair, float], dict[str, set[Pair]]]:
    """The ``(priors, sets)`` of a :meth:`LoopState.snapshot`-shaped document.

    A document that :meth:`LoopState.snapshot` or
    :func:`fold_checkpoints` wrote holds no pair in both resolved sets,
    so reading it as a merge of one document changes nothing.
    """
    return _merge_state_docs([doc], {})


def fold_checkpoints(checkpoints: list[LoopCheckpoint]) -> LoopCheckpoint | None:
    """One resumable checkpoint from a journal of deltas, oldest first.

    The counters come from the last delta and the histories concatenate.
    The loop states merge by :func:`merge_loop_snapshots`' rule, from no
    priors instead of the prepared state's: later priors overlay earlier
    ones, and the resolution sets union, with a resolved match winning
    over a non-match.  The answer log is sorted by question, and the
    first delta that recorded a question supplies its labels
    (:meth:`repro.crowd.CrowdPlatform.load_answer_log`'s rule).  A full
    checkpoint is a delta from the prepared state, so it folds like any
    other row.  The fold is associative: folding a fold with later
    deltas equals folding every delta at once.  ``None`` for no rows.
    """
    if not checkpoints:
        return None
    labels: dict[tuple, list[dict]] = {}
    for checkpoint in checkpoints:
        recorded: dict[tuple, list[dict]] = {}
        for entry in checkpoint.answer_log:
            recorded.setdefault(tuple(entry["question"]), []).append(entry)
        for question, entries in recorded.items():
            labels.setdefault(question, entries)
    last = checkpoints[-1]
    return LoopCheckpoint(
        next_loop_index=last.next_loop_index,
        questions_asked=last.questions_asked,
        history=[record for checkpoint in checkpoints for record in checkpoint.history],
        loop_state=_state_doc(*_merge_state_docs([c.loop_state for c in checkpoints], {})),
        answer_log=[entry for question in sorted(labels) for entry in labels[question]],
    )


def _merge_state_docs(
    docs: list[dict], priors: dict[Pair, float]
) -> tuple[dict[Pair, float], dict[str, set[Pair]]]:
    """Overlay the documents' priors onto ``priors`` and union their sets."""
    merged: dict[str, set[Pair]] = {name: set() for name in _RESOLUTION_SETS}
    for doc in docs:
        priors.update(((left, right), p) for left, right, p in doc.get("priors", ()))
        for name, pairs in merged.items():
            pairs.update((left, right) for left, right in doc.get(name, ()))
    merged["resolved_non_matches"] -= merged["resolved_matches"]
    return priors, merged


def _state_doc(priors: dict[Pair, float], sets: dict[str, set[Pair]]) -> dict:
    """The canonical (sorted) :meth:`LoopState.snapshot` document."""
    doc = {"priors": sorted([left, right, p] for (left, right), p in priors.items())}
    doc.update((name, sorted(map(list, sets[name]))) for name in _RESOLUTION_SETS)
    return doc


def _folding(
    sink: CheckpointSink | None, base: LoopCheckpoint | None
) -> CheckpointSink | None:
    """``sink`` fed resumable checkpoints: each delta folded onto the last fold."""
    if sink is None:
        return None
    folded = base

    def fold(delta: LoopCheckpoint) -> None:
        nonlocal folded
        folded = fold_checkpoints([delta] if folded is None else [folded, delta])
        sink(folded)

    return fold

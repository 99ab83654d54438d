"""The end-to-end Remp pipeline (Figure 2's workflow).

``prepare`` runs the offline stages: candidate generation, attribute
matching, similarity vectors, partial-order pruning and ER-graph
construction.  ``run`` executes the human–machine loop: consistency
estimation, probabilistic propagation, multiple questions selection, crowd
labeling and truth inference — iterating until no unresolved pair can be
inferred by relational match propagation — then resolves isolated pairs
with the random-forest classifier.

The loop is resumable: :class:`LoopState` snapshots its resolution sets to
a JSON-able document, ``run`` accepts a :class:`LoopCheckpoint` to continue
an interrupted run mid-loop, and an ``on_checkpoint`` callback receives a
fresh checkpoint after every batch of crowd answers (persisted by
:mod:`repro.store`).  :class:`LoopDriver` is the one place the loop is
advanced, billed and checkpointed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.accel.propagation import IncrementalPropagator
from repro.accel.runtime import TIMINGS, accel_enabled
from repro.obs import runtime as obs
from repro.core.attributes import AttributeMatch, match_attributes
from repro.core.candidates import CandidateSet, generate_candidates
from repro.core.config import RempConfig
from repro.core.consistency import estimate_all_consistencies
from repro.core.discovery import inferred_sets
from repro.core.er_graph import ERGraph, build_er_graph
from repro.core.isolated import IsolatedPairClassifier, Signature, build_signatures
from repro.core.propagation import build_probabilistic_graph
from repro.core.pruning import partial_order_pruning
from repro.core.selection import (
    greedy_question_selection,
    max_inference_selection,
    max_probability_selection,
)
from repro.core.truth import infer_truths
from repro.core.vectors import VectorIndex, build_similarity_vectors
from repro.crowd.platform import CrowdPlatform
from repro.kb.model import KnowledgeBase

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
    #: Content address of the shared kernel arena this state attached to
    #: (:mod:`repro.substrate`), or ``None`` when unattached / accel off.
    #: A plain string tuple — never the arena itself — so states stay
    #: picklable and serializable; slices (:meth:`restrict`) drop it.
    substrate_key: tuple[str, str, str] | None = None

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
    """Everything needed to resume an interrupted run mid-loop.

    ``loop_state`` is a :meth:`LoopState.snapshot` document and
    ``answer_log`` a :meth:`repro.crowd.CrowdPlatform.export_answer_log`
    record list — both plain JSON-able values, so a checkpoint can be
    persisted and reloaded by :mod:`repro.store` without pickling.
    """

    next_loop_index: int
    questions_asked: int
    history: list[LoopRecord]
    loop_state: dict
    answer_log: list[dict]


#: Callback invoked with a fresh checkpoint after each labeling round.
CheckpointSink = Callable[[LoopCheckpoint], None]


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

        Each stage is timed into :data:`repro.accel.TIMINGS` so the
        service can persist a per-run timing profile.
        """
        config = self.config
        with TIMINGS.timed("prepare.candidates"):
            candidates = generate_candidates(kb1, kb2, config.label_similarity_threshold)
        with TIMINGS.timed("prepare.attributes"):
            attribute_matches = match_attributes(
                kb1,
                kb2,
                candidates.initial_matches,
                literal_threshold=config.literal_threshold,
            )
        with TIMINGS.timed("prepare.vectors"):
            vectors = build_similarity_vectors(
                kb1, kb2, candidates.pairs, attribute_matches, config.literal_threshold
            )
            # The label similarity (= the prior) leads every vector: rdfs:label
            # is itself an attribute match, and it is the finest-grained
            # component, which keeps the partial order discriminative even when
            # the other attributes produce mostly 0/1 similarities.
            vectors = {
                pair: (candidates.priors.get(pair, 0.0),) + vector
                for pair, vector in vectors.items()
            }
        index = VectorIndex(vectors)
        with TIMINGS.timed("prepare.pruning"):
            retained = partial_order_pruning(candidates.pairs, index, config.k)
        obs.count("prepare.pruning.candidates", len(candidates.pairs))
        obs.count("prepare.pruning.retained", len(retained))
        obs.count("prepare.pruning.discarded", len(candidates.pairs) - len(retained))
        if candidates.pairs:
            obs.gauge(
                "prepare.pruning.discard_rate",
                round(1.0 - len(retained) / len(candidates.pairs), 6),
            )
        with TIMINGS.timed("prepare.graph"):
            graph = build_er_graph(kb1, kb2, retained)
        with TIMINGS.timed("prepare.signatures"):
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
        that are already recorded); ``on_checkpoint`` receives a fresh
        :class:`LoopCheckpoint` after every labeling round.  The loop is
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
        driver.run(on_checkpoint)
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
        (including those recorded in ``resume_from``).
        """
        driver = LoopDriver(self, state, platform, strategy, resume_from)
        driver.run(on_checkpoint)
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
        with obs.span("loop.iteration", loop=loop_index):
            loop_state.propagate(kb1, kb2)
            candidates = loop_state.askable_questions()
            if not candidates:
                return None
            if remaining_budget is not None and remaining_budget <= 0:
                return None
            batch = self._select(strategy, candidates, loop_state, remaining_budget)
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
        candidates: list[Pair],
        loop_state: "LoopState",
        remaining_budget: int | None,
    ) -> list[Pair]:
        mu = self.config.mu
        if remaining_budget is not None:
            mu = min(mu, remaining_budget)
        restricted = loop_state.restricted_inferred_sets()
        if strategy == "remp":
            return greedy_question_selection(candidates, restricted, loop_state.priors, mu)
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
    ) -> tuple[set[Pair], int]:
        isolated_unresolved = sorted(
            pair
            for pair in state.isolated
            if pair not in loop_state.resolved_matches
            and pair not in loop_state.resolved_non_matches
        )
        if not isolated_unresolved:
            return set(), 0
        classifier = IsolatedPairClassifier(
            state.vector_index.vectors,
            state.signatures,
            loop_state.priors,
            self.config,
            self.seed,
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
                loop_state.priors.update(truth.unresolved)
                return None

        with obs.span("loop.isolated_classify", pairs=len(isolated_unresolved)):
            predicted = classifier.classify(
                isolated_unresolved,
                loop_state.resolved_matches,
                loop_state.resolved_non_matches,
                ask=ask,
            )
        obs.count("crowd.questions_billed", classifier.questions_asked)
        return predicted, classifier.questions_asked


class LoopState:
    """Mutable state threaded through the human–machine loops.

    The currently-unresolved pair set is maintained incrementally (every
    resolution removes its pair), so membership checks inside propagation
    are O(1) instead of rebuilding a set difference over all retained
    pairs.  :meth:`snapshot` and :meth:`restore` round-trip the resolution
    state through a JSON-able document for checkpoint/resume.
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
        self._inferred_sets: dict[Pair, dict[Pair, float]] = {}
        self._by_left: dict[str, list[Pair]] = {}
        self._by_right: dict[str, list[Pair]] = {}
        #: Accel only: caches derived propagation state across loops.
        self._propagator: IncrementalPropagator | None = None
        for pair in state.retained:
            self._by_left.setdefault(pair[0], []).append(pair)
            self._by_right.setdefault(pair[1], []).append(pair)

    # -- resolution bookkeeping ---------------------------------------
    def resolve_match(self, pair: Pair, labeled: bool) -> None:
        if pair in self.resolved_matches:
            return
        # A positive label overrides an earlier competitor demotion.
        self.resolved_non_matches.discard(pair)
        self.resolved_matches.add(pair)
        self._unresolved.discard(pair)
        if labeled:
            self.labeled_matches.add(pair)
        else:
            self.inferred_matches.add(pair)
        if self.config.enforce_one_to_one:
            self._demote_competitors(pair)

    def resolve_non_match(self, pair: Pair) -> None:
        if pair not in self.resolved_matches:
            self.resolved_non_matches.add(pair)
            self._unresolved.discard(pair)

    def apply_truth(self, truth) -> None:
        """Fold one round of truth inference into the resolution state."""
        for question in sorted(truth.matches):
            self.resolve_match(question, labeled=True)
        for question in sorted(truth.non_matches):
            self.resolve_non_match(question)
        self.priors.update(truth.unresolved)

    def _demote_competitors(self, pair: Pair) -> None:
        """The 1:1 assumption: siblings of a resolved match are non-matches."""
        for sibling in self._by_left.get(pair[0], ()):
            if sibling != pair and sibling not in self.resolved_matches:
                self.resolved_non_matches.add(sibling)
                self._unresolved.discard(sibling)
        for sibling in self._by_right.get(pair[1], ()):
            if sibling != pair and sibling not in self.resolved_matches:
                self.resolved_non_matches.add(sibling)
                self._unresolved.discard(sibling)

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
        return {
            "priors": sorted([left, right, p] for (left, right), p in self.priors.items()),
            "labeled_matches": sorted(map(list, self.labeled_matches)),
            "inferred_matches": sorted(map(list, self.inferred_matches)),
            "resolved_matches": sorted(map(list, self.resolved_matches)),
            "resolved_non_matches": sorted(map(list, self.resolved_non_matches)),
        }

    def restore(self, snapshot: dict) -> None:
        """Reset this state to a previously captured :meth:`snapshot`."""
        self.priors = {(left, right): p for left, right, p in snapshot["priors"]}
        self.labeled_matches = {(l, r) for l, r in snapshot["labeled_matches"]}
        self.inferred_matches = {(l, r) for l, r in snapshot["inferred_matches"]}
        self.resolved_matches = {(l, r) for l, r in snapshot["resolved_matches"]}
        self.resolved_non_matches = {(l, r) for l, r in snapshot["resolved_non_matches"]}
        self._unresolved = (
            self.state.retained - self.resolved_matches - self.resolved_non_matches
        )
        self._inferred_sets = {}
        # The propagator's diffs assume continuous history; a restore
        # breaks it, so the next propagate re-primes from scratch.
        self._propagator = None

    # -- propagation ----------------------------------------------------
    def propagate(self, kb1: KnowledgeBase, kb2: KnowledgeBase) -> None:
        """Rebuild the probabilistic graph and infer from labeled matches.

        With the accel layer on (and Dijkstra discovery selected), the
        rebuild is *incremental*: an :class:`IncrementalPropagator`
        re-estimates only labels whose observations moved, recomputes
        only neighbor groups containing a pair whose effective prior (or
        label consistency) changed, and re-runs Dijkstra only from
        sources whose ζ-reachable region intersects the changed
        vertices.  The fallback path is the original full rebuild; both
        produce identical inferred sets (identical map contents *and*
        iteration order).
        """
        config = self.config
        matches_for_estimation = (
            self.state.candidates.initial_matches
            | self.labeled_matches
            | self.inferred_matches
        )
        incremental = accel_enabled() and config.use_dijkstra
        with TIMINGS.timed("loop.propagate"):
            if incremental:
                if self._propagator is None:
                    self._propagator = IncrementalPropagator(
                        self.state.graph, kb1, kb2, config
                    )
                consistencies = self._propagator.estimate_consistencies(
                    matches_for_estimation
                )
            else:
                labels = {
                    label
                    for by_label in self.state.graph.groups.values()
                    for label in by_label
                }
                consistencies = estimate_all_consistencies(
                    kb1,
                    kb2,
                    labels,
                    matches_for_estimation,
                    min_support=config.min_consistency_support,
                    epsilon_default=config.epsilon_default,
                    epsilon_floor=config.epsilon_floor,
                    epsilon_ceiling=config.epsilon_ceiling,
                )
            effective_priors = dict(self.priors)
            for pair in self.resolved_matches:
                effective_priors[pair] = _RESOLVED_MATCH_PRIOR
            for pair in self.resolved_non_matches:
                effective_priors[pair] = _RESOLVED_NON_MATCH_PRIOR
            sources = set(self.labeled_matches & self.state.retained)
            sources.update(
                q for q in self._unresolved if self.state.graph.groups.get(q)
            )
            if incremental:
                self._inferred_sets = self._propagator.update(
                    effective_priors, consistencies, sources
                )
            else:
                prob_graph = build_probabilistic_graph(
                    self.state.graph, kb1, kb2, effective_priors, consistencies, config
                )
                self._inferred_sets = inferred_sets(
                    prob_graph, sources, config.tau, config.use_dijkstra
                )
        # Distant propagation: everything within ζ of a labeled match.  The
        # incrementally-maintained unresolved set keeps the membership test
        # O(1); resolve_match (and its competitor demotions) updates it.
        for match in sorted(self.labeled_matches & self.state.retained):
            for pair in self._inferred_sets.get(match, ()):
                if pair in self._unresolved:
                    self.resolve_match(pair, labeled=False)

    # -- question candidates -------------------------------------------
    def restricted_inferred_sets(self) -> dict[Pair, dict[Pair, float]]:
        """Inferred sets restricted to currently unresolved pairs (Eq. 12)."""
        unresolved = self._unresolved
        return {
            question: {p: d for p, d in inferred.items() if p in unresolved}
            for question, inferred in self._inferred_sets.items()
            if question in unresolved
        }

    def askable_questions(self) -> list[Pair]:
        """Unresolved questions that can still infer something by relations.

        The paper stops "when there is no unresolved entity pair that can
        be inferred by relational match propagation": a question is worth
        asking only while its inferred set reaches beyond the question
        itself.
        """
        restricted = self.restricted_inferred_sets()
        return [
            question
            for question, inferred in restricted.items()
            if len(inferred) > 1 and self.priors.get(question, 0.0) > 0.0
        ]


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
        if resume_from is not None:
            self.loop_state.restore(resume_from.loop_state)
            platform.load_answer_log(resume_from.answer_log)
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
        """Everything needed to resume after the loops run so far."""
        return LoopCheckpoint(
            next_loop_index=self.next_loop,
            questions_asked=self.questions_asked,
            history=list(self.history),
            loop_state=self.loop_state.snapshot(),
            answer_log=self.platform.export_answer_log(),
        )

    def run(self, on_checkpoint: CheckpointSink | None = None) -> None:
        """Step to convergence, handing ``on_checkpoint`` a checkpoint per loop."""
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


def merge_loop_snapshots(state: PreparedState, snapshots: list[dict]) -> dict:
    """Combine per-shard :meth:`LoopState.snapshot` documents into one.

    Priors start from the prepared state's and are overlaid with each
    snapshot's (shard priors cover disjoint retained subsets, so later
    snapshots never clobber earlier ones); the resolution sets are
    unioned, with resolved matches winning over a non-match recorded for
    the same pair by another shard.  The result restores into a
    :class:`LoopState` over the *full* ``state`` — the training input for
    the isolated-pair classification phase of :mod:`repro.partition`.
    """
    priors: dict[Pair, float] = dict(state.priors)
    labeled: set[Pair] = set()
    inferred: set[Pair] = set()
    resolved: set[Pair] = set()
    non_matches: set[Pair] = set()
    for snapshot in snapshots:
        priors.update({(left, right): p for left, right, p in snapshot["priors"]})
        labeled.update((l, r) for l, r in snapshot["labeled_matches"])
        inferred.update((l, r) for l, r in snapshot["inferred_matches"])
        resolved.update((l, r) for l, r in snapshot["resolved_matches"])
        non_matches.update((l, r) for l, r in snapshot["resolved_non_matches"])
    return {
        "priors": sorted([left, right, p] for (left, right), p in priors.items()),
        "labeled_matches": sorted(map(list, labeled)),
        "inferred_matches": sorted(map(list, inferred)),
        "resolved_matches": sorted(map(list, resolved)),
        "resolved_non_matches": sorted(map(list, non_matches - resolved)),
    }

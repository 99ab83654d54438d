"""Simulated crowdsourcing platform.

Publishes pairwise questions to a pool of workers, assigns each question to
``workers_per_question`` distinct workers, records every label, and reuses
labels so that different ER approaches asking the same question receive
identical answers — exactly the protocol of the paper's real-worker
experiment ("we reuse the label to each question for all approaches").

Labels are a pure function of ``(platform seed, question)``: worker
assignment and simulated-worker noise both draw from a per-question RNG
derived by stable hashing, so the answers to a question do not depend on
how many or in what order other questions were asked.  Together with the
exportable answer log this makes runs checkpoint/resume-safe — a resumed
run replays recorded answers and generates identical labels for new
questions, with no seed-reproducibility drift.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass
from itertools import islice

from repro import faults
from repro.crowd.interfaces import CrowdRetryPolicy, CrowdUnavailableError
from repro.crowd.worker import Oracle, SimulatedWorker, Worker

Question = tuple[str, str]


def _question_seed(seed: int, question: Question) -> int:
    """Stable 64-bit RNG seed derived from the platform seed and question."""
    key = f"{seed}\x1f{question[0]}\x1f{question[1]}".encode()
    return int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "big")


@dataclass(frozen=True, slots=True)
class LabelRecord:
    """One worker's label for one question."""

    question: Question
    worker_id: str
    label: bool
    worker_quality: float


class CrowdPlatform:
    """A micro-task market over a fixed worker pool.

    Parameters
    ----------
    workers:
        The worker pool; questions are assigned to random distinct subsets.
    truth:
        Gold standard used to generate worker answers — the set of matching
        pairs.  Any question not in the set is a true non-match.
    workers_per_question:
        Redundancy level (the paper uses 5).
    seed:
        Seed for worker assignment.
    retry_policy:
        Timeout/retry behaviour for label collection; the default retries
        a failing platform a couple of times with exponential backoff
        before raising :class:`CrowdUnavailableError`.
    """

    def __init__(
        self,
        workers: list[Worker],
        truth: set[Question],
        workers_per_question: int = 5,
        seed: int = 0,
        retry_policy: CrowdRetryPolicy | None = None,
    ):
        if not workers:
            raise ValueError("worker pool must not be empty")
        if workers_per_question < 1:
            raise ValueError("workers_per_question must be positive")
        self.workers = list(workers)
        self.truth = truth
        self.workers_per_question = min(workers_per_question, len(self.workers))
        self._seed = seed
        self.retry_policy = retry_policy or CrowdRetryPolicy()
        self._label_cache: dict[Question, list[LabelRecord]] = {}
        #: Total number of distinct questions ever published (billing unit).
        self.questions_asked = 0
        #: Total number of worker labels collected.
        self.labels_collected = 0

    # ------------------------------------------------------------------
    def _generate_labels(self, question: Question) -> list[LabelRecord]:
        """One attempt at collecting labels — a pure function of the seed."""
        truth = question in self.truth
        rng = random.Random(_question_seed(self._seed, question))
        assigned = rng.sample(self.workers, self.workers_per_question)
        return [
            LabelRecord(
                question,
                w.worker_id,
                w.answer(question, truth, rng=random.Random(rng.randrange(2**63))),
                w.quality,
            )
            for w in assigned
        ]

    def _labels_with_retry(self, question: Question) -> list[LabelRecord]:
        """Collect labels under the retry policy.

        Each attempt probes the ``crowd.answer`` fault site, so an
        injected platform failure exercises exactly this path.  Label
        generation is deterministic, so a retry reproduces the labels the
        failed attempt would have returned — recovery never changes
        answers, only latency.
        """
        from repro import obs

        policy = self.retry_policy
        last_error: Exception | None = None
        for attempt in range(policy.attempts):
            started = time.perf_counter()
            try:
                faults.check("crowd.answer", question=question, attempt=attempt)
                records = self._generate_labels(question)
            except faults.InjectedFault as exc:
                last_error = exc
                obs.count("crowd.retry")
                if attempt + 1 < policy.attempts:
                    time.sleep(policy.delay(attempt))
                continue
            if time.perf_counter() - started >= policy.slow_threshold:
                obs.count("crowd.slow")
            return records
        raise CrowdUnavailableError(
            f"crowd platform failed {policy.attempts} attempts for {question!r}"
        ) from last_error

    def ask(self, question: Question) -> list[LabelRecord]:
        """Publish ``question``; return its (possibly cached) labels.

        The first time a question is asked it is billed and assigned to
        ``workers_per_question`` distinct workers; subsequent asks reuse the
        recorded labels at no cost.  Recorded answers are never re-billed
        on retry: billing happens only after a successful collection.
        """
        cached = self._label_cache.get(question)
        if cached is not None:
            return cached
        records = self._labels_with_retry(question)
        self._label_cache[question] = records
        self.questions_asked += 1
        self.labels_collected += len(records)
        return records

    def ask_batch(self, questions: list[Question]) -> dict[Question, list[LabelRecord]]:
        """Publish a batch (one human–machine loop)."""
        return {q: self.ask(q) for q in questions}

    def majority_label(self, question: Question) -> bool:
        """Simple majority vote over the recorded labels for ``question``."""
        records = self.ask(question)
        positive = sum(1 for r in records if r.label)
        return positive * 2 > len(records)

    def reset_billing(self) -> None:
        """Zero the cost counters but keep cached labels (label reuse)."""
        self.questions_asked = 0
        self.labels_collected = 0

    # ------------------------------------------------------------------
    # Answer log (checkpoint/resume support)
    # ------------------------------------------------------------------
    @property
    def answer_log(self) -> dict[Question, list[LabelRecord]]:
        """Every recorded label so far, keyed by question (read-only view)."""
        return dict(self._label_cache)

    def recorded_questions(self, start: int = 0) -> list[Question]:
        """Questions with recorded labels in recording order, from ``start`` on.

        Recording order covers asked and replayed questions alike, so a
        caller that remembers how many it has seen gets exactly the
        questions recorded since.
        """
        return list(islice(self._label_cache, start, None))

    def export_answer_log(self, questions: list[Question] | None = None) -> list[dict]:
        """JSON-able log of recorded labels, ordered by question.

        ``questions`` limits the log to those questions (each must have
        recorded labels); by default it covers every recorded label.
        Feed the result to :meth:`load_answer_log` on a fresh platform to
        replay past answers instead of re-sampling workers.
        """
        return [
            {
                "question": list(question),
                "worker_id": record.worker_id,
                "label": record.label,
                "worker_quality": record.worker_quality,
            }
            for question in sorted(self._label_cache if questions is None else questions)
            for record in self._label_cache[question]
        ]

    def load_answer_log(self, log: list[dict]) -> None:
        """Replay recorded labels into the cache without billing them.

        Questions already cached are left untouched (their recorded labels
        win), matching the label-reuse protocol.
        """
        replayed: dict[Question, list[LabelRecord]] = {}
        for entry in log:
            question = (entry["question"][0], entry["question"][1])
            replayed.setdefault(question, []).append(
                LabelRecord(
                    question,
                    entry["worker_id"],
                    bool(entry["label"]),
                    float(entry["worker_quality"]),
                )
            )
        for question, records in replayed.items():
            self._label_cache.setdefault(question, records)

    # ------------------------------------------------------------------
    @classmethod
    def with_simulated_workers(
        cls,
        truth: set[Question],
        num_workers: int = 50,
        error_rate: float = 0.05,
        workers_per_question: int = 5,
        seed: int = 0,
    ) -> "CrowdPlatform":
        """Pool of fixed-error-rate workers (the Figure 3 setting)."""
        rng = random.Random(seed)
        workers: list[Worker] = [
            SimulatedWorker(f"w{i}", error_rate, seed=rng.randrange(2**31))
            for i in range(num_workers)
        ]
        return cls(workers, truth, workers_per_question, seed=rng.randrange(2**31))

    @classmethod
    def with_oracle(cls, truth: set[Question]) -> "CrowdPlatform":
        """Single perfect worker (ground-truth-label experiments)."""
        return cls([Oracle()], truth, workers_per_question=1)

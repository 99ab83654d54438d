"""The benchmark's workloads.

Every workload is a closed loop with one client: the next request goes
out only when the previous one has returned.  The simulated crowd
(``error_rate=0.05``) answers each batch instantly, so every second
measured is machine time the crowd would wait for.

``BENCHMARK.json`` gates on ``clustered-loop`` and ``clustered-stream``.
``dbpedia-service`` runs by hand only: its spread between runs of the
same code stayed above the regression bound (see README.md).
"""

from __future__ import annotations

from dataclasses import dataclass

#: Crowd error rate of every workload's simulated workers.
ERROR_RATE = 0.05


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str
    scale: float
    #: Fresh-process jobs per run.  A fixed count, so the deterministic
    #: metrics depend on the seed alone.
    jobs: int
    #: Speed probes the client runs after each batch (see ``job.py``);
    #: chosen so that every job takes at least ~60 of them.
    probes: int
    #: (questions, F1 rounded to 4 places) on dataset seed 0.
    expected: tuple[int, float]
    #: ``> 0`` makes this a stream workload: the root run happens in
    #: set-up, then this many deltas are applied through ``update``.
    deltas: int = 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload("dbpedia-service", "dbpedia_yago", 2.0, jobs=4, probes=6, expected=(164, 0.7478)),
        Workload("clustered-loop", "evolving", 16, jobs=4, probes=1, expected=(181, 0.9581)),
        Workload(
            "clustered-stream", "evolving", 6, jobs=5, probes=4, expected=(174, 0.9723), deltas=16
        ),
    )
}


def dataset_seeds(workload: Workload, seed: int) -> list[int]:
    """The dataset seeds of one run's jobs.

    The first job always runs dataset seed 0, whose questions and F1 are
    pinned in ``Workload.expected``; ``seed`` owns the block
    ``seed * 64 + 1 …`` for the others.
    """
    return [0] + [seed * 64 + i for i in range(1, workload.jobs)]

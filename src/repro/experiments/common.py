"""Shared infrastructure for the experiment drivers."""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.core import Remp, RempConfig
from repro.core.pipeline import PreparedState, RempResult
from repro.crowd import CrowdPlatform
from repro.datasets import load_dataset
from repro.datasets.registry import DISPLAY_NAMES
from repro.datasets.synthesis import DatasetBundle
from repro.partition import CrowdSpec, ParallelRunner
from repro.service.service import PreparedCache
from repro.store import RunStore
from repro.substrate import substrate_key

Pair = tuple[str, str]

#: Error rate of the simulated "real" MTurk workers (≥95% approval).
REAL_WORKER_ERROR_RATE = 0.05
#: Redundancy used throughout the paper.
WORKERS_PER_QUESTION = 5


@dataclass(slots=True)
class ExperimentResult:
    """A rendered table plus the raw values for tests and benches."""

    title: str
    headers: list[str]
    rows: list[list[str]]
    raw: dict = field(default_factory=dict)

    def render(self) -> str:
        widths = [
            max(len(self.headers[i]), *(len(r[i]) for r in self.rows)) if self.rows
            else len(self.headers[i])
            for i in range(len(self.headers))
        ]
        lines = [self.title, ""]
        header = "  ".join(h.ljust(w) for h, w in zip(self.headers, widths))
        lines.append(header)
        lines.append("-" * len(header))
        for row in self.rows:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)


def display_name(dataset: str) -> str:
    return DISPLAY_NAMES.get(dataset, dataset)


#: Process-wide prepared-state cache shared by every experiment driver and
#: benchmark repetition, keyed by :func:`repro.substrate.substrate_key` (a
#: digest of both KBs' content plus the config hash) and bounded like the
#: service's in-process level.
_PREPARED_CACHE = PreparedCache(8)
_ENV_STORE: RunStore | None = None


def _env_store() -> RunStore | None:
    """The SQLite store named by ``REPRO_STORE``, if the variable is set.

    Lets ``repro experiment`` / benchmark invocations share offline work
    across processes through :mod:`repro.store`.
    """
    global _ENV_STORE
    path = os.environ.get("REPRO_STORE")
    if not path:
        return None
    if _ENV_STORE is None or _ENV_STORE.path != path:
        _ENV_STORE = RunStore(path)
    return _ENV_STORE


def prepared_state(bundle: DatasetBundle, config: RempConfig | None = None) -> PreparedState:
    """Offline Remp artifacts for a bundle, via the prepared-state cache.

    Shared across approaches within one driver and across drivers within
    the process; with ``REPRO_STORE`` set, also persisted across
    processes.  Cache hits return the identical object, so approaches
    compared in one table really do share offline work.
    """
    key = substrate_key(bundle.kb1, bundle.kb2, config)
    state = _PREPARED_CACHE.get(key)
    if state is not None:
        return state
    store = _env_store()
    if store is not None:
        state = store.load_prepared(bundle.name, bundle.seed, bundle.scale, config)
        # The store key carries no KB content; a hand-built bundle can
        # collide with a canonical dataset's row.  Treat a stored state
        # whose KBs don't match this bundle as a miss (and recompute).
        if state is not None and substrate_key(state.kb1, state.kb2, config) != key:
            state = None
    if state is None:
        state = Remp(config or RempConfig()).prepare(bundle.kb1, bundle.kb2)
        if store is not None:
            store.save_prepared(bundle.name, bundle.seed, bundle.scale, config, state)
    _PREPARED_CACHE.put(key, state)
    return state


def real_worker_platform(bundle: DatasetBundle, seed: int = 0) -> CrowdPlatform:
    """The Table III crowd: high-quality workers, 5 labels per question."""
    return CrowdPlatform.with_simulated_workers(
        bundle.gold_matches,
        num_workers=50,
        error_rate=REAL_WORKER_ERROR_RATE,
        workers_per_question=WORKERS_PER_QUESTION,
        seed=seed,
    )


def error_rate_platform(
    bundle: DatasetBundle, error_rate: float, seed: int = 0
) -> CrowdPlatform:
    """The Figure 3 crowd: fixed error rate, 5 labels per question."""
    return CrowdPlatform.with_simulated_workers(
        bundle.gold_matches,
        num_workers=50,
        error_rate=error_rate,
        workers_per_question=WORKERS_PER_QUESTION,
        seed=seed,
    )


def partitioned_result(
    bundle: DatasetBundle,
    *,
    workers: int = 1,
    config: RempConfig | None = None,
    strategy: str = "remp",
    seed: int = 0,
    error_rate: float = 0.0,
    max_shard_size: int | None = None,
    target_shards: int | None = None,
    on_event=None,
) -> RempResult:
    """Run a bundle through the partition layer (:mod:`repro.partition`).

    Offline work comes from the shared prepared-state cache; the crowd
    is the service's (oracle at ``error_rate`` 0, else seeded simulated
    workers, derived per shard).  The merged result is identical for
    every ``workers`` value — experiments and benchmarks can fan out on
    all cores without perturbing reported numbers.
    """
    state = prepared_state(bundle, config)
    crowd = CrowdSpec(truth=bundle.gold_matches, error_rate=error_rate, seed=seed)
    kwargs = {} if target_shards is None else {"target_shards": target_shards}
    runner = ParallelRunner(
        config,
        seed=seed,
        workers=workers,
        strategy=strategy,
        max_shard_size=max_shard_size,
        on_event=on_event,
        **kwargs,
    )
    return runner.run(state, crowd)


def load(dataset: str, seed: int = 0, scale: float = 1.0) -> DatasetBundle:
    return load_dataset(dataset, seed=seed, scale=scale)


def percent(x: float) -> str:
    return f"{x * 100:.1f}%"

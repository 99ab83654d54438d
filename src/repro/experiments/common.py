"""Shared infrastructure for the experiment drivers."""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.core import Remp, RempConfig
from repro.core.pipeline import PreparedState
from repro.datasets import load_dataset
from repro.datasets.registry import DISPLAY_NAMES
from repro.datasets.synthesis import DatasetBundle
from repro.service.service import PreparedCache
from repro.store import RunStore
from repro.substrate import substrate_key

Pair = tuple[str, str]

#: Error rate of the simulated "real" MTurk workers (≥95% approval).
#: The crowd is the service's recipe, :class:`repro.partition.CrowdSpec`:
#: 50 workers, five labels per question.
REAL_WORKER_ERROR_RATE = 0.05


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
#: benchmark repetition, keyed like the service's by the content key
#: :func:`repro.substrate.substrate_key` and bounded like it.
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
        if _ENV_STORE is not None:
            # Close the store for the old path: closing is what folds its
            # WAL back into the file.
            _ENV_STORE.close()
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
        state = store.load_prepared(key)
    if state is None:
        state = Remp(config or RempConfig()).prepare(bundle.kb1, bundle.kb2)
        if store is not None:
            store.save_prepared(key, state)
    _PREPARED_CACHE.put(key, state)
    return state


def load(dataset: str, seed: int = 0, scale: float = 1.0) -> DatasetBundle:
    return load_dataset(dataset, seed=seed, scale=scale)


def percent(x: float) -> str:
    return f"{x * 100:.1f}%"

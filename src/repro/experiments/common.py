"""Shared infrastructure for the experiment drivers."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core import Remp, RempConfig
from repro.core.pipeline import PreparedState
from repro.datasets import load_dataset
from repro.datasets.registry import DISPLAY_NAMES
from repro.datasets.synthesis import DatasetBundle
from repro.substrate import SubstrateCache, substrate_key

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
#: benchmark repetition: the service's LRU of arenas, keyed by the content
#: key :func:`repro.substrate.substrate_key` and bounded like it.
_PREPARED_CACHE = SubstrateCache(8)


def prepared_state(bundle: DatasetBundle, config: RempConfig | None = None) -> PreparedState:
    """Offline Remp artifacts for a bundle, via the prepared-state cache.

    Shared across approaches within one driver and across drivers within
    the process.  Cache hits return the identical object, so approaches
    compared in one table really do share offline work.
    """
    arena = _PREPARED_CACHE.get_or_create(substrate_key(bundle.kb1, bundle.kb2, config))
    if arena.state is None:
        arena.attach(Remp(config or RempConfig()).prepare(bundle.kb1, bundle.kb2))
    return arena.state


def load(dataset: str, seed: int = 0, scale: float = 1.0) -> DatasetBundle:
    return load_dataset(dataset, seed=seed, scale=scale)


def percent(x: float) -> str:
    return f"{x * 100:.1f}%"

"""Benchmark the prepared-state cache against recomputing ``prepare``.

The whole point of :mod:`repro.store` is that a cache hit (SQLite read +
document deserialization) beats rerunning the offline stages.  These
benches measure both sides on the same dataset so the ratio is visible in
one ``pytest benchmarks/ --benchmark-only`` report.
"""

import pytest

from repro.core import Remp
from repro.datasets import load_dataset
from repro.store import RunStore
from repro.substrate import substrate_key

SCALE = 0.4


@pytest.fixture(scope="module")
def bundle():
    return load_dataset("iimb", seed=0, scale=SCALE)


def test_prepare_cold(benchmark, bundle):
    state = benchmark.pedantic(
        lambda: Remp().prepare(bundle.kb1, bundle.kb2), rounds=3, iterations=1
    )
    assert state.retained


def test_prepared_state_cache_hit(benchmark, bundle, tmp_path):
    store = RunStore(tmp_path / "bench.db")
    state = Remp().prepare(bundle.kb1, bundle.kb2)
    key = substrate_key(bundle.kb1, bundle.kb2, None)
    store.save_prepared(key, state)
    loaded = benchmark.pedantic(
        lambda: store.load_prepared(key), rounds=3, iterations=1
    )
    assert loaded is not None
    assert loaded.retained == state.retained
    assert loaded.priors == state.priors
    store.close()

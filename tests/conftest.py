"""Shared session-scoped dataset and prepared-state fixtures.

Dataset bundles are cheap to re-request (``load_dataset`` caches
process-wide), but ``Remp.prepare`` is not — candidate generation,
attribute matching, pruning and ER-graph construction dominate suite
wall-clock when every module prepares the same world independently.
These fixtures compute each (bundle, prepared state) pair once per
session; module fixtures alias them under their local names.

Prepared states are shared read-only: the loop copies what it mutates
(:class:`repro.core.LoopState` owns its priors and resolution sets), and
slicing/serialization build new containers.  Tests that need to mutate a
state must prepare their own.
"""

import faulthandler

import pytest

from repro.core import Remp
from repro.datasets import clustered_bundle, load_dataset


# ----------------------------------------------------------------------
# Suite hang ceiling
# ----------------------------------------------------------------------
#: Seconds after which a wedged suite dumps stacks and aborts (fallback
#: when pytest-timeout is absent; CI installs the plugin and passes
#: ``--timeout`` for per-test granularity instead).
SUITE_HANG_CEILING = 1800


def pytest_configure(config):
    if not config.pluginmanager.hasplugin("timeout"):
        # The fault/recovery tests exercise worker kills and queue
        # teardown; a deadlock there must fail the run loudly, not hang
        # it forever.  dump_traceback_later is the stdlib's watchdog.
        faulthandler.dump_traceback_later(SUITE_HANG_CEILING, exit=True)


def pytest_unconfigure(config):
    if not config.pluginmanager.hasplugin("timeout"):
        faulthandler.cancel_dump_traceback_later()


# ----------------------------------------------------------------------
# Dataset bundles
# ----------------------------------------------------------------------
@pytest.fixture(scope="session")
def bundle_iimb_02():
    return load_dataset("iimb", seed=0, scale=0.2)


@pytest.fixture(scope="session")
def bundle_iimb_03():
    return load_dataset("iimb", seed=0, scale=0.3)


@pytest.fixture(scope="session")
def bundle_iimb_04():
    return load_dataset("iimb", seed=0, scale=0.4)


@pytest.fixture(scope="session")
def clustered6_bundle():
    """The partition/stream suites' multi-component world."""
    return clustered_bundle(
        num_clusters=6, movies_per_cluster=3, seed=0, critics_per_cluster=1
    )


# ----------------------------------------------------------------------
# Prepared states (read-only; see module docstring)
# ----------------------------------------------------------------------
@pytest.fixture(scope="session")
def prepared_iimb_02(bundle_iimb_02):
    return Remp().prepare(bundle_iimb_02.kb1, bundle_iimb_02.kb2)


@pytest.fixture(scope="session")
def prepared_iimb_04(bundle_iimb_04):
    return Remp().prepare(bundle_iimb_04.kb1, bundle_iimb_04.kb2)


@pytest.fixture(scope="session")
def prepared_clustered6(clustered6_bundle):
    return Remp().prepare(clustered6_bundle.kb1, clustered6_bundle.kb2)

"""The end-to-end benchmark's trace hooks still resolve in the program.

``perfbench/tracing.py`` times each layer by wrapping named functions
and methods in place (``Installed._patch`` looks each one up as
``owner.__dict__[attr]``).  A rename under ``src/`` would make
``perfbench/run.py --trace 1`` fail at start-up; this test resolves
every ``TARGETS`` entry the same way, without installing a wrapper, so
the rename fails the test suite instead.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing_module(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses resolve their string annotations through sys.modules.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves(monkeypatch):
    targets = _tracing_module(monkeypatch).TARGETS
    assert targets
    for module_name, path, _span, _after in targets:
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        assert attr in owner.__dict__, f"{module_name}.{path} is gone"
        assert callable(owner.__dict__[attr]), f"{module_name}.{path}"

"""CI's bench-smoke knobs reach the benches they are set for.

A step of ``.github/workflows/ci.yml`` that sets a ``REPRO_BENCH_*``
variable in its ``env`` must run a ``benchmarks/bench_*.py`` file that
reads the name: a misspelled or stale knob would otherwise let its
bench run at its default scale without a word.  "Reads" means the name
is a string literal of the file, as in ``os.environ.get("NAME", ...)``;
a docstring that lists it does not count.

The workflow is read with the standard library (PyYAML is not a dev
dependency).  Its steps are the ``- `` list items; a step's ``env``
entries and ``run`` text are the lines indented under those keys.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"


def _indent(line: str) -> int:
    return len(line) - len(line.lstrip(" "))


def _block(lines: list[str], start: int) -> list[str]:
    """The lines indented under ``lines[start]``, blank lines included."""
    depth = _indent(lines[start])
    end = start + 1
    while end < len(lines) and (not lines[end].strip() or _indent(lines[end]) > depth):
        end += 1
    return lines[start + 1 : end]


def _step(body: list[str]) -> tuple[dict, str]:
    """``(env, run)`` of one step; ``body[0]`` holds its first key."""
    depth = _indent(body[0])
    env, run = {}, ""
    for index, line in enumerate(body):
        if not line.strip() or _indent(line) != depth:
            continue
        key, _, value = line.strip().partition(":")
        if key == "env":
            for entry in _block(body, index):
                if entry.strip():
                    name, _, setting = entry.strip().partition(":")
                    env[name] = setting.strip().strip('"')
        elif key == "run":
            run = "\n".join([value, *_block(body, index)])
    return env, run


def workflow_steps(text: str) -> list[tuple[dict, str]]:
    """``(env, run)`` of every step in a workflow document."""
    lines = text.splitlines()
    steps = []
    index = 0
    while index < len(lines):
        if not re.match(r"\s*- ", lines[index]):
            index += 1
            continue
        body = [lines[index].replace("- ", "  ", 1), *_block(lines, index)]
        steps.append(_step(body))
        index += len(body)
    return steps


def _literals(path: Path) -> set[str]:
    tree = ast.parse(path.read_text())
    return {
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }


def stray_knobs(text: str) -> list[str]:
    """``REPRO_BENCH_*`` names a step sets that none of its benches reads."""
    stray = []
    for env, run in workflow_steps(text):
        knobs = sorted(name for name in env if name.startswith("REPRO_BENCH_"))
        if not knobs:
            continue
        read: set[str] = set()
        for bench in re.findall(r"benchmarks/bench_\w+\.py", run):
            read |= _literals(ROOT / bench)
        stray.extend(name for name in knobs if name not in read)
    return stray


def test_every_ci_bench_knob_reaches_its_bench():
    text = WORKFLOW.read_text()
    assert any(
        name.startswith("REPRO_BENCH_") for env, _ in workflow_steps(text) for name in env
    ), "no step of the workflow sets a bench knob; the step parser lost them"
    assert stray_knobs(text) == []


def test_a_knob_no_bench_of_its_step_reads_is_flagged():
    text = """
jobs:
  test:
    steps:
      - uses: actions/checkout@v4
      - name: Benchmark smoke
        env:
          REPRO_BENCH_OBS_ROUNDS: "2"
          REPRO_BENCH_OBS_ROUND: "2"
        run: >
          python -m pytest benchmarks/bench_obs.py
          -q -s --benchmark-disable
      - name: Another bench
        env:
          REPRO_BENCH_CLUSTERS: "6"
          REPRO_BENCH_PREPARE_SCALE: "24"
          PYTHONHASHSEED: "0"
        run: python -m pytest benchmarks/bench_stream.py -q
"""
    steps = workflow_steps(text)
    assert [sorted(env) for env, _ in steps] == [
        [],
        ["REPRO_BENCH_OBS_ROUND", "REPRO_BENCH_OBS_ROUNDS"],
        ["PYTHONHASHSEED", "REPRO_BENCH_CLUSTERS", "REPRO_BENCH_PREPARE_SCALE"],
    ]
    assert "benchmarks/bench_obs.py" in steps[1][1]
    assert stray_knobs(text) == ["REPRO_BENCH_OBS_ROUND", "REPRO_BENCH_PREPARE_SCALE"]

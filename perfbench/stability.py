"""Stability mode: run the benchmark repeatedly and report each metric's spread.

Runs ``perfbench/run.py`` once per seed for every workload, alternating
between two checkouts A and B (ABAB…, then BABA… on the next seed), and
prints each metric's median, quartiles and spread — the distance between
the quartiles as a share of the median — per side, plus the shift of B's
median from A's against the metric's bound.  Without ``--b`` only A runs;
with ``--b`` naming A again, both sides run the same code, which measures
the benchmark's own noise: every spread (``setup_s`` aside, which is
judged by its shift alone) and every shift, ``setup_s`` included, should
sit well inside its bound.

    python3 perfbench/stability.py --workload clustered-loop --seeds 1-5
    python3 perfbench/stability.py --b . --seeds 1-10
    python3 perfbench/stability.py --a /path/to/parent --b . --seeds 1-10
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import machine_context

HERE = Path(__file__).resolve().parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(root: Path, workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{root} {workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / abs(med) if med else 0.0


def main(argv=None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", help="repeatable; default all")
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--a", type=Path, default=HERE.parent, help="checkout A")
    parser.add_argument("--b", type=Path, help="checkout B (default: none)")
    args = parser.parse_args(argv)
    sides = {"A": args.a.resolve()}
    if args.b is not None:
        sides["B"] = args.b.resolve()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    print(f"machine: {json.dumps(machine_context())}")
    print(f"sides={ {k: str(v) for k, v in sides.items()} } seeds={args.seeds} seconds={args.seconds}")

    worst_spread = worst_shift = 0.0
    for workload in workloads:
        values: dict[str, dict[str, list[float]]] = {side: {} for side in sides}
        order = "".join(sides)
        for i, seed in enumerate(_seeds(args.seeds)):
            for side in (order if i % 2 == 0 else order[::-1]):
                result = run_once(sides[side], workload, seed, args.seconds)
                if not result["correct"]:
                    print(f"  {workload} seed {seed} side {side}: NOT CORRECT {result}")
                for name, entry in result["metrics"].items():
                    values[side].setdefault(name, []).append(entry["value"])
        print(f"\n{workload}")
        print(f"  {'metric':26s} side {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'B/A-1':>8s} bound")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            med_a = None
            for side in sides:
                med, q1, q3, rel = spread(values[side][name])
                flags = []
                if name != "setup_s":
                    worst_spread = max(worst_spread, rel / bound)
                    if rel > bound / 3:
                        flags.append("spread over a third of the bound")
                shift = ""
                if med_a is None:
                    med_a = med
                else:
                    rel_shift = med / med_a - 1
                    worst_shift = max(worst_shift, abs(rel_shift) / bound)
                    shift = f"{rel_shift:+8.3f}"
                    if abs(rel_shift) > bound / 3:
                        flags.append("shift over a third of the bound")
                flag = f"  <- {'; '.join(flags)}" if flags else ""
                print(f"  {name:26s} {side:4s} {med:12.5g} {q1:12.5g} {q3:12.5g} {rel:8.3f} {shift:>8s} "
                      f"{bound}{flag}")
        print(f"  raw: {json.dumps(values)}")
    print(f"\nlargest spread / bound (setup_s excluded): {worst_spread:.3f}")
    if len(sides) > 1:
        print(f"largest |B/A median shift| / bound (setup_s included): {worst_shift:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

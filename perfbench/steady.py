"""Steadiness check of the benchmark: seeded repeats, spreads, exact counts.

    python3 perfbench/steady.py

Runs two sets. In each set and for each workload, ``run.py --trace 0``
runs once per seed 1..10 and ``run.py --trace 1`` once at the default
seed. Then, per end-to-end metric and workload:

* spread = (Q3 - Q1) / median over the ten seeds, with the quartiles of
  ``statistics.quantiles(values, n=4)``, must stay within the metric's
  bound from BENCHMARK.json (the aim is a third of it), ``setup_s``
  included;
* the two sets' medians may not differ by more than the bound, in either
  direction;
* every count metric of the traced runs (unit ``count`` or ``bytes``)
  must be identical between the sets.

Every run must report ``correct``. Exits 1 when any check fails.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(1, 11)
SETS = 2
EXACT_UNITS = ("count", "bytes")

sys.path.insert(0, HERE)
from workloads import DEFAULT_SEED  # noqa: E402


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=200,
    )
    if proc.returncode != 0:
        raise SystemExit(f"run.py {workload} seed {seed} trace {trace} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        config = json.load(handle)
    seconds = config["run_seconds"]
    problems: list[str] = []
    for workload in (w["name"] for w in config["workloads"]):
        sets = []
        for set_index in range(SETS):
            runs = [bench(workload, seed, seconds, 0) for seed in SEEDS]
            traced = bench(workload, DEFAULT_SEED, seconds, 1)
            for result in runs + [traced]:
                if not result["correct"]:
                    problems.append(f"{workload} set {set_index + 1}: a run is not correct")
            sets.append((runs, traced))
        print(workload)
        for metric in config["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for set_index, (runs, _) in enumerate(sets):
                values = [run["metrics"][name]["value"] for run in runs]
                medians.append(statistics.median(values))
                s = spread(values)
                flag = ""
                if s > bound:
                    flag = "  OVER BOUND"
                    problems.append(f"{workload} {name}: spread {s:.4f} > bound {bound}")
                elif s > bound / 3:
                    flag = "  over a third of the bound"
                print(f"  set {set_index + 1} {name:12s} median {medians[-1]:12.4f}  spread {s:.4f}"
                      f"  (bound {bound}){flag}")
            change = (medians[1] - medians[0]) / medians[0]
            print(f"  second median of {name} differs by {change:+.4f}")
            if abs(change) > bound:
                problems.append(f"{workload} {name}: second median differs by {change:+.4f}")
        first, second = (traced["metrics"] for _, traced in sets)
        for name, value in first.items():
            if value["unit"] in EXACT_UNITS and second[name]["value"] != value["value"]:
                problems.append(f"{workload} {name}: count {value['value']} then {second[name]['value']}")
        print(f"  traced counts compared between the sets at seed {DEFAULT_SEED}")
    for problem in problems:
        print(f"FAIL {problem}")
    print("steady" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

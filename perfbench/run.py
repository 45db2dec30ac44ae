"""Benchmark of folcan: one workload per call, every metric with its unit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; folcan is imported from its ``src``.

``--trace 0`` times the workload with tracing off and prints the
end-to-end metrics: ``setup_s`` (median over fresh interpreters that
import folcan and folcan.cli and generate the inputs, at reference
machine speed), ``ops_per_s``, ``op_p50_ms``, ``op_p90_ms`` and
``peak_rss_mb`` of the workload's child process. ``--trace 1`` runs, in
one child process, untraced and traced passes in turn for about 25 s, and
prints the per-layer metrics of the first traced pass (calls, self time
and counters) plus ``trace.overhead_frac`` = 1 - untraced rate / traced
rate, the median over traced passes of the estimate against the untraced
passes on either side.

Every operation's output is checked (see ``workloads.py``); the last line
of stdout is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``. Exits 2 without a result when the checkout holds no
folcan sources or a child process fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
DIGESTS = os.path.join(HERE, "digests.json")
CHILD_TIMEOUT_S = 150
SETUP_REPEATS = 15
# typical seconds of worker.calibrate() on the 2-core box the baseline was measured on
CALIBRATION_REFERENCE_S = 0.020

sys.path.insert(0, HERE)
import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
# every traced span reports .calls and .self_s
SPANS = tuple(
    f"{module}.{name}"
    for table in (tracing.LAYERS, tracing.CONSTRUCTORS)
    for module, names in table.items()
    for name in names
)
PER_LAYER = (
    tuple((f"{span}.{field}", unit) for span in SPANS for field, unit in (("calls", "count"), ("self_s", "s")))
    + (
        ("bounds.enumerate_baskets.yielded", "count"),
        ("bounds.enumerate_baskets.self_s", "s"),
        ("riemann_roch.integrality_check.accept_ratio", "ratio"),
        ("bounds.functions", "count"),
        ("bounds.witnesses", "count"),
        ("serialization.dumps.bytes", "bytes"),
        ("trace.pass_cpu_s", "s"),
        ("trace.unwrapped_s", "s"),
        ("trace.overhead_frac", "ratio"),
    )
)


class ChildFailed(Exception):
    pass


def run_workload(args: list[str]) -> dict:
    """Run the worker to completion and return the JSON on its last line."""
    proc = subprocess.run(
        [sys.executable, WORKER] + args,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        cwd=ROOT,
    )
    if proc.returncode != 0:
        raise ChildFailed(f"worker {' '.join(args)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def speed_scales(result: dict) -> list[float]:
    """Per pass: reference calibration time over the pass's median calibration.

    Multiplying a pass's times by its scale restates them at the
    reference speed of the machine, so a pass run while the host was
    slow compares with one run while it was fast.
    """
    return [CALIBRATION_REFERENCE_S / statistics.median(cals) for cals in result["calibration_s"]]


def per_pass_median(result: dict, statistic, scaled: bool = True) -> float:
    """Median over the run's passes of ``statistic(latencies, pass seconds)``.

    Every pass runs the same operations, so per-pass figures compare, and
    their median discards a pass slowed by the rest of the machine.
    """
    scales = speed_scales(result) if scaled else [1.0] * len(result["pass_s"])
    return statistics.median(
        statistic([t * k for t in lat], sec * k)
        for lat, sec, k in zip(result["latencies_s"], result["pass_s"], scales)
    )


def ops_per_second(latencies: list[float], seconds: float) -> float:
    return len(latencies) / seconds


def percentile(samples: list[float], q: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def end_to_end(name: str, seed: int, seconds: int) -> tuple[dict, dict]:
    result = run_workload(
        ["--workload", name, "--seed", str(seed), "--seconds", str(seconds), "--digests", DIGESTS]
    )
    # the workload child is the only child waited for so far
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    setup_args = ["--workload", name, "--seed", str(seed), "--setup-only"]
    run_workload(setup_args)  # writes bytecode caches, as any earlier call would have
    setups = [run_workload(setup_args) for _ in range(SETUP_REPEATS)]
    metrics = {
        "setup_s": statistics.median(
            s["setup_s"] * CALIBRATION_REFERENCE_S / statistics.median(s["calibration_s"]) for s in setups
        ),
        "ops_per_s": per_pass_median(result, ops_per_second),
        "op_p50_ms": per_pass_median(result, lambda lat, sec: 1000 * percentile(lat, 50)),
        "op_p90_ms": per_pass_median(result, lambda lat, sec: 1000 * percentile(lat, 90)),
        "peak_rss_mb": peak_rss_mb,
    }
    return metrics, result


def per_layer(name: str, seed: int) -> tuple[dict, dict]:
    traced = run_workload(["--workload", name, "--seed", str(seed), "--trace", "--digests", DIGESTS])
    layers, counters = traced["layers"], traced["counters"]
    unused = {"calls": 0, "self_s": 0.0, "true": 0}
    metrics: dict[str, float] = {}
    for span in SPANS:
        metrics[f"{span}.calls"] = layers.get(span, unused)["calls"]
        metrics[f"{span}.self_s"] = layers.get(span, unused)["self_s"]
    metrics["bounds.enumerate_baskets.yielded"] = counters.get("bounds.enumerate_baskets.yielded", 0)
    metrics["bounds.enumerate_baskets.self_s"] = layers.get("bounds.enumerate_baskets", unused)["self_s"]
    check = layers.get("riemann_roch.integrality_check", unused)
    metrics["riemann_roch.integrality_check.accept_ratio"] = check["true"] / check["calls"] if check["calls"] else 0.0
    for key in ("bounds.functions", "bounds.witnesses", "serialization.dumps.bytes"):
        metrics[key] = counters.get(key, 0)
    metrics["trace.pass_cpu_s"] = traced["cpu_s"]
    metrics["trace.unwrapped_s"] = traced["cpu_s"] - sum(
        layer["self_s"] for span, layer in layers.items() if span != "bench.op"
    )
    metrics["trace.overhead_frac"] = statistics.median(overhead_estimates(traced))
    return metrics, traced


def overhead_estimates(traced: dict) -> list[float]:
    """Per traced pass: 1 - untraced rate / traced rate of its operations.

    The passes alternate untraced, traced, ..., untraced, and each traced
    pass is compared with the untraced passes on either side, so a drift
    of the machine's speed cancels to first order and a change of speed
    between passes spoils only the estimates next to it. Times are not
    rescaled: the calibration loop speeds up more than the workload in the
    host's fast spells and would add error.
    """
    seconds = [sum(lat) for lat in traced["latencies_s"]]
    return [1 - (seconds[k - 1] + seconds[k + 1]) / 2 / seconds[k] for k in range(1, len(seconds), 2)]


def report(name: str, trace: bool, metrics: dict, child: dict) -> None:
    units = dict(PER_LAYER if trace else END_TO_END)
    digests = "checked" if child["digests_checked"] else "not checked (not the default seed)"
    print(f"workload {name}  seed {child['seed']}  inputs sha256 {child['inputs_digest']}")
    print(
        f"  {child['passes']} pass(es) x {child['ops_per_pass']} ops = {child['attempted']} ops"
        f" in {sum(child['pass_s']):.3f} s; digests.json {digests}"
    )
    for message in child["failures"]:
        print(f"    FAIL {message}")
    print(f"  failed_frac = {child['failed'] / child['attempted']} ({child['failed']}/{child['attempted']})")
    if trace:
        pass_s = metrics["trace.pass_cpu_s"]
        print(f"  {'span':44s} {'calls':>10s} {'self_s':>10s} {'share':>7s}")
        rows = [(span, metrics[f"{span}.calls"]) for span in SPANS]
        rows.append(("bounds.enumerate_baskets", metrics["bounds.enumerate_baskets.yielded"]))
        for span, calls in rows:
            self_s = metrics[f"{span}.self_s"]
            print(f"  {span:44s} {calls:>10d} {self_s:>10.4f} {self_s / pass_s:>7.1%}")
        estimates = overhead_estimates(child)
        straddle = min(estimates) < 0 < max(estimates)
        print(
            f"  overhead per traced pass: {', '.join(f'{e:+.3f}' for e in estimates)}"
            + ("; they straddle 0, so the overhead is below what this run resolves" if straddle else "")
        )
    else:
        per_pass = child["ops_per_pass"]
        print(
            f"  latency samples: {per_pass} per pass, beyond p90 {per_pass - math.ceil(0.9 * per_pass)};"
            f" timing metrics are medians over {child['passes']} passes"
        )
        print(
            f"  machine speed scale per pass: {', '.join(f'{k:.3f}' for k in speed_scales(child))};"
            f" unscaled ops_per_s = {per_pass_median(child, ops_per_second, scaled=False)} 1/s"
        )
    for key, value in metrics.items():
        print(f"  {key} = {value} {units[key]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="folcan benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for required in ("src/folcan/__init__.py", "src/folcan/cli.py"):
        if not os.path.isfile(os.path.join(ROOT, required)):
            print(f"no folcan sources: {required} is missing under {ROOT}", file=sys.stderr)
            return 2
    try:
        if args.trace:
            metrics, child = per_layer(args.workload, args.seed)
        else:
            metrics, child = end_to_end(args.workload, args.seed, args.seconds)
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"benchmark child failed: {exc}", file=sys.stderr)
        return 2
    report(args.workload, bool(args.trace), metrics, child)
    units = dict(PER_LAYER if args.trace else END_TO_END)
    print(
        json.dumps(
            {
                "correct": child["failed"] == 0,
                "attempted": child["attempted"],
                "failed": child["failed"],
                "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

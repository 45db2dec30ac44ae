"""Child process of the benchmark: one workload, one closed-loop client.

    python3 perfbench/worker.py --workload NAME --seed N
        (--seconds S | --passes N | --trace | --setup-only) [--digests FILE]

Imports folcan from the ``src`` next to this directory, generates the workload's inputs from the
seed, warms up, then runs whole passes until ``--seconds`` have elapsed
(or exactly ``--passes``), timing each operation. ``--trace`` runs
untraced and traced passes in turn instead (traced: every public function
of every module wrapped, see ``tracing.py``). Outputs are then checked:
each operation of the first pass against the workload's own oracle, each
later pass against the first by digest, and, for the default seed, every
digest against the checked-in ``digests.json``. Prints one JSON object on
its last line.
"""

from __future__ import annotations

import os
import sys
import time

# set-up time starts before anything folcan imports is loaded
_T0 = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)
import folcan  # noqa: E402
import folcan.cli  # noqa: E402

IMPORT_S = time.perf_counter() - _T0

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import tempfile  # noqa: E402
from fractions import Fraction  # noqa: E402

sys.path.insert(0, HERE)
import tracing  # noqa: E402
import workloads as wl  # noqa: E402


def pass_calls(workload):
    """Yield (op, call) in pass order; call() -> (exit code, stdout, stderr).

    chain_intersect builds each resolution between its operations: that
    time counts toward the pass but toward no operation's latency.
    """
    if workload.name != "chain_intersect":
        for op in workload.ops:
            yield op, lambda op=op: wl.run_cli(folcan.cli, op.argv)
        return
    sm, ec = folcan.surface_model, folcan.exact_core
    workload.built = []
    for res in workload.resolutions:
        n = len(res.gram)
        try:
            model = sm.SurfaceModel(tuple(f"c{i}" for i in range(n)), ec.SymmetricPairing.from_rows(res.gram))
            handle = sm.ResolutionData(model, res.exceptional)
        except Exception as exc:  # every query of this resolution fails
            handle = exc
        workload.built.append(handle)
        for op in res.ops:
            yield op, lambda op=op, handle=handle: _weil(sm, handle, op)


def _weil(sm, handle, op):
    if isinstance(handle, Exception):
        raise handle
    value = sm.weil_intersect(handle, *op.query)
    return 0, wl.fmt(value) + "\n", ""


CALIBRATE_EVERY_S = 0.5
# calibrations after a set-up, so run.py can restate set-up time at reference speed
SETUP_CALIBRATIONS = 3


def calibrate() -> float:
    """Seconds a fixed loop of Fraction, dict and call work takes right now.

    The machine's speed drifts by 10-40% over tens of seconds; this loop,
    run inside every pass, slows with it and lets ``run.py`` scale each
    pass to a reference speed. It never calls folcan.
    """
    start = time.perf_counter()
    acc, table = Fraction(0), {}
    for i in range(1, 2500):
        acc += Fraction(i % 7, i % 5 + 1) * Fraction(3, 4)
    for i in range(10000):
        table[i % 100] = table.get(i % 100, 0) + i
    return time.perf_counter() - start


def run_passes(workload, seconds: float, passes: int, tracer=None):
    """Whole passes until ``seconds`` elapse, or exactly ``passes`` of them.

    Returns the wall seconds of each pass, the calibration times of each
    pass, the CPU seconds of all passes, the per-operation latencies and
    output digests of each pass, and the full results of the first pass.
    Neither the wall nor the CPU seconds include calibration.
    """
    pass_s: list[float] = []
    cal_s: list[list[float]] = []
    latencies: list[list[float]] = []
    digests: list[list[str]] = []
    first: list[tuple] = []
    perf = time.perf_counter
    start, cpu_start = perf(), time.process_time()
    cal_cpu = 0.0

    def timed_calibration() -> float:
        nonlocal cal_cpu
        cpu = time.process_time()
        wall = calibrate()
        cal_cpu += time.process_time() - cpu
        return wall

    while True:
        pass_start = perf()
        times, outputs, cals = [], [], [timed_calibration()]
        last_cal = perf()
        for op, call in pass_calls(workload):
            t0 = perf()
            try:
                result = call() if tracer is None else tracer.span("bench.op", call)
            except Exception as exc:
                result = (-1, "", f"{type(exc).__name__}: {exc}")
            times.append(perf() - t0)
            outputs.append(wl.output_digest(result[0], result[1]))
            if not digests:
                first.append(result)
            if perf() - last_cal >= CALIBRATE_EVERY_S:
                cals.append(timed_calibration())
                last_cal = perf()
        pass_s.append(perf() - pass_start - sum(cals))
        cal_s.append(cals)
        latencies.append(times)
        digests.append(outputs)
        if len(digests) == passes or (passes == 0 and perf() - start >= seconds):
            break
    return pass_s, cal_s, time.process_time() - cpu_start - cal_cpu, latencies, digests, first


TRACE_SECONDS = 25.0


def traced_passes(workload):
    """Untraced and traced passes in turn, first and last untraced.

    Alternates until ``TRACE_SECONDS`` have elapsed, with at least one
    traced pass. The first traced pass gives the spans, so the counts do
    not depend on how many passes fit; all passes give the rates compared
    in ``trace.overhead_frac``. Alternating them makes a drift of the
    machine's speed cancel to first order.
    """
    start = time.perf_counter()
    results = [run_passes(workload, 0, 1)]
    first_tracer = None
    while first_tracer is None or time.perf_counter() - start < TRACE_SECONDS:
        tracer = tracing.Tracer()
        uninstall = tracing.install(tracer)
        try:
            results.append(run_passes(workload, 0, 1, tracer))
        finally:
            uninstall()
        first_tracer = first_tracer or tracer
        results.append(run_passes(workload, 0, 1))
    pass_s = [r[0][0] for r in results]
    cal_s = [r[1][0] for r in results]
    cpu = results[1][2]
    latencies = [r[3][0] for r in results]
    digests = [r[4][0] for r in results]
    return first_tracer, (pass_s, cal_s, cpu, latencies, digests, results[0][5])


def count_failures(workload, digests, first, expected_digests):
    """Failed operations over all passes, and a message per failing operation.

    An operation of the first pass fails its oracle check or, for the
    default seed, its checked-in digest; in a later pass it fails when its
    output differs from the first pass or repeats a failing one.
    """
    bad: dict[int, str] = {}
    for i, (op, result) in enumerate(zip(workload.ops, first)):
        try:
            op.check(*result)
        except Exception as exc:
            bad[i] = f"{op.label}: {type(exc).__name__}: {exc}"
    reference = digests[0]
    if expected_digests is not None:
        if len(expected_digests) != len(reference):
            bad.setdefault(0, "digests.json lists another number of operations")
        for i, (a, b) in enumerate(zip(reference, expected_digests)):
            if a != b:
                bad.setdefault(i, f"{workload.ops[i].label}: output digest differs from digests.json")
    if workload.name == "chain_intersect":
        # folcan's own pullbacks, checked with the benchmark's arithmetic
        for res, handle in zip(workload.resolutions, workload.built):
            if isinstance(handle, Exception):
                continue
            u = res.ops[0].query[0]
            index = workload.ops.index(res.ops[0])
            try:
                pulled = folcan.surface_model.mumford_pullback(handle, u)
                gram = [[Fraction(x) for x in row] for row in res.gram]
                wl.check_pullback(gram, set(res.exceptional), [Fraction(x) for x in u], list(pulled))
            except Exception as exc:
                bad.setdefault(index, f"mumford_pullback: {type(exc).__name__}: {exc}")
    first_bad = set(bad)
    failed = len(first_bad)
    for later in digests[1:]:
        for i, (a, b) in enumerate(zip(reference, later)):
            if a != b:
                bad.setdefault(i, f"{workload.ops[i].label}: output differs between passes")
            if a != b or i in first_bad:
                failed += 1
    return failed, bad


def layer_metrics(tracer) -> dict:
    table = tracing.span_table(tracer.names, tracer.kind, tracer.parent, tracer.start, tracer.end, tracer.flag)
    layers = {}
    for name, (calls, self_s, trues) in sorted(table.items()):
        layers[name] = {"calls": calls, "self_s": self_s, "true": trues}
    return {"layers": layers, "counters": dict(sorted(tracer.counters.items())), "spans": len(tracer.start)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--seconds", type=float, help="run whole passes for this long")
    mode.add_argument("--passes", type=int, help="run exactly this many passes")
    mode.add_argument("--trace", action="store_true", help="untraced and traced passes in turn")
    mode.add_argument("--setup-only", action="store_true", help="time the set-up alone")
    parser.add_argument("--digests", default=None, help="JSON file of per-operation digests for the default seed")
    args = parser.parse_args(argv)

    if not os.path.abspath(folcan.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"folcan imported from {folcan.__file__}, not from {SRC}")
    scratch = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=scratch)
    try:
        start = time.perf_counter()
        workload = wl.generate(args.workload, args.seed, workdir)
        if args.setup_only:
            setup_s = IMPORT_S + time.perf_counter() - start
            cals = [calibrate() for _ in range(SETUP_CALIBRATIONS)]
            print(json.dumps({"setup_s": setup_s, "calibration_s": cals}))
            return 0
        for op, call in pass_calls(workload.warmup):
            call()
        tracer = None
        if args.trace:
            tracer, (pass_s, cal_s, cpu, latencies, digests, first) = traced_passes(workload)
        else:
            pass_s, cal_s, cpu, latencies, digests, first = run_passes(workload, args.seconds, args.passes or 0)
        expected = None
        if args.digests is not None and args.seed == wl.DEFAULT_SEED:
            with open(args.digests, encoding="utf-8") as handle:
                expected = json.load(handle)[args.workload]
        failed, bad = count_failures(workload, digests, first, expected)
        result = {
            "workload": workload.name,
            "seed": args.seed,
            "inputs_digest": workload.inputs_digest,
            "ops_per_pass": len(workload.ops),
            "passes": len(digests),
            "attempted": sum(map(len, latencies)),
            "failed": failed,
            "failures": [bad[i] for i in sorted(bad)][:20],
            "digests_checked": expected is not None,
            "pass_s": pass_s,
            "calibration_s": cal_s,
            "cpu_s": cpu,
            "latencies_s": latencies,
            "digests": digests[0],
        }
        if tracer is not None:
            result.update(layer_metrics(tracer))
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())

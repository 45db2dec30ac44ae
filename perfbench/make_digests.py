"""Rewrite digests.json: per-operation output digests at the default seed.

    python3 perfbench/make_digests.py

Run from the root of a checkout whose outputs are known good (every
operation passes its oracle check; the script refuses otherwise). The
benchmark compares each run at the default seed against this file.
"""

from __future__ import annotations

import json
import os
import sys

import run
import workloads


def main() -> int:
    digests = {}
    for name in workloads.WORKLOADS:
        result = run.run_workload(["--workload", name, "--seed", str(workloads.DEFAULT_SEED), "--passes", "1"])
        if result["failed"]:
            print(f"{name}: {result['failed']} failed operations: {result['failures']}", file=sys.stderr)
            return 1
        digests[name] = result["digests"]
    with open(run.DIGESTS, "w", encoding="utf-8") as handle:
        json.dump({"seed": workloads.DEFAULT_SEED, **digests}, handle, indent=0, sort_keys=True)
        handle.write("\n")
    print(f"wrote {os.path.relpath(run.DIGESTS)}: " + ", ".join(f"{k} {len(v)}" for k, v in digests.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())

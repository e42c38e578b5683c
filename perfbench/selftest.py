#!/usr/bin/env python3
"""The benchmark's own test: every workload once at a held-out seed.

    python3 perfbench/selftest.py [--seed N]

Fails (exit 1) when a run errors, misses its target or fails any other
output check. The targets were chosen on other seeds; this seed was
never used to tune them.
"""

import argparse
import json
import subprocess
import sys

from run import ROOT, WORKLOADS, run_seconds

HELD_OUT_SEED = 918273


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--seed", type=int, default=HELD_OUT_SEED)
    args = p.parse_args()
    failures = []
    for w in WORKLOADS:
        cmd = [sys.executable, "perfbench/run.py", "--workload", w,
               "--seed", str(args.seed), "--seconds", str(run_seconds()), "--trace", "0"]
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = r.stdout.strip().splitlines()
        if r.returncode != 0 or not lines:
            failures.append(f"{w}: exit code {r.returncode}")
            continue
        result = json.loads(lines[-1])
        status = "ok" if result["correct"] else "FAILED"
        print(f"{w}: {status} ({result['failed']} of {result['attempted']} operations failed)")
        if not result["correct"]:
            failures.append(w)
    if failures:
        print("selftest failed: " + ", ".join(failures))
        return 1
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

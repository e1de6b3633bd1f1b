#!/usr/bin/env python3
"""perfbench smoke run with pinned witnesses.

Runs perfbench's own tests, then each workload once for one second, and
fails unless every run reports success and prints its pinned witnesses:

  * the last stdout line is JSON with "correct": true and "failed": 0;
  * the witness line holds every pinned `name=value` field below.

perfbench exits 0 even when its checks fail, so its exit status alone
proves nothing; the witnesses are the simulation's own outputs (event
count, goodput, plan digests), which no speed-up may move.

Usage (from the repository root):
  python3 tools/perfbench_smoke.py

Exit status: 0 = pass, 1 = a check failed, 2 = perfbench did not run.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = [sys.executable, os.path.join(ROOT, "perfbench", "run.py")]

# workload -> witness fields that must appear verbatim on its witness line.
WITNESSES = {
    "planning_day": ["plan_digest=0xfb968cb0fae97c4f",
                     "mnet_peak_gain_pct=29.141870393055395"],
    "testbed_fig16": ["sim.events=7839939", "aggregate_mbps=2088.543626666667"],
    "fleet_cycle": ["first_tick_digest=0x14b9a43f50cca8b2",
                    "plan_digest=0xe4ce48a1db0a5298"],
}


def check_workload(name, pinned):
    proc = subprocess.run(
        RUN + ["--workload", name, "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        print(f"{name}: perfbench exited {proc.returncode} with {len(lines)} lines")
        return None
    problems = []
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return [f"last line is not JSON: {lines[-1]!r}"]
    if result.get("correct") is not True:
        problems.append(f"correct={result.get('correct')!r}")
    if result.get("failed") != 0:
        problems.append(f"failed={result.get('failed')!r}")
    fields = set()
    for line in lines:
        if line.strip().startswith("witness:"):
            fields.update(line.split()[1:])
    for want in pinned:
        if want not in fields:
            problems.append(f"witness {want} missing (witness fields: {sorted(fields)})")
    return problems


def main():
    if subprocess.run(RUN + ["--self-test"], cwd=ROOT).returncode != 0:
        print("perfbench self-test failed")
        return 1
    failed = False
    for name, pinned in WITNESSES.items():
        problems = check_workload(name, pinned)
        if problems is None:
            return 2
        for p in problems:
            print(f"{name}: {p}")
        print(f"{name}: {'FAIL' if problems else 'ok'}")
        failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

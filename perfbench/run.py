#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

    python3 perfbench/run.py --workload planning_day --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root. The first call configures and builds the
repository's libraries plus the benchmark (Release) under the build
directory ($CARGO_TARGET_DIR if set, else .bench_build); later calls only
rebuild what changed. Build output goes to stderr so the benchmark's last
stdout line stays its JSON result. Traced runs (--trace 1) also write their
spans as Chrome trace-event JSON under <build dir>/traces/.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no src/ next to perfbench/; run from a full checkout")
    out = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    cmake_dir = os.path.join(out, "perfbench-release")
    jobs = str(max(1, min(len(os.sched_getaffinity(0)), 4)))
    steps = []
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", cmake_dir, "-j", jobs, "--target"] + targets)
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return out, cmake_dir


def main(argv):
    if argv == ["--self-test"]:
        _, cmake_dir = build(["perfbench_tests"])
        return subprocess.run([os.path.join(cmake_dir, "perfbench_tests")]).returncode
    out, cmake_dir = build(["perfbench"])
    args = list(argv)
    if "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"]:
        workload = args[args.index("--workload") + 1] if "--workload" in args else "unknown"
        seed = args[args.index("--seed") + 1] if "--seed" in args else "1"
        os.makedirs(os.path.join(out, "traces"), exist_ok=True)
        args += ["--trace-out", os.path.join(out, "traces", "%s-seed%s.json" % (workload, seed))]
    sys.stdout.flush()
    return subprocess.run([os.path.join(cmake_dir, "perfbench")] + args).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

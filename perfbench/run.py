#!/usr/bin/env python3
"""Builds the benchmark from source, then runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Cargo output goes to stderr; the benchmark's stdout passes through
unchanged, so its last line is the JSON result. The build lands in
$CARGO_TARGET_DIR (default: .bench_build). See perfbench/README.md.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

# Environment variables that select another code path in the program.
PATH_SELECTORS = ("PPC_TRANSPORT", "PPC_DELIVERY")

# Seconds a run may take beyond its timed phases (scenario, oracle,
# set-up, teardown) before it is taken to have hung and is killed.
RUN_MARGIN_S = 60


def time_limit(args):
    """The longest a run with these arguments may take, or None if the
    arguments are malformed (the benchmark itself then reports them)."""
    try:
        seconds = float(args[args.index("--seconds") + 1])
        phases = 2 if args[args.index("--trace") + 1] == "1" else 1
    except (ValueError, IndexError):
        return None
    return phases * seconds + RUN_MARGIN_S


def main() -> int:
    for var in PATH_SELECTORS:
        if var in os.environ:
            print(
                f"perfbench: {var} is set; it selects a different code path than "
                "the one this benchmark measures. Unset it and rerun.",
                file=sys.stderr,
            )
            return 2
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            str(HERE / "Cargo.toml"),
        ],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: the build failed", file=sys.stderr)
        return build.returncode or 1
    exe = target / "release" / "perfbench"
    # Every thread of the run shares one CPU. On the shared 2-vCPU VM the
    # bounds were set on, a tcp_sealed_bulk run spread over both vCPUs
    # took anywhere from 0.68 to 1.26 s per request within one hour;
    # pinned runs moved by a quarter at most.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    limit = time_limit(sys.argv[1:])
    try:
        return subprocess.run([str(exe), *sys.argv[1:]], env=env, timeout=limit).returncode
    except subprocess.TimeoutExpired:
        # subprocess.run has killed and reaped the run.
        print(f"perfbench: the run took longer than {limit} s and was killed", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

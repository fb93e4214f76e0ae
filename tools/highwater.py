#!/usr/bin/env python3
"""Which kernel of `kernel_cold_sweep` sets its peak RSS.

    python3 tools/highwater.py --workload kernel_cold_sweep [--seed N] [--quick]
runs one fresh process with the bench worker's environment (every
`REPRO_*` variable cleared, `PYTHONHASHSEED=0`).  It does the worker's
set-up (build the workload of `bench/workloads.py` from the seed, one warm
pass), then runs the sweep's kernels one by one as a timed pass does, each
on a fresh platform.  Per kernel it prints the process's high-water mark
(`ru_maxrss`), how far that kernel raised it, and the resident set left
after it (`/proc/self/statm`).  The last line gives the peak, which is
the workload's `peak_rss_mb`, the kernel that last raised it and the
kernel that raised it most.  `--quick` runs the bench's `--quick` sizes
(CI).  Nothing under `bench/` is changed.
"""
import argparse
import os
import resource
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
PAGE_BYTES = os.sysconf("SC_PAGE_SIZE")
MB = 1 << 20


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _rss_mb() -> float:
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * PAGE_BYTES / MB


def measure(workload_name: str, seed: int, quick: bool) -> None:
    """The measurement itself: run in the fresh process only."""
    sys.path[:0] = [str(HERE / "bench"), str(HERE / "src")]
    import workloads                 # bench/workloads.py

    workload = workloads.build(workload_name, seed, quick)
    workload.run_pass(warm=True)
    size = "quick" if quick else "full"
    print(f"{workload_name} seed {seed} ({size} size), after set-up: "
          f"maxrss {_maxrss_mb():.1f} MB, rss {_rss_mb():.1f} MB")
    print(f"{'kernel':<12}{'maxrss_mb':>11}{'step_mb':>9}{'rss_mb':>8}")
    steps = []
    # the loop of KernelColdSweep.run_pass: the previous kernel's platform
    # is still held while the next one is built
    for kernel, module, data, runner in workload.kernels:
        before = _maxrss_mb()
        platform = workloads.repro_workloads.make_platform(
            backend=workloads.ENGINE)
        result = getattr(module, runner)(platform, data)
        if not result.correct:
            raise SystemExit(f"{kernel}: wrong result")
        after = _maxrss_mb()
        steps.append((after - before, kernel))
        print(f"{kernel:<12}{after:>11.1f}{after - before:>+9.1f}"
              f"{_rss_mb():>8.1f}")
    raised = [(step, kernel) for step, kernel in steps if step > 0]
    if not raised:
        print(f"peak {_maxrss_mb():.1f} MB, reached in the set-up")
        return
    last_step, last = raised[-1]
    top_step, top = max(raised)
    print(f"peak {_maxrss_mb():.1f} MB, reached in {last} ({last_step:+.1f}"
          f" MB); largest step {top} ({top_step:+.1f} MB)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=["kernel_cold_sweep"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--in-process", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.in_process:
        measure(args.workload, args.seed, args.quick)
        return 0
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    command = [sys.executable, __file__, "--in-process",
               "--workload", args.workload, "--seed", str(args.seed)]
    return subprocess.run(command + ["--quick"] * args.quick,
                          env=env).returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Where a workload's peak RSS comes from: per sweep kernel, or per pass.

    python3 tools/highwater.py --workload W [--seed N] [--quick]
runs one fresh process with the bench worker's environment (every
`REPRO_*` variable cleared, `PYTHONHASHSEED=0`).  It does the worker's
set-up (build the workload of `bench/workloads.py` from the seed, one warm
pass), then:

* `kernel_cold_sweep`: runs the sweep's kernels one by one as a timed pass
  does, each on a fresh platform.  Per kernel it prints the process's
  high-water mark (`ru_maxrss`), how far that kernel raised it, and the
  resident set left after it (`/proc/self/statm`).  The last line gives
  the peak, which is the workload's `peak_rss_mb`, the kernel that last
  raised it and the kernel that raised it most.
* a serving workload: runs five timed passes on the one platform, as a
  long-running server would.  Per pass it prints `ru_maxrss`, the
  resident set, the `PhysicalMemory` pages, the pass's trace-cache hits
  and misses and its wall time; the last line gives what a pass added on
  average from pass 1 to 5.  A platform in its steady state adds no page
  and misses no trace after the first pass.

`--quick` runs the bench's `--quick` sizes (CI).  Nothing under `bench/`
is changed.
"""
import argparse
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
PAGE_BYTES = os.sysconf("SC_PAGE_SIZE")
MB = 1 << 20


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _rss_mb() -> float:
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * PAGE_BYTES / MB


#: Timed passes a serving workload runs on its one platform.
SERVING_PASSES = 5


def _bench():
    """``bench/workloads.py``, importable from this tool."""
    sys.path[:0] = [str(HERE / "bench"), str(HERE / "src")]
    import workloads
    return workloads


def measure(workload_name: str, seed: int, quick: bool) -> None:
    """The measurement itself: run in the fresh process only."""
    workloads = _bench()
    workload = workloads.build(workload_name, seed, quick)
    workload.run_pass(warm=True)
    size = "quick" if quick else "full"
    print(f"{workload_name} seed {seed} ({size} size), after set-up: "
          f"maxrss {_maxrss_mb():.1f} MB, rss {_rss_mb():.1f} MB")
    if workload_name in workloads.SERVING:
        _passes(workload)
    else:
        _sweep(workloads, workload)


def _passes(workload) -> None:
    """Five timed passes on the workload's one platform."""
    physical = workload.platform.runtime.physical
    stats = workload.platform.stats
    print(f"{'pass':<6}{'maxrss_mb':>11}{'rss_mb':>8}{'pages':>8}"
          f"{'hits':>8}{'misses':>8}{'wall_s':>8}")
    rows = []
    for index in range(1, SERVING_PASSES + 1):
        hits = stats.get("exec.trace_cache_hits")
        misses = stats.get("exec.trace_cache_misses")
        start = time.perf_counter()
        result = workload.run_pass()
        wall = time.perf_counter() - start
        if result.failed:
            raise SystemExit(f"pass {index}: {result.failed} requests failed")
        rows.append((_rss_mb(), len(physical._pages)))
        print(f"{index:<6}{_maxrss_mb():>11.1f}{rows[-1][0]:>8.1f}"
              f"{rows[-1][1]:>8}"
              f"{stats.get('exec.trace_cache_hits') - hits:>8.0f}"
              f"{stats.get('exec.trace_cache_misses') - misses:>8.0f}"
              f"{wall:>8.2f}")
    (rss_1, pages_1), (rss_n, pages_n) = rows[0], rows[-1]
    steps = SERVING_PASSES - 1
    print(f"a pass adds {(rss_n - rss_1) / steps:+.1f} MB rss and "
          f"{(pages_n - pages_1) / steps:+.0f} pages (pass 1 to "
          f"{SERVING_PASSES})")


def _sweep(workloads, workload) -> None:
    """The sweep's kernels, each on a fresh platform."""
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
                        choices=["kernel_cold_sweep", *_bench().SERVING])
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

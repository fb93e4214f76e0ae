#!/usr/bin/env python3
"""Where one m2bench pass takes its minor page faults.

    python3 tools/faults.py --workload W [--seed N] [--quick]
runs one fresh process with the bench worker's environment (every
`REPRO_*` variable cleared, `PYTHONHASHSEED=0`).  It does the worker's
set-up (build the workload of `bench/workloads.py` from the seed, one warm
pass), then one pass as a timed pass runs it, and prints the process's
minor faults (`ru_minflt`) in set-up and in that pass.  It then runs one
more pass under `sys.setprofile`: at every call and return it charges the
faults taken since the previous one to the function then on top of the
stack (a Python function, or a built-in one while it runs), and prints
the pass's total and the 20 functions charged most.  A fault inside a
numpy ufunc or an array method is charged to the Python function that
called it.  `--quick` runs the bench's `--quick` sizes (CI).  Nothing
under `bench/` is changed.

A count follows heap layout as much as the work: the allocator hands
back freed memory without a fault, so where a block lands decides
whether touching it faults.  On `kernel_cold_sweep` three allocator
bodies that differed only in bookkeeping read 8 258, 10 754 and 12 506
faults for the same work, so a fault delta alone is no evidence that the
work changed; read it beside the functions charged.
"""
import argparse
import os
import resource
import subprocess
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
TOP = 20


def _minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _label(code_or_function) -> str:
    if not hasattr(code_or_function, "co_filename"):    # a built-in
        module = getattr(code_or_function, "__module__", None)
        name = getattr(code_or_function, "__qualname__", "?")
        return f"<built-in> {module + '.' if module else ''}{name}"
    code = code_or_function
    path = Path(code.co_filename)
    try:
        path = path.resolve().relative_to(HERE)
    except ValueError:
        path = Path(path.name)
    return f"{path}:{code.co_firstlineno}({code.co_qualname})"


def attribute(fn, *args, **kwargs) -> tuple[Counter, object]:
    """Run ``fn(*args, **kwargs)`` under ``sys.setprofile``; returns the
    minor faults charged to each function (by label) and ``fn``'s result.
    Faults taken before the first event or after the last are charged to
    ``<outside>``."""
    charged: Counter = Counter()
    labels: dict = {}                   # code object -> label
    stack = ["<outside>"]
    last = _minflt()

    def hook(frame, event, arg):
        nonlocal last
        now = _minflt()
        charged[stack[-1]] += now - last
        if event == "call":
            label = labels.get(frame.f_code)
            if label is None:
                label = labels[frame.f_code] = _label(frame.f_code)
            stack.append(label)
        elif event == "c_call":
            # not cached: a bound method would keep its array alive
            stack.append(_label(arg))
        elif len(stack) > 1:        # return, c_return, c_exception
            stack.pop()
        last = _minflt()

    sys.setprofile(hook)
    try:
        result = fn(*args, **kwargs)
    finally:
        sys.setprofile(None)
    charged[stack[-1]] += _minflt() - last
    return +charged, result


def measure(workload_name: str, seed: int, quick: bool) -> None:
    """The measurement itself: run in the fresh process only."""
    sys.path[:0] = [str(HERE / "bench"), str(HERE / "src")]
    import workloads                 # bench/workloads.py

    start = _minflt()
    workload = workloads.build(workload_name, seed, quick)
    workload.run_pass(warm=True)
    set_up = _minflt() - start
    start = _minflt()
    workload.run_pass()
    one_pass = _minflt() - start
    size = "quick" if quick else "full"
    print(f"{workload_name} seed {seed} ({size} size): minor faults "
          f"{set_up} in set-up, {one_pass} in one pass (counts follow heap "
          f"layout: a delta alone does not show the work changed)")
    charged, _ = attribute(workload.run_pass)
    total = sum(charged.values())
    print(f"one more pass under the profiler: {total} minor faults; "
          f"the {TOP} functions charged most:")
    print(f"{'faults':>8} {'share':>6}  function")
    for label, faults in charged.most_common(TOP):
        print(f"{faults:>8} {faults / max(total, 1):>6.1%}  {label}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
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

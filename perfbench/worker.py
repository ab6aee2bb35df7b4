"""One benchmark worker process.

Started by run.py with the BLAS thread count already in its environment.
It builds the workload (imports, shared inputs, warm-up) and records how
long that took from the moment the parent started it; unless --setup-only
it then runs the timed loop.  Either way it writes a JSON result file.  With --trace 1 it runs the loop
once untraced and once traced, so the tracing overhead can be reported
beside the per-layer metrics.
"""

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import numpy as np
import scipy
import scipy.linalg  # noqa: F401  (loads scipy's BLAS before it is queried)

import spans
import workloads


def blas_record():
    """Thread count and build string of every OpenBLAS loaded here."""
    libs = set()
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        pass
    found = {}
    for path in sorted(p for p in libs if ".so" in p):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get_threads is not None and get_config is not None:
                    get_threads.restype = ctypes.c_int
                    get_config.restype = ctypes.c_char_p
                    found[Path(path).name] = {
                        "threads": get_threads(),
                        "config": get_config().decode(errors="replace")}
    return found


def timed_loop(wl, seconds, min_ops, first, tracer=None):
    """Closed loop, one client: the next op starts when the last one ends."""
    times, failures = [], []
    start = time.perf_counter()
    i = first
    while time.perf_counter() - start < seconds or len(times) < min_ops:
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            wl.op(i)
        except Exception as exc:  # an op failure is counted, the loop goes on
            failures.append(f"op {i}: {type(exc).__name__}: {exc}")
            print(f"op {i} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        times.append(time.perf_counter() - t0)
        i += 1
    return {"times": times, "failures": failures,
            "elapsed": time.perf_counter() - start}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up; the run measures set-up in several workers")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--started", type=float, required=True,
                        help="time.monotonic() when the parent started this process")
    args = parser.parse_args()

    wl = workloads.WORKLOADS[args.workload](args.seed, smoke=args.smoke,
                                            workdir=args.workdir)
    result = {"warm_up_failures": []}
    try:
        wl.warm_up()
    except Exception as exc:  # a broken program is reported, not crashed on
        result["warm_up_failures"].append(f"{type(exc).__name__}: {exc}")
    result["setup_s"] = time.monotonic() - args.started
    if args.setup_only:
        with open(args.result, "w") as fh:
            json.dump(result, fh)
        return

    cli = args.workload == "cli_batch"
    # two cli batches, so every subcommand's artifacts are compared once
    min_ops = 2 if cli else 1
    gc.collect()
    loops = [timed_loop(wl, args.seconds, min_ops, 0)]
    usage = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
    result["peak_rss_mb"] = resource.getrusage(usage).ru_maxrss / 1024.0

    if args.trace:
        tracer = spans.Tracer()
        restore = spans.instrument(tracer)
        if cli:
            wl.tracer, wl.wrapper = tracer, Path(__file__).with_name("cli_child.py")
        gc.collect()
        loops.append(timed_loop(wl, args.seconds, min_ops, len(loops[0]["times"]),
                                tracer))
        restore()
        self_s, calls = tracer.self_times()
        result["layers"] = {"self_s": self_s, "calls": calls,
                            "counts": tracer.counts, "ops": len(loops[1]["times"])}
        with open(Path(args.result).with_suffix(".spans.json"), "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": tracer.spans, "counts": tracer.counts}, fh)
    else:
        t0 = time.perf_counter()
        result["probe"] = workloads.working_range()
        result["probe_s"] = time.perf_counter() - t0

    result["loops"] = loops
    result["env"] = {
        "blas": blas_record(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
    with open(args.result, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()

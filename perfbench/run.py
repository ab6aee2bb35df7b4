"""loglap benchmark: one command per workload, every metric by name.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (it needs src/loglap).  This
process imports no numpy: it pins the BLAS thread count in the environment
of every worker it starts, measures set-up in three fresh workers (three
fresh `import loglap.cli` for cli_batch), runs the timed loop in the last
worker, and prints the metrics.  The last line of
standard output is one JSON object; with --trace 0 it carries the
end-to-end metrics, with --trace 1 the per-layer ones.  Scratch files go to
.perfbench_out/ in the checkout.  --smoke shrinks every size for testing.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import COMPUTED, layer_metrics

HERE = Path(__file__).resolve().parent
WORKLOADS = ("sphere_forward", "ucp_sweep", "cli_batch")
THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# set-up is measured in this many fresh processes per run; the last worker
# also runs the timed loop
SETUP_SAMPLES = 3
TIME_LIMIT = 170.0


class BenchError(Exception):
    pass


def worker_env(root):
    env = dict(os.environ)
    env.pop("LOGLAP_THREADS", None)
    env.update({var: THREADS for var in BLAS_VARS})
    env["PYTHONPATH"] = str(root / "src")
    return env


def run_child(command, env, cwd, deadline):
    """Run a child to completion within the deadline; otherwise kill it and
    every process it started (it leads its own process group)."""
    proc = subprocess.Popen(command, env=env, cwd=cwd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"timed out: {' '.join(map(str, command))}")
    if err:
        sys.stderr.write(err)
    if proc.returncode != 0:
        raise BenchError(f"exit {proc.returncode}: {' '.join(map(str, command))}")
    return out


def start_worker(args, root, env, name, setup_only, deadline):
    workdir = root / ".perfbench_out" / name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    result = workdir.with_suffix(".json")
    command = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--workdir", str(workdir),
               "--result", str(result), "--started", repr(time.monotonic())]
    if args.smoke:
        command.append("--smoke")
    if setup_only:
        command.append("--setup-only")
    try:
        run_child(command, env, root, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(result) as fh:
        return json.load(fh)


def timed_import(env, root, deadline):
    t0 = time.monotonic()
    run_child([sys.executable, "-c", "import loglap.cli"], env, root, deadline)
    return time.monotonic() - t0


def tail(times):
    """Highest of p90/p99/p99.9 with at least ten samples beyond it."""
    n = len(times)
    best = None
    for p in (90.0, 99.0, 99.9):
        if n * (1.0 - p / 100.0) >= 10:
            best = p
    if best is None:
        return f"no percentile has 10 samples beyond it (n={n})"
    value = sorted(times)[min(n - 1, math.ceil(best / 100.0 * n) - 1)]
    return f"p{best:g} = {value:.4f} s (n={n})"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def measure(args, root):
    deadline = time.monotonic() + TIME_LIMIT
    env = worker_env(root)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    load_start = os.getloadavg()[0]
    # compile bytecode and warm the file cache before anything is timed
    timed_import(env, root, deadline)

    samples = 1 if args.smoke else SETUP_SAMPLES
    if args.workload == "cli_batch":
        setup = [timed_import(env, root, deadline) for _ in range(samples)]
    else:
        setup = [start_worker(args, root, env, f"{tag}-setup{k}", True, deadline)["setup_s"]
                 for k in range(samples - 1)]
    result = start_worker(args, root, env, tag, False, deadline)
    if args.workload != "cli_batch":
        setup.append(result["setup_s"])
    load_end = os.getloadavg()[0]

    loops = result["loops"]
    times = loops[0]["times"]
    # a failed warm-up counts as one more attempted and failed operation
    warm_up_failures = result["warm_up_failures"]
    attempted = sum(len(loop["times"]) for loop in loops) + len(warm_up_failures)
    failed = sum(len(loop["failures"]) for loop in loops) + len(warm_up_failures)
    untraced_p50 = statistics.median(times)
    if args.trace:
        traced_p50 = statistics.median(loops[1]["times"])
        layers = result["layers"]
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in layer_metrics(
                       layers["self_s"], layers["calls"], layers["counts"], layers["ops"]
                   ).items()}
        metrics["trace.overhead_s"] = {"value": traced_p50 - untraced_p50, "unit": "s"}
        metrics["trace.overhead_ratio"] = {
            "value": (traced_p50 - untraced_p50) / untraced_p50, "unit": "ratio"}
    else:
        metrics = {
            "ops_per_s": {"value": len(times) / loops[0]["elapsed"], "unit": "1/s"},
            "op_p50_s": {"value": untraced_p50, "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
        for kind, (best, _) in result["probe"].items():
            metrics[f"extract_max_k.{kind}"] = {"value": best, "unit": "count"}

    env_record = dict(result["env"], cpu=cpu_model(), nproc=os.cpu_count(),
                      affinity=len(os.sched_getaffinity(0)),
                      threads_set=THREADS, loadavg_1m_start=load_start,
                      loadavg_1m_end=load_end)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}  setup samples {[round(s, 4) for s in setup]}")
    for name, m in metrics.items():
        note = " (computed from array shapes)" if name in COMPUTED else ""
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}{note}")
    print(f"  {'error_rate':32s} {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} ops failed)")
    print(f"  op time tail (not gated): {tail(times)}")
    if not args.trace:
        stops = ", ".join(f"{kind} stops at {stop}"
                          for kind, (_, stop) in result["probe"].items())
        print(f"  working-range probe ({result['probe_s']:.2f} s): {stops}")
    for failure in warm_up_failures + [f for loop in loops for f in loop["failures"]][:5]:
        print(f"  FAILED {failure}")
    print("env " + json.dumps(env_record, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sizes and one set-up sample, for the smoke test")
    args = parser.parse_args()
    root = Path.cwd()
    if not (root / "src" / "loglap" / "__init__.py").is_file():
        print("run.py: no src/loglap here; run from the root of a loglap checkout",
              file=sys.stderr)
        return 2
    try:
        measure(args, root)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

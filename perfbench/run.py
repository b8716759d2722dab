"""setcensus benchmark: run one workload and print its metrics as one JSON line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: exact-int, log-scale, sampling, readme-cli (see perfbench/README.md).

--trace 0 prints the end-to-end metrics: setup_s (median of several fresh
set-ups), run_s, query_p50_s and peak_rss_mb.  --trace 1 alternates
untraced and traced rounds in one process and prints the per-layer metrics
of the traced rounds with trace.overhead_s, the traced run_s minus the
untraced one.

Every process runs single-threaded, one at a time.  The exit status is 0
only when every output check passed.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SETUP_PROBES = 2  # measured fresh set-ups before and again after the workload process
DEADLINE_S = 175.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class ChildError(Exception):
    pass


def pin_to_one_cpu():
    """Keep this process and every process it starts on the CPU it runs on now.

    Reported times are scaled by a calibration loop timed in the workload
    process, so the CLI processes that readme-cli starts must run on the
    CPU where the loop is timed.
    """
    allowed = os.sched_getaffinity(0)
    with open("/proc/self/stat", "r", encoding="ascii") as fh:
        cpu = int(fh.read().rsplit(")", 1)[1].split()[36])  # field 39: last CPU run on
    os.sched_setaffinity(0, {cpu} if cpu in allowed else {min(allowed)})


def child_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_child(args, deadline, *extra):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "child.py"), "--workload", args.workload,
           *extra]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise ChildError("out of time before starting " + " ".join(extra))
    # a process group of its own, so that a timeout also stops the CLI processes it started
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired as e:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildError(f"{' '.join(cmd)} did not finish in {timeout:.0f} s") from e
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildError(f"{' '.join(cmd)} exited with {proc.returncode}:\n{stderr[-2000:]}")
    return json.loads(lines[-1])


def end_to_end(args, deadline):
    def probes():
        return [run_child(args, deadline, "--setup-only")["setup_s"] for _ in range(SETUP_PROBES)]

    run_child(args, deadline, "--setup-only")  # discarded: it may compile bytecode
    setups = probes()
    res = run_child(args, deadline, "--seed", str(args.seed), "--seconds", str(args.seconds))
    setups += probes()
    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "run_s": {"value": res["run_s"], "unit": "s"},
        "query_p50_s": {"value": res["query_p50_s"], "unit": "s"},
        "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
    }
    return res, metrics


def per_layer(args, deadline):
    res = run_child(args, deadline, "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", "1")
    metrics = res["layers"]
    metrics["trace.overhead_s"] = {"value": res["overhead_s"], "unit": "s"}
    return res, metrics


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.registry()))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "setcensus", "__init__.py")):
        print(f"perfbench: no setcensus sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    pin_to_one_cpu()
    try:
        res, metrics = (per_layer if args.trace else end_to_end)(args, deadline)
    except ChildError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    for line in res["problems"] + res["errors"]:
        print(f"perfbench: {args.workload}: {line}", file=sys.stderr)
    print(f"perfbench: {args.workload} seed {args.seed}: {res['rounds']} rounds, "
          f"{res['attempted']} queries", file=sys.stderr)
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

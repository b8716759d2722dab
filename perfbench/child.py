"""One workload in a fresh single-threaded process: a closed loop with one caller.

Usage (normally started by run.py, from the root of the checkout):

    python3 perfbench/child.py --workload NAME --seed N --seconds S [--trace 0|1]
    python3 perfbench/child.py --workload NAME --setup-only

Set-up imports setcensus and resolves the workload's classes.  One untimed
warm-up round of the workload's query list follows, then whole timed
rounds, each query starting when the previous one returns, for as close to
--seconds as whole rounds allow (at least MIN_TIMED_ROUNDS).  Checks run
after the rounds.  The last stdout line is one JSON object.
"""

import argparse
import json
import os
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction

import layertrace
import workloads

TRACE_DIR = os.path.join(".perfbench-out", "spans")
MIN_TIMED_ROUNDS = 2
# Reported times are scaled to the speed at which the calibration loop takes
# CAL_REF_S seconds (see "Noise" in README.md).  When the loop slows down by a
# factor s, the package's code slows down by about s ** CAL_POWER.
CAL_TERMS = 150
CAL_REF_S = 0.0005
CAL_POWER = 0.9
SAMPLE_EVERY_S = 0.02


class SpeedSampler:
    """Times a fixed Fraction loop every SAMPLE_EVERY_S seconds while work runs.

    The loop runs in a SIGALRM handler, between the bytecodes of whatever
    runs in this process, or while this process waits for a CLI process
    on the same CPU.  scaled() turns the time since a mark, less the
    loop's own time, into the time at the speed at which the loop takes
    CAL_REF_S: each sample stands for an equal slice of the interval.
    """

    def __init__(self):
        self.samples = []  # calibration loop durations, in order

    def _sample(self, _signum=None, _frame=None):
        t = time.perf_counter()
        total = Fraction(0)
        for j in range(1, CAL_TERMS):
            total += Fraction(1, j % 97 + 1) * j
        self.samples.append(time.perf_counter() - t)

    def __enter__(self):
        self._sample()  # so that a mark always has a sample before it
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self):
        return len(self.samples), time.perf_counter()

    def scaled(self, mark):
        """Seconds since mark at the reference speed."""
        first, t0 = mark
        elapsed = time.perf_counter() - t0
        during = self.samples[first:]
        speed = self.speed(during or self.samples[-1:])
        return (elapsed - sum(during)) * speed

    @staticmethod
    def speed(samples):
        """Reference seconds of work per second: the mean of (CAL_REF_S / sample) ** CAL_POWER."""
        return statistics.fmean((CAL_REF_S / d) ** CAL_POWER for d in samples)


def run_round(queries, ctx, records, errors, sampler):
    """Run the query list once; each query's digest goes to records.

    Returns each query's latency at the reference speed.
    """
    state = {}
    latencies = []
    for q in queries:
        mark = sampler.mark()
        try:
            out = q.call(ctx, state)
        except Exception as e:  # a failing query is counted, and the loop goes on
            latencies.append(sampler.scaled(mark))
            errors.append(f"{q.label}: {type(e).__name__}: {e}")
            records[q.label].append(None)
        else:
            latencies.append(sampler.scaled(mark))
            records[q.label].append(q.digest(out))
    return latencies


def run_rounds(queries, ctx, seconds, sampler, before_round=None, step=1):
    """(records, latencies, errors) of one warm-up round and the timed rounds after it.

    The warm-up round fills what the package keeps for the life of a
    process (coefficient memos and scalar caches of built-in classes,
    forest size tables), so every timed round does the same work.  Timed
    rounds run in whole steps of `step` rounds, at least MIN_TIMED_ROUNDS,
    and stop once one more step would overrun `seconds` by more than the
    rounds fall short of it now.  records[label] holds one digest per
    round, the warm-up first; latencies[label] one latency per timed round,
    at the reference speed.  before_round(i), if given, runs untimed before timed round i.
    """
    records = {q.label: [] for q in queries}
    errors = []
    run_round(queries, ctx, records, errors, sampler)
    latencies = {q.label: [] for q in queries}
    start = time.perf_counter()
    done = 0
    while True:
        if before_round is not None:
            before_round(done)
        for q, lat in zip(queries, run_round(queries, ctx, records, errors, sampler)):
            latencies[q.label].append(lat)
        done += 1
        elapsed = time.perf_counter() - start
        if (done % step == 0 and done >= MIN_TIMED_ROUNDS
                and elapsed + 0.5 * step * elapsed / done >= seconds):
            return records, latencies, errors


def traced_run(queries, ctx, seconds, sampler, recorder):
    """run_rounds with every second timed round traced; also returns their span lists.

    The warm-up round and even timed rounds run untraced, so each traced
    round follows an untraced one in the same warm state.  The span lists
    are the recorder's spans of the traced rounds plus one list per command
    line that readme-cli ran under clitrace.py.
    """
    recorder.uninstall()
    os.makedirs(TRACE_DIR, exist_ok=True)
    for name in os.listdir(TRACE_DIR):
        os.remove(os.path.join(TRACE_DIR, name))

    def alternate(i):
        if i % 2:
            recorder.install()
            ctx["trace_dir"] = TRACE_DIR
        else:
            recorder.uninstall()
            ctx.pop("trace_dir", None)

    records, latencies, errors = run_rounds(queries, ctx, seconds, sampler, alternate, 2)
    recorder.uninstall()
    ctx.pop("trace_dir", None)
    span_lists = [recorder.take()] + [layertrace.load_spans(os.path.join(TRACE_DIR, name))
                                      for name in sorted(os.listdir(TRACE_DIR))]
    return records, latencies, errors, span_lists


def round_time(latencies, rounds):
    """One round's time, each query at its median over the given timed rounds."""
    return sum(statistics.median(lat[r] for r in rounds) for lat in latencies.values())


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.registry()))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    wl = workloads.registry()[args.workload]
    with SpeedSampler() as sampler:
        result = run(wl, args, sampler)
    print(json.dumps(result))
    return 0


def run(wl, args, sampler):
    mark = sampler.mark()
    import setcensus

    recorder = None
    if args.trace:
        recorder = layertrace.Recorder()
        recorder.install()
    ctx = wl.setup(setcensus)
    setup_s = sampler.scaled(mark)
    if args.setup_only:
        return {"setup_s": setup_s}

    queries = wl.plan(args.seed)
    if recorder is None:
        records, latencies, errors = run_rounds(queries, ctx, args.seconds, sampler)
        step = 1
    else:
        setup_spans = recorder.take()
        records, latencies, errors, span_lists = traced_run(queries, ctx, args.seconds,
                                                            sampler, recorder)
        step = 2
    timed = len(next(iter(latencies.values())))
    untraced = range(0, timed, step)
    rss_of = resource.RUSAGE_CHILDREN if getattr(wl, "RSS_OF_CHILDREN", False) else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(rss_of).ru_maxrss / 1024.0  # ru_maxrss is in KiB

    try:
        problems = wl.check(queries, records)
    except Exception as e:  # a check that cannot run is a failed check
        problems = [f"check raised {type(e).__name__}: {e}"]
    result = {
        "correct": not problems,
        "attempted": sum(map(len, records.values())),
        "failed": len(errors),
        "problems": problems,
        "errors": errors[:20],
        "rounds": timed,
        "run_s": round_time(latencies, untraced),
        "query_p50_s": statistics.median(lat[r] for lat in latencies.values() for r in untraced),
        "peak_rss_mb": peak_rss_mb,
    }
    if recorder is not None:
        # span times are wall times; the run's mean speed puts them on the reference scale
        result["layers"] = layertrace.layer_metrics(setup_spans, span_lists, len(untraced),
                                                    sampler.speed(sampler.samples))
        traced = [r + 1 for r in untraced]
        result["overhead_s"] = round_time(latencies, traced) - result["run_s"]
        layertrace.write_spans(os.path.join(TRACE_DIR, "setup.json"), setup_spans)
        layertrace.write_spans(os.path.join(TRACE_DIR, "rounds.json"), span_lists[0])
    return result


if __name__ == "__main__":
    sys.exit(main())

"""One pass of one workload, in a fresh interpreter.

Set-up (importing chorefair, making the inputs from the seed, writing JSON
files) is timed as ``setup_s``. The timed phase then runs every op once, in
order, with one timer per op. Outputs are checked after the timed phase:
against the committed expected outputs where they apply, and against the
invariants that hold at every seed. The pass prints one JSON line with its
timings, its checks and, when traced, its per-layer metrics.

Host speed. On a shared host the speed of plain Python code can change by
1.5-2x for seconds to minutes at a time, which no number of repetitions
averages out. So a SIGALRM timer runs a fixed probe of stdlib ``Fraction``
arithmetic (no chorefair code) every PROBE_EVERY_S, from interpreter start
to the end of the timed phase, also in the middle of long ops. Every time
is reported raw and as ``HostClock.work``: the time without the probes,
with each stretch between two probes scaled by PROBE_REF_S over their mean,
that is, the time on a host where the probe takes PROBE_REF_S.

Run by run.py; by hand: python3 perfbench/worker.py --workload prices --seed 7
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction

PROBE_REF_S = 0.0003
PROBE_EVERY_S = 0.05
PROBE_SMOOTH = 2


def host_probe() -> float:
    """Seconds for a fixed piece of exact arithmetic; the best of three."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total = Fraction(0)
        for i in range(1, 120):
            total += Fraction(1, i % 97 + 1)
        best = min(best, time.perf_counter() - start)
    return best


class HostClock:
    """Probes the host's speed from a SIGALRM timer and rescales intervals."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.values: list[float] = []
        self._probe()
        signal.signal(signal.SIGALRM, lambda signum, frame: self._probe())
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def _probe(self) -> None:
        if len(self.ends) < len(self.starts):
            return  # the timer fired inside a probe
        self.starts.append(time.perf_counter())
        self.values.append(host_probe())
        self.ends.append(time.perf_counter())

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._probe()
        # One probe can read slow (an interrupt in all three tries); the
        # host's level lasts seconds, so each probe is replaced by the
        # median of the probes within PROBE_SMOOTH of it.
        values = self.values
        self.level = [
            statistics.median(values[max(0, k - PROBE_SMOOTH) : k + PROBE_SMOOTH + 1]) for k in range(len(values))
        ]

    def work(self, start: float, end: float) -> float:
        """Seconds of [start, end] outside the probes, at the reference speed.

        The stretch between probe k and probe k+1 runs at the mean of their
        levels; call after ``stop``, so that a probe follows every stretch.
        """
        total = 0.0
        k = max(0, bisect.bisect_right(self.ends, start) - 1)
        while k + 1 < len(self.starts) and self.ends[k] < end:
            low, high = max(start, self.ends[k]), min(end, self.starts[k + 1])
            if high > low:
                total += (high - low) * 2 * PROBE_REF_S / (self.level[k] + self.level[k + 1])
            k += 1
        return total


HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")


def import_program():
    sys.path.insert(0, SRC)
    import chorefair

    if not os.path.abspath(chorefair.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"chorefair was imported from {chorefair.__file__}, not from {SRC}")


def main() -> int:
    host = HostClock()
    start = time.perf_counter()
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass-index", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--expected", help="expected-output file (default: the committed one)")
    args = parser.parse_args()

    import_program()
    sys.path.insert(0, HERE)
    import workloads

    # Every pass of a run rewrites the same files; run.py removes them at the end.
    workdir = work_dir(args.workload, args.seed, args.tiny)
    os.makedirs(workdir, exist_ok=True)
    ops = workloads.WORKLOADS[args.workload](args.seed, args.tiny, workdir)
    setup_end = time.perf_counter()
    if args.setup_only:
        host.stop()
        print(json.dumps({"setup_s": host.work(start, setup_end), "setup_raw_s": setup_end - start}))
        return 0
    return _timed_pass(args, ops, host, (start, setup_end), workloads)


def work_dir(workload: str, seed: int, tiny: bool) -> str:
    return os.path.join(OUT, "work", f"{workload}-seed{seed}{'-tiny' if tiny else ''}")


def _timed_pass(args, ops, host: HostClock, setup: tuple[float, float], workloads) -> int:
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    results = []  # (start, end, result, error)
    clock = time.perf_counter
    for op in ops:
        start = clock()
        try:
            result, error = op.run(), None
        except Exception as exc:  # an op that raises counts as failed
            result, error = None, f"{type(exc).__name__}: {exc}"
        results.append((start, clock(), result, error))
    host.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.active = False

    expected_path = args.expected or os.path.join(HERE, "expected", f"{args.workload}.json")
    with open(expected_path, encoding="utf-8") as handle:
        expected = json.load(handle)
    at_default_seed = args.seed == expected["seed"]

    failures, digests = [], []
    for op, (_, _, result, error) in zip(ops, results):
        output = None
        if error is None:
            try:
                output = op.output(result)
            except Exception as exc:  # a result that cannot be read counts as failed
                error = f"unreadable result: {type(exc).__name__}: {exc}"
        text = workloads.canonical(output)
        digests.append(hashlib.sha256(text.encode()).hexdigest()[:16])
        if error is None and (at_default_seed or op.fixed):
            want = expected["outputs"].get(op.op_id)
            if want is None:
                error = "no committed expected output"
            elif text != workloads.canonical(want):
                error = f"output {text} differs from expected {workloads.canonical(want)}"
        if error is None:
            error = op.check(output)
        if error is not None:
            failures.append(f"{op.op_id}: {error}")

    report = {
        "setup_s": host.work(*setup),
        "setup_raw_s": setup[1] - setup[0],
        "wall_raw_s": sum(end - start for start, end, _, _ in results),
        "peak_rss_mb": peak_rss_mb,
        "probe_ms": [p * 1000 for p in host.values],
        "op_ms": [host.work(start, end) * 1000 for start, end, _, _ in results],
        "op_ids": [op.op_id for op in ops],
        "digests": digests,
        "failures": failures,
    }
    if tracer is not None:
        scale = PROBE_REF_S / statistics.median(host.level)
        report["layers"] = {k: v * scale if k.endswith("self_s") else v for k, v in tracer.metrics().items()}
        os.makedirs(OUT, exist_ok=True)
        tracer.write(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}-pass{args.pass_index}.jsonl"))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())

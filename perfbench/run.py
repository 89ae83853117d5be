"""chorefair benchmark runner.

    python3 perfbench/run.py --workload {prices,audit,allocators} --seed N --seconds S --trace {0,1}

Runs passes of the workload one at a time, each in a fresh interpreter
(worker.py). The pass count is fixed by the workload and ``--seconds`` alone
(see pass_count), so every run of a workload uses the same estimator
whatever the speed of the host or of the program. Every pass starts with
cold caches, as a one-shot CLI call does. The child environment pins
PYTHONHASHSEED=0 and leaves CHOREFAIR_THREADS unset, so the load is one
process with one thread.

With --trace 0 the last stdout line carries the end-to-end metrics, taken
over each op's low median time across passes; with --trace 1, the per-layer
metrics of separate traced passes and the tracing overhead. A result file
with the run environment goes to perfbench/out/. Exit code 0 only when
every pass ran; a run whose outputs are wrong still prints its result, with
"correct": false.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

from tracer import LAYER_METRICS
from worker import work_dir

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("prices", "audit", "allocators")
MIN_SETUPS = 5
# Nominal seconds of one pass (set-up and timed phase): a run makes as many
# passes as fit in --seconds at this pace. On the host the baseline was
# recorded on, a pass takes this long or less at the host's slow level (see
# NOTES.md), except a prices pass, which takes 10-19 s; prices needs three
# passes for a steady op_tail_ms.
PASS_S = {"prices": 11.5, "audit": 5.5, "allocators": 5.5}
CHILD_TIMEOUT_S = 170
TAIL_PERCENTILES = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)


class PassFailed(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env.pop("CHOREFAIR_THREADS", None)
    env.pop("PYTHONPATH", None)
    return env


def run_child(args, pass_index: int, trace: bool = False, setup_only: bool = False) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload, "--seed", str(args.seed)]
    cmd += ["--pass-index", str(pass_index)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    if args.tiny:
        cmd.append("--tiny")
    if args.expected:
        cmd += ["--expected", args.expected]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassFailed(f"pass {pass_index} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def tail_percentile(count: int) -> float:
    """Highest percentile with at least ten ops beyond it."""
    for p in TAIL_PERCENTILES:
        if count * (100 - p) / 100 >= 10:
            return p
    return 50.0


def percentile(values: list[float], p: float) -> float:
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))  # nearest rank
    return ordered[int(rank) - 1]


def pass_count(args) -> int:
    """Passes of a run: two at least, so that every op has a second try."""
    return max(2, int(args.seconds // PASS_S[args.workload]))


def run_passes(args, count: int, trace: bool, first_index: int = 0) -> list[dict]:
    return [run_child(args, first_index + i, trace=trace) for i in range(count)]


def op_ms(passes: list[dict]) -> list[float]:
    """Each op's low median time over the passes.

    Times are already adjusted for the host's speed; the low median drops
    the odd pass in which a collection or a burst of other load slowed the
    op, also when there are only two passes. The pass count of a workload is
    fixed, so this is the same statistic in every run.
    """
    return [statistics.median_low(times) for times in zip(*(p["op_ms"] for p in passes))]


def summarize(passes: list[dict]) -> dict:
    times = op_ms(passes)
    p_tail = tail_percentile(len(times))
    return {
        "wall_s": sum(times) / 1000,
        "op_p50_ms": statistics.median(times),
        "op_tail_ms": percentile(times, p_tail),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "tail_percentile": p_tail,
        "ops_per_pass": len(times),
    }


def check_passes(passes: list[dict]) -> tuple[int, int, list[str]]:
    """Attempted ops, failed ops, and failure messages over all passes.

    An op fails when it raised, missed its expected output or invariant, or
    gave another output than in the first pass.
    """
    attempted = failed = 0
    messages: list[str] = []
    reference = passes[0]["digests"]
    for p in passes:
        attempted += len(p["digests"])
        bad = {f.split(": ", 1)[0] for f in p["failures"]}
        messages.extend(p["failures"])
        for op_id, digest, ref in zip(p["op_ids"], p["digests"], reference):
            if digest != ref and op_id not in bad:
                bad.add(op_id)
                messages.append(f"{op_id}: output differs between passes")
        failed += len(bad)
    return attempted, failed, messages


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "PYTHONHASHSEED": "0",
        "CHOREFAIR_THREADS": None,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="self-test size: a few ops of each kind")
    parser.add_argument("--expected", help="expected-output file to compare against (self-test)")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "chorefair", "__init__.py")):
        print(f"no chorefair sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    try:
        count = pass_count(args)
        if args.trace:
            # Untraced passes, half of them, give the reference wall time;
            # traced passes make up the rest.
            plain = run_passes(args, max(1, count // 2), False)
            traced = run_passes(args, max(1, count - len(plain)), True, len(plain))
            passes = plain + traced
        else:
            passes = run_passes(args, count, False)
        setups = [p["setup_s"] for p in passes]
        while len(setups) < MIN_SETUPS:
            setups.append(run_child(args, len(passes) + len(setups), setup_only=True)["setup_s"])
    except (PassFailed, subprocess.TimeoutExpired) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir(args.workload, args.seed, args.tiny), ignore_errors=True)

    attempted, failed, messages = check_passes(passes)
    for message in messages[:20]:
        print(f"FAIL {message}", file=sys.stderr)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed}
    if args.trace:
        counts = [{k: v for k, v in p["layers"].items() if not k.endswith("self_s")} for p in traced]
        if any(c != counts[0] for c in counts):
            result["correct"] = False
            print("FAIL per-layer counts differ between traced passes", file=sys.stderr)
        layers = dict(traced[0]["layers"])
        for name in layers:
            if name.endswith("self_s"):
                layers[name] = statistics.median(p["layers"][name] for p in traced)
        layers["trace.overhead_ratio"] = sum(op_ms(traced)) / sum(op_ms(plain))
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit, _ in LAYER_METRICS if name in layers}
        summary = {"passes_plain": len(plain), "passes_traced": len(traced)}
    else:
        stats = summarize(passes)
        metrics = {
            "wall_s": {"value": stats["wall_s"], "unit": "s"},
            "op_p50_ms": {"value": stats["op_p50_ms"], "unit": "ms"},
            "op_tail_ms": {"value": stats["op_tail_ms"], "unit": "ms"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": stats["peak_rss_mb"], "unit": "MB"},
        }
        summary = dict(stats, passes=len(passes), failed_frac=failed / attempted)
    result["metrics"] = metrics

    os.makedirs(OUT, exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "environment": environment(),
        "summary": summary,
        "setups_s": setups,
        "passes": [
            {
                "setup_s": p["setup_s"],
                "setup_raw_s": p["setup_raw_s"],
                "wall_raw_s": p["wall_raw_s"],
                "peak_rss_mb": p["peak_rss_mb"],
                "probe_ms_median": statistics.median(p["probe_ms"]),
            }
            for p in passes
        ],
        "failures": messages,
        "op_ms": dict(zip(passes[0]["op_ids"], op_ms(passes))),
        "result": result,
    }
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    print(json.dumps(summary), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

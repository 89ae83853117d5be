"""Self-test of the benchmark, at a tiny size (about two minutes).

For each workload it checks that
  * an untraced run is correct and reports every end-to-end metric of
    BENCHMARK.json with its unit;
  * two traced runs report every per-layer metric with its unit, give
    identical counts, and exercise the layers the workload is meant for;
  * a corrupted expected output makes the run fail (failed > 0);
and that the runner exits non-zero, printing no result, in a directory that
holds only BENCHMARK.json and the benchmark.

Usage: python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import worker
from tracer import LAYER_METRICS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(HERE, "out", "selftest")

# Per-layer calls each workload must make even at the tiny size.
EXERCISED = {
    "prices": ["search.best_fair.calls", "search.alpha_checks", "criteria.context.builds", "model.eval.calls"],
    "audit": [
        "cli.main.calls",
        "model.from_json.calls",
        "model.check.calls",
        "model.eval.calls",
        "criteria.EFX_STRONG.calls",
        "criteria.context_for.calls",
    ]
    + [f"mms.{r}.calls" for r in ("additive", "capped", "cardinality", "coverage", "table", "enumerate", "pairwise")],
    "allocators": [f"allocate.{a}.calls" for a in ("round_robin", "best_rr_order", "alg1", "pmms32", "optimal")]
    + ["mms.additive.calls", "mms.pairwise.calls", "criteria.EF1.calls"],
}


def run(workload: str, *extra: str, cwd: str = ROOT) -> tuple[int, dict | None]:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7", "--seconds", "1", *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None)


def check_result(result: dict, metrics: list[dict]) -> list[str]:
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
    got = result.get("metrics", {})
    for metric in metrics:
        entry = got.get(metric["name"])
        if entry is None or entry.get("unit") != metric["unit"] or not isinstance(entry.get("value"), (int, float)):
            errors.append(f"metric {metric['name']} missing or without unit {metric['unit']}")
    if set(got) != {m["name"] for m in metrics}:
        errors.append(f"unexpected metrics {sorted(set(got) - {m['name'] for m in metrics})}")
    return errors


def corrupted_expected(workload: str) -> str:
    with open(os.path.join(HERE, "expected", f"{workload}.json"), encoding="utf-8") as handle:
        expected = json.load(handle)
    worker.import_program()
    import workloads

    workdir = os.path.join(SCRATCH, "work")
    os.makedirs(workdir, exist_ok=True)
    first = workloads.WORKLOADS[workload](7, True, workdir)[0].op_id
    expected["outputs"][first] = {"corrupted": True}
    path = os.path.join(SCRATCH, f"corrupt-{workload}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(expected, handle)
    return path


def bare_checkout_fails() -> list[str]:
    bare = os.path.join(SCRATCH, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("out", "__pycache__"))
    code, result = run("prices", cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    if code == 0 or result is not None:
        return [f"bare directory: exit {code}, result {result}"]
    return []


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    os.makedirs(SCRATCH, exist_ok=True)
    errors = []
    if [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] != list(LAYER_METRICS):
        errors.append("BENCHMARK.json per_layer differs from tracer.LAYER_METRICS")
    for workload in [w["name"] for w in bench["workloads"]]:
        code, plain = run(workload, "--tiny")
        if code != 0 or plain is None:
            errors.append(f"{workload}: untraced run exited {code}")
            continue
        errors += [f"{workload}: {e}" for e in check_result(plain, bench["end_to_end"])]
        if not plain["correct"] or plain["failed"]:
            errors.append(f"{workload}: untraced tiny run is not correct")

        traced = [run(workload, "--tiny", "--trace", "1")[1] for _ in range(2)]
        if None in traced:
            errors.append(f"{workload}: traced run printed no result")
            continue
        for result in traced:
            errors += [f"{workload} traced: {e}" for e in check_result(result, bench["per_layer"])]
        counts = [
            {k: v["value"] for k, v in r["metrics"].items() if v["unit"] == "count" or k == "search.alpha_check_ratio"}
            for r in traced
        ]
        if counts[0] != counts[1]:
            diff = sorted(k for k in counts[0] if counts[0][k] != counts[1].get(k))
            errors.append(f"{workload}: per-layer counts differ between traced runs: {diff}")
        for name in EXERCISED[workload]:
            if not traced[0]["metrics"].get(name, {}).get("value"):
                errors.append(f"{workload}: {name} is zero")

        code, broken = run(workload, "--tiny", "--expected", corrupted_expected(workload))
        if code != 0 or broken is None or broken["failed"] == 0 or broken["correct"]:
            errors.append(f"{workload}: a corrupted expected output went unnoticed ({broken})")
        print(f"{workload}: checked", flush=True)
    errors += bare_checkout_fails()
    shutil.rmtree(SCRATCH, ignore_errors=True)
    for error in errors:
        print(f"FAIL {error}")
    print("selftest:", "FAILED" if errors else "ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())

"""Record the baseline: perfbench/baseline.json.

For every workload of BENCHMARK.json, runs run.py at seeds 1-10 with
BENCHMARK.json's run_seconds, twice over (two sets of ten runs of the same
code), and writes each end-to-end metric's median, quartile spread (as a
share of the median, from statistics.quantiles(n=4)) and per-seed values for
each set, with the run count and the environment. Then runs two traced runs
of each workload at seed 7 and records their per-layer metrics and whether
the counts repeat. Prints, per metric, whether the spreads and the second
set's median stay within the metric's bound.

Usage: python3 perfbench/baseline.py   (about an hour)
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = tuple(range(1, 11))
SETS = 2
TRACE_SEED = 7


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One run of run.py; returns the result record it wrote."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True)
    path = os.path.join(HERE, "out", f"result-{workload}-seed{seed}-trace{trace}.json")
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def set_stats(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]

    # records[workload][set] is the list of that set's records, one per seed.
    records: dict[str, list[list[dict]]] = {w: [] for w in names}
    for _ in range(SETS):
        for workload in names:
            records[workload].append([run(workload, seed, seconds, 0) for seed in SEEDS])

    out = {"seeds": list(SEEDS), "sets": SETS, "run_seconds": seconds, "workloads": {}}
    out["environment"] = records[names[0]][0][0]["environment"]
    for workload in names:
        sets = records[workload]
        metrics = {}
        for metric in bench["end_to_end"]:
            name = metric["name"]
            per_set = [set_stats([r["result"]["metrics"][name]["value"] for r in rs]) for rs in sets]
            metrics[name] = dict(per_set[0], unit=metric["unit"], bound=metric["bound"], later_sets=per_set[1:])
        first = sets[0][0]
        traced = [run(workload, TRACE_SEED, seconds, 1) for _ in range(2)]
        counts = [
            {k: v for k, v in t["result"]["metrics"].items() if v["unit"] != "s" and k != "trace.overhead_ratio"}
            for t in traced
        ]
        out["workloads"][workload] = {
            "runs": len(SEEDS) * SETS,
            "all_correct": all(r["result"]["correct"] for rs in sets for r in rs),
            "passes_per_run": first["summary"]["passes"],
            "tail_percentile": first["summary"]["tail_percentile"],
            "ops_per_pass": first["summary"]["ops_per_pass"],
            "metrics": metrics,
            "trace": {
                "seed": TRACE_SEED,
                "all_correct": all(t["result"]["correct"] for t in traced),
                "counts_repeat": counts[0] == counts[1],
                "overhead_ratio": [t["result"]["metrics"]["trace.overhead_ratio"]["value"] for t in traced],
                "per_layer": {k: v["value"] for k, v in traced[0]["result"]["metrics"].items()},
            },
        }
    with open(os.path.join(HERE, "baseline.json"), "w", encoding="utf-8") as handle:
        json.dump(out, handle, indent=1)
        handle.write("\n")

    for workload, entry in out["workloads"].items():
        print(f"{workload}: correct {entry['all_correct']}, traced counts repeat {entry['trace']['counts_repeat']}")
        for name, m in entry["metrics"].items():
            medians = [m["median"]] + [s["median"] for s in m["later_sets"]]
            spreads = [m["spread"]] + [s["spread"] for s in m["later_sets"]]
            worse = max(x / medians[0] - 1 for x in medians[1:])
            flag = "" if max(spreads) <= m["bound"] / 3 else "  (spread above a third of the bound)"
            if worse > m["bound"]:
                flag += "  (second set worse by more than the bound)"
            spread_text = ", ".join(f"{s:.3f}" for s in spreads)
            print(
                f"  {name:12s} medians {', '.join(f'{x:.4g}' for x in medians)} {m['unit']}, "
                f"spreads {spread_text}, bound {m['bound']}{flag}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())

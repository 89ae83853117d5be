"""Record benchmark runs of one or more checkouts in a BENCH_*.json file.

    python3 scripts/bench_record.py --out BENCH_<n>.json --runs 10 [--seed 7] parent=../old change=.

Each LABEL=CHECKOUT names a checkout of this repository under its own label;
a repeated label, and then a checkout with no ``perfbench/run.py``, is
refused before any run starts. For every workload
the script runs ``python3 perfbench/run.py --workload W --seed S`` in each
checkout, ``--runs`` times, alternating between the checkouts run by run so
that a slow spell of the host hits all of them alike; run i of one label and
run i of another form a pair. The order within a pair alternates too (the
checkouts in the given order on even runs, reversed on odd ones), so neither
side always runs first. Under each label it writes the seed and, per
workload, every run's value of each end-to-end metric in run order, their
median and quartiles, the summed ``failed`` and ``attempted`` op counts, and
whether every run was correct; with the checkout's git revision (``-dirty``
when tracked files differ from it), its ``src_lines`` (the line count of
``src/**/*.py``) and ``src_module_lines`` (that count per module, keyed by
its path under ``src``), ``src_pyc_files`` (the number of ``.pyc`` files
under ``src``, read after the runs), ``nproc`` and the Python version. A
checkout with no compiled bytecode compiles ``src/`` in every pass, which
shows in ``setup_s`` and ``peak_rss_mb``: with ``PYTHONDONTWRITEBYTECODE``
set and ``__pycache__/`` ignored by git, a fresh checkout stays at 0. The
output file is written from scratch.

Once the file is written, stderr gets one line per label, ``<label> <rev>:
src_lines <n>``, followed by ``; <module> <first> -> <this>`` for each module
whose line count differs from the first label's, so a change in size shows
beside its medians. Then it gets one line per workload and metric: each
label's median, the quartile spread (q3 - q1) of the first label on the
command line, and in how many pairs the second label's value was lower than
the first's (every end-to-end metric is better lower), and whether that
meets the claim rule: the second label lower in at least nine tenths of the
pairs, ties counting for neither, and its median below the first's by more
than the first's q3 - q1.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys

WORKLOADS = ("prices", "audit", "allocators")


def git_rev(checkout: str) -> str:
    def git(*args: str) -> str:
        return subprocess.run(["git", *args], cwd=checkout, capture_output=True, text=True, check=True).stdout

    rev = git("rev-parse", "--short", "HEAD").strip()
    return rev + "-dirty" if git("status", "--porcelain", "--untracked-files=no").strip() else rev


def src_module_lines(checkout: str) -> dict[str, int]:
    src = pathlib.Path(checkout, "src")
    return {p.relative_to(src).as_posix(): p.read_text(encoding="utf-8").count("\n") for p in src.rglob("*.py")}


def parse_checkouts(parser: argparse.ArgumentParser, items: list[str]) -> dict[str, str]:
    """Each LABEL=CHECKOUT item as label -> absolute path, in the given order.

    A malformed item, a repeated label, and then a checkout with no
    ``perfbench/run.py`` are refused through ``parser.error``.
    """
    checkouts = {}
    for item in items:
        label, sep, path = item.partition("=")
        if not sep or not label or not path:
            parser.error(f"expected LABEL=CHECKOUT, got {item!r}")
        if label in checkouts:
            parser.error(f"{item!r}: label {label!r} is repeated; each checkout needs its own label")
        checkouts[label] = os.path.abspath(path)
    for item, path in zip(items, checkouts.values()):
        if not os.path.isfile(os.path.join(path, "perfbench", "run.py")):
            parser.error(f"{item!r}: no perfbench/run.py in {path}")
    return checkouts


def run_once(checkout: str, workload: str, seed: int) -> dict:
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload, "--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def summarize(results: list[dict]) -> dict:
    names = results[0]["metrics"]
    metrics = {}
    for name in names:
        values = [r["metrics"][name]["value"] for r in results]
        q1, _, q3 = statistics.quantiles(values, n=4)
        metrics[name] = {
            "unit": names[name]["unit"],
            "median": statistics.median(values),
            "q1": q1,
            "q3": q3,
            "runs": values,
        }
    return {
        "metrics": metrics,
        "runs": len(results),
        "correct": all(r["correct"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
    }


def src_pyc_files(checkout: str) -> int:
    return sum(1 for _ in pathlib.Path(checkout, "src").rglob("*.pyc"))


def src_summary(record: dict, labels: list[str]) -> list[str]:
    """One line per label: its rev and ``src_lines``, then each module whose count differs from the first label's."""
    base = record[labels[0]]["src_module_lines"]
    lines = []
    for label in labels:
        entry = record[label]
        modules = entry["src_module_lines"]
        line = f"{label} {entry['rev']}: src_lines {entry['src_lines']}"
        for module in sorted(base.keys() | modules.keys()):
            before, after = base.get(module, 0), modules.get(module, 0)
            if before != after:
                line += f"; {module} {before} -> {after}"
        lines.append(line)
    return lines


def pair_summary(record: dict, labels: list[str]) -> list[str]:
    """The stderr summary of a record: one line per workload and metric.

    ``labels`` gives the order, the first being the baseline: a record read
    back from its file has its labels sorted, not in the command's order.
    """
    lines = []
    for workload in WORKLOADS:
        first = record[labels[0]]["workloads"][workload]["metrics"]
        for name, stats in first.items():
            metrics = [record[label]["workloads"][workload]["metrics"][name] for label in labels]
            medians = ", ".join(f"{label} {m['median']:.4g}" for label, m in zip(labels, metrics))
            line = f"{workload} {name}: median {medians}; {labels[0]} q3-q1 {stats['q3'] - stats['q1']:.4g}"
            if len(labels) > 1:
                pairs = len(stats["runs"])
                won = sum(b < a for a, b in zip(stats["runs"], metrics[1]["runs"]))
                met = 10 * won >= 9 * pairs and stats["median"] - metrics[1]["median"] > stats["q3"] - stats["q1"]
                line += f"; {labels[1]} lower in {won} of {pairs} pairs; claim {'met' if met else 'not met'}"
            lines.append(line)
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("checkouts", nargs="+", metavar="LABEL=CHECKOUT")
    parser.add_argument("--out", required=True, help="BENCH_*.json file to write")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=7, help="workload seed passed to perfbench/run.py")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2 to give quartiles")

    checkouts = parse_checkouts(parser, args.checkouts)

    results: dict[str, dict[str, list[dict]]] = {label: {w: [] for w in WORKLOADS} for label in checkouts}
    for workload in WORKLOADS:
        for run in range(args.runs):
            order = list(checkouts.items())
            for label, path in order if run % 2 == 0 else order[::-1]:
                result = run_once(path, workload, args.seed)
                results[label][workload].append(result)
                wall = result["metrics"]["wall_s"]["value"]
                print(f"{workload} run {run + 1}/{args.runs} {label}: wall_s={wall:.3f}", file=sys.stderr)

    record = {}
    for label, path in checkouts.items():
        modules = src_module_lines(path)
        record[label] = {
            "rev": git_rev(path),
            "src_lines": sum(modules.values()),
            "src_module_lines": modules,
            "src_pyc_files": src_pyc_files(path),
            "seed": args.seed,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "workloads": {w: summarize(results[label][w]) for w in WORKLOADS},
        }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
        handle.write("\n")
    for line in src_summary(record, list(checkouts)) + pair_summary(record, list(checkouts)):
        print(line, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

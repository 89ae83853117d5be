"""Compare the exact outputs of two checkouts of this repository.

    python3 scripts/same_outputs.py parent=../old change=.

Each LABEL=CHECKOUT names a checkout, read as ``bench_record.py`` reads them;
there must be two. In each checkout the script runs, one process at a time:

- ``chorefair verify --suite all`` at seeds 3, 7 and 11, compared cell by
  cell (keyed by line number and column);
- one ``perfbench/worker.py`` pass of each workload at seeds 3, 7 and 11,
  compared by the per-op output ``digests`` of its result line;
- one traced pass of each workload at seed 7, compared by its counts: every
  per-layer value but the ``*.self_s`` times.

It prints one line per difference, ``<output> <item>: <label> <value>,
<label> <value>``, then on stderr ``compared <n> outputs, <n> items: <n>
differ``, and exits 1 on any difference, 0 when every output is equal. The
passes run as ``perfbench/run.py`` runs them (``PYTHONHASHSEED=0``, no
``PYTHONPATH``), and their input files under ``perfbench/out/work/`` are
removed afterwards, as ``run.py`` removes them; nothing else under
``perfbench/`` is written but the traced passes' span files in
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import shutil
import subprocess
import sys
import tempfile

from bench_record import WORKLOADS, parse_checkouts

SEEDS = (3, 7, 11)
TRACED_SEED = 7


def _run(cmd: list[str], checkout: str, env: dict) -> str:
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc.stdout


def verify_cells(path: str) -> dict[str, str]:
    """Each cell of a ``verify`` CSV, keyed ``line <n> <column>`` (the header is line 1)."""
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    header = rows[0] if rows else []
    return {f"line {n} {column}": cell for n, row in enumerate(rows[1:], 2) for column, cell in zip(header, row)}


def worker_pass(checkout: str, workload: str, seed: int, traced: bool) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("CHOREFAIR_THREADS", None)
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, os.path.join("perfbench", "worker.py"), "--workload", workload, "--seed", str(seed)]
    try:
        return json.loads(_run(cmd + (["--trace"] if traced else []), checkout, env).strip().splitlines()[-1])
    finally:
        shutil.rmtree(os.path.join(checkout, "perfbench", "out", "work", f"{workload}-seed{seed}"), ignore_errors=True)


def collect(checkout: str) -> dict[str, dict]:
    """Every compared output of one checkout: output name -> {item: value}."""
    outputs: dict[str, dict] = {}
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH="src")
    with tempfile.TemporaryDirectory() as tmp:
        for seed in SEEDS:
            out = os.path.join(tmp, f"verify_all_seed{seed}.csv")
            cmd = [sys.executable, "-m", "chorefair.cli", "verify", "--suite", "all", "--seed", str(seed)]
            _run(cmd + ["--out", out], checkout, env)
            outputs[f"verify seed {seed}"] = verify_cells(out)
    for workload in WORKLOADS:
        for seed in SEEDS:
            report = worker_pass(checkout, workload, seed, traced=False)
            outputs[f"{workload} seed {seed} digest"] = dict(zip(report["op_ids"], report["digests"]))
        report = worker_pass(checkout, workload, TRACED_SEED, traced=True)
        counts = {name: v for name, v in report["layers"].items() if not name.endswith(".self_s")}
        outputs[f"{workload} seed {TRACED_SEED} traced"] = counts
    return outputs


def _union(a: dict, b: dict) -> list:
    """The keys of ``a``, then those of ``b`` that ``a`` lacks."""
    return [*a, *(key for key in b if key not in a)]


def differences(first: tuple[str, dict], second: tuple[str, dict]) -> list[str]:
    """One line per item whose value differs between two (label, outputs) pairs, in the first's order."""
    (a_label, a), (b_label, b) = first, second
    lines = []
    for output in _union(a, b):
        x, y = a.get(output, {}), b.get(output, {})
        for item in _union(x, y):
            if x.get(item) != y.get(item):
                lines.append(f"{output} {item}: {a_label} {x.get(item)!r}, {b_label} {y.get(item)!r}")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("checkouts", nargs="+", metavar="LABEL=CHECKOUT")
    args = parser.parse_args()
    if len(args.checkouts) != 2:
        parser.error(f"expected two LABEL=CHECKOUT items, got {len(args.checkouts)}")
    checkouts = parse_checkouts(parser, args.checkouts)
    first, second = ((label, collect(path)) for label, path in checkouts.items())
    lines = differences(first, second)
    for line in lines:
        print(line)
    outputs = _union(first[1], second[1])
    items = sum(len(_union(first[1].get(name, {}), second[1].get(name, {}))) for name in outputs)
    print(f"compared {len(outputs)} outputs, {items} items: {len(lines)} differ", file=sys.stderr)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())

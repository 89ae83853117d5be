"""Byte-for-byte outputs of the demos and of ``chorefair verify --suite all`` at seeds 3, 7 and 11.

The files in ``tests/golden/`` pin the exact results the library reports.
A change that alters any of them changes an exact output; regenerate them
only for a deliberate, documented output change, from the repository root:

    for d in demos/*.py; do PYTHONPATH=src python3 "$d" > "tests/golden/$(basename "$d" .py).txt"; done
    PYTHONPATH=src python3 -m chorefair.cli verify --suite all --seed 3 --out tests/golden/verify_all_seed3.csv
    PYTHONPATH=src python3 -m chorefair.cli verify --suite all --seed 7 --out tests/golden/verify_all_seed7.csv
    PYTHONPATH=src python3 -m chorefair.cli verify --suite all --seed 11 --out tests/golden/verify_all_seed11.csv
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from chorefair.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_output_is_unchanged(demo):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    out = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True, check=True).stdout
    assert out == (GOLDEN / f"{demo.stem}.txt").read_bytes()


@pytest.mark.parametrize("seed", [3, 7, 11])
def test_verify_all_csv_is_unchanged(tmp_path, capsys, seed):
    out = tmp_path / "report.csv"
    assert main(["verify", "--suite", "all", "--seed", str(seed), "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"verify_all_seed{seed}.csv").read_bytes()

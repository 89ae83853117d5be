"""Byte-for-byte traces of the allocators.

``tests/golden/allocator_traces.txt`` holds one line per (instance,
algorithm): the case name, the algorithm and the ``chorefair allocate
--trace`` JSON. Every case records ``round_robin`` (in the default order),
``best_rr_order`` and ``optimal``; the two-agent cases also record ``alg1``
and ``pmms32``. The two-agent instances are the three two-agent price
families at epsilon = 1/100, one equal-cost instance (which takes the
round-robin branch), one hand-built instance for the 3/2-PMMS constructor's
``isolate_boundary_chore`` case, which no small random instance has been seen
to reach, and seeded random normalized instances with 2 to 10 chores. Seeds
0-31 are consecutive; seeds 69, 146, 767 and 1274 are added because they
reach the rare ``round_robin``, ``move_prefix`` and ``move_boundary_chore``
branches. The 3- and 4-agent cases are seeded random normalized instances
with costs 0 to 3, so that equal and zero costs occur in every pick.
Regenerate only for a deliberate, documented output change, from the
repository root:

    PYTHONPATH=src python3 tests/test_allocator_traces.py > tests/golden/allocator_traces.txt
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

from chorefair import Additive, Instance, instance_to_json, make_family
from chorefair.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden" / "allocator_traces.txt"

RANDOM_SEEDS = tuple(range(32)) + (69, 146, 767, 1274)
MANY_AGENT_SEEDS = tuple(range(12))

TWO_AGENT_ALGORITHMS = ("alg1", "pmms32")
ALGORITHMS = ("round_robin", "best_rr_order", "optimal")

LABELS = (
    "round_robin",
    "optimal_split_is_ef1",
    "shifted_split",
    "optimal_already_fair",
    "move_prefix",
    "move_boundary_chore",
    "isolate_boundary_chore",
)


def _normalized(rows: list[list[int]]) -> Instance:
    costs = tuple(Additive(tuple(Fraction(v, sum(row)) for v in row)) for row in rows)
    return Instance(n=len(rows), m=len(rows[0]), costs=costs)


def _random_two_agent(seed: int) -> Instance:
    rng = random.Random(seed)
    m = rng.randint(2, 10)
    rows = [[rng.randint(0, 5) for _ in range(m)] for _ in range(2)]
    for row in rows:
        if sum(row) == 0:
            row[0] = 1
    return _normalized(rows)


def _random_many_agent(n: int, seed: int) -> Instance:
    rng = random.Random(1000 * n + seed)
    m = rng.randint(2, 8)
    rows = [[rng.randint(0, 3) for _ in range(m)] for _ in range(n)]
    for row in rows:
        if sum(row) == 0:
            row[0] = 1
    return _normalized(rows)


def cases() -> list[tuple[str, Instance]]:
    out = [
        (family_id, make_family(family_id, epsilon=Fraction(1, 100)).instance)
        for family_id in ("POF_EF1_N2", "POF_PMMS32_N2", "POF_PMMS_N2")
    ]
    out.append(("equal_costs", _normalized([[1] * 4, [1] * 4])))
    # Agent 0 violates 3/2-PMMS on {0, 1} in the optimum, and its boundary
    # chore 0 costs agent 1 more than 1/8 extra, so agent 0 keeps chore 0 alone.
    out.append(("isolate_boundary", _normalized([[460, 300, 40, 200], [590, 385, 5, 20]])))
    out += [(f"random_{seed}", _random_two_agent(seed)) for seed in RANDOM_SEEDS]
    out += [(f"random_n{n}_{seed}", _random_many_agent(n, seed)) for n in (3, 4) for seed in MANY_AGENT_SEEDS]
    return out


def traces_text() -> str:
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, inst in cases():
            path = Path(tmp) / f"{name}.json"
            path.write_text(json.dumps(instance_to_json(inst)), encoding="utf-8")
            two_agent = TWO_AGENT_ALGORITHMS if inst.n == 2 else ()
            for algorithm in two_agent + ALGORITHMS:
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    argv = ["allocate", "--instance", str(path), "--algorithm", algorithm, "--trace"]
                    assert main(argv) == 0
                lines.append(f"{name}\t{algorithm}\t{out.getvalue().rstrip(chr(10))}")
    return "\n".join(lines) + "\n"


def test_allocator_traces_are_unchanged():
    assert traces_text() == GOLDEN.read_text(encoding="utf-8")


def test_golden_reaches_every_branch():
    reached = set()
    for line in GOLDEN.read_text(encoding="utf-8").splitlines():
        for record in json.loads(line.split("\t")[2])["trace"]:
            if record["op"] in ("branch", "case"):
                reached.add(record.get("case") or record.get("label"))
    assert set(LABELS) <= reached, sorted(set(LABELS) - reached)


if __name__ == "__main__":
    sys.stdout.write(traces_text())

"""The benchmark tracer (``perfbench/tracer.py``) still sees every traced layer.

The tracer wraps public entry points from the outside: the evaluators that
``model.mask_evaluator`` hands out, ``InstanceContext.min_alpha_masks`` with
exactly three arguments, and ``search.best_fair_allocation``. A refactor that
goes round one of them leaves its per-layer metrics at zero; this test finds
that in a fresh interpreter, where no context has been built before the
tracer is installed. The two-agent allocators must reach the MMS layer on both
routes the ``allocators`` benchmark workload requires: the additive route for
the half-split shares and the pairwise route for the PMMS postcondition. The
searches that cut subtrees at each agent's share cap (MMS, and PMMS with two
agents) must still ask the wrapped kernel, and an uncapped search whose seed
(each chore on its cheapest agent) is fair asks it exactly once. It only reads
``perfbench/``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_SCRIPT = """
import json
from tracer import Tracer

tracer = Tracer()
tracer.install()
from chorefair import (INFINITY, Allocation, Criterion, alg1_two_agent_ef1, best_fair_allocation,
                       fairness_report, pmms32_two_agent, random_instance)

inst = random_instance(3, 5, "additive", seed=1)
best_fair_allocation(inst, Criterion.EF1, 1)
fairness_report(random_instance(3, 5, "submodular", seed=2),
                Allocation.from_assignment([0, 1, 2, 0, 1], 3), list(Criterion))
print(json.dumps(tracer.metrics()))
two = random_instance(2, 6, "additive", seed=3)
alg1_two_agent_ef1(two)
pmms32_two_agent(two)
print(json.dumps(tracer.metrics()))
best_fair_allocation(inst, Criterion.MMS, 1)
print(json.dumps(tracer.metrics()))
best_fair_allocation(two, Criterion.PMMS, 1)
print(json.dumps(tracer.metrics()))
best_fair_allocation(inst, Criterion.EF1, INFINITY)
print(json.dumps(tracer.metrics()))
"""


def test_tracer_counts_every_traced_layer():
    path = [str(ROOT / "src"), str(ROOT / "perfbench"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    out = subprocess.run([sys.executable, "-c", _SCRIPT], env=env, capture_output=True, check=True, text=True)
    lines = out.stdout.strip().splitlines()[-5:]
    before, metrics, mms_search, pmms_search, uncapped = (json.loads(line) for line in lines)
    names = ["model.eval.calls", "search.best_fair.calls", "search.alpha_checks"]
    names += [f"criteria.{c}.calls" for c in ("EF", "EF1", "EFX", "EFX_STRONG", "MMS", "PMMS")]
    for name in names:
        assert before.get(name, 0) > 0, (name, before)
    # the allocator calls alone add to each of these
    for name in ("mms.additive.calls", "mms.pairwise.calls", "criteria.context.builds"):
        assert metrics.get(name, 0) > before.get(name, 0), (name, before, metrics)
    # each capped search alone adds to the kernel's alpha checks
    for earlier, later in ((metrics, mms_search), (mms_search, pmms_search)):
        assert later.get("search.alpha_checks", 0) > earlier.get("search.alpha_checks", 0), (earlier, later)
    # a fair seed ends the uncapped search, still through the wrapped kernel
    assert uncapped.get("search.alpha_checks", 0) == pmms_search.get("search.alpha_checks", 0) + 1

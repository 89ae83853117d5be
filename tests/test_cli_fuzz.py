"""CLI input contract under malformed input: exit 0, or exit 2 with one tagged line.

Valid instance and allocation documents for every cost variant are mutated
(dropped keys, swapped types, nested lists, negative, huge and boolean
numbers) and fed to ``chorefair eval`` and ``chorefair mms``; ``chorefair
family`` gets small, negative, boolean, non-numeric and huge parameter
values for every catalog family. Malformed input must never surface as exit 1
with a raw Python exception.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import re
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from chorefair.cli import main
from chorefair.families import FAMILY_IDS, family_params

VALID_COSTS = {
    "additive": {"type": "additive", "values": ["1", "2", "0"]},
    "capped_additive": {"type": "capped_additive", "values": ["1", "1/2", "3"], "cap": "2"},
    "capped_cardinality": {"type": "capped_cardinality", "cap": 2},
    "row_coverage": {"type": "row_coverage", "rows": [[0, 2], [1]], "weights": ["1", "1/3"]},
    "table": {"type": "table", "m": 3, "values": ["0", "1", "1", "2", "1", "2", "2", "2"]},
}
VALID_ALLOCATION = {"bundles": [[0, 2], [1]]}

TAGGED_LINE = re.compile(r"[a-z]+(-[a-z]+)*: [^\n]*\n")

# Replacement values: swapped types, nested lists, negative, huge and boolean numbers.
JUNK = st.sampled_from(
    [None, True, False, 0, -1, -(2**40), 2**62, 10**30, 1.5, "", "x", "-1", "1/0", "2**62",
     [], [[]], [[0]], [[[0]]], [-1], [2**62], [True], ["1"], {}, {"type": "additive"}]
)


def _paths(doc, prefix=()):
    """Every (container, key) position in a JSON document, outermost first."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _mutate(doc, path, action, junk):
    *parents, last = path
    holder = doc
    for key in parents:
        holder = holder[key]
    if action == "drop":
        del holder[last]
    elif action == "wrap":
        holder[last] = [holder[last]]
    else:
        holder[last] = copy.deepcopy(junk)


@st.composite
def mutated(draw, base):
    doc = copy.deepcopy(base)
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        _mutate(doc, path, draw(st.sampled_from(["drop", "wrap", "replace", "replace"])), draw(JUNK))
    return doc


def _instance(first: str, second: str) -> dict:
    agents = [{"cost": copy.deepcopy(VALID_COSTS[first])}, {"cost": copy.deepcopy(VALID_COSTS[second])}]
    return {"n": 2, "m": 3, "agents": agents}


VARIANTS = sorted(VALID_COSTS)


@st.composite
def documents(draw):
    inst = _instance(draw(st.sampled_from(VARIANTS)), draw(st.sampled_from(VARIANTS)))
    target = draw(st.sampled_from(["instance", "allocation", "both"]))
    if target in ("instance", "both"):
        inst = draw(mutated(inst))
    alloc = VALID_ALLOCATION
    if target in ("allocation", "both"):
        alloc = draw(mutated(alloc))
    return inst, alloc


def _run(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _check_contract(code: int, err: str, argv: list[str]) -> None:
    if code == 0:
        assert err == "", (argv, err)
    else:
        assert code == 2 and TAGGED_LINE.fullmatch(err), (argv, code, err)


@settings(max_examples=300, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(documents(), st.sampled_from([["--k", "1"], ["--k", "2"], ["--k", "3", "--chores", "0,2"]]))
def test_mutated_json_exits_0_or_2_with_one_tagged_line(docs, mms_args):
    inst, alloc = docs
    with tempfile.TemporaryDirectory() as tmp:
        inst_path, alloc_path = Path(tmp, "instance.json"), Path(tmp, "allocation.json")
        inst_path.write_text(json.dumps(inst))
        alloc_path.write_text(json.dumps(alloc))
        for argv in (
            ["eval", "--instance", str(inst_path), "--allocation", str(alloc_path)],
            ["mms", "--instance", str(inst_path), "--agent", "0", *mms_args],
            ["mms", "--instance", str(inst_path), "--agent", "1", "--enumerate", *mms_args],
        ):
            code, err = _run(argv)
            _check_contract(code, err, argv)


# Family parameter values: small, negative, boolean, non-numeric and huge;
# None leaves the option out. Each family gets only the options it takes.
SIZES = st.sampled_from(
    [None, "-3", "0", "1", "2", "3", "3", "4", "4", "5", "6", "True", "false", "x", "1.5", "", "1/2",
     "10000000000", str(10**20), str(-(10**10)), str(2**62)]
)
RATIONALS = st.sampled_from(
    [None, "-1", "0", "1", "1", "5/4", "5/4", "3/2", "2", "1/100", "1/100", "1/1000", "-1/2", "1/0", "True",
     "x", "0.5", "1e3", "", str(10**20), f"1/{10**20}"]
)


@settings(max_examples=300, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.sampled_from(FAMILY_IDS),
    st.fixed_dictionaries({"n": SIZES, "m": SIZES, "p": SIZES, "alpha": RATIONALS, "epsilon": RATIONALS}),
)
def test_family_parameters_exit_0_or_2_with_one_tagged_line(family_id, params):
    argv = ["family", "--id", family_id]
    argv += [f"--{name}={params[name]}" for name in family_params(family_id) if params[name] is not None]
    code, err = _run(argv)
    _check_contract(code, err, argv)

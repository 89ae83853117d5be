"""Command-line interface: outputs, schemas, exit codes."""

from __future__ import annotations

import argparse
import csv
import importlib
import importlib.util
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from chorefair import mms
from chorefair.cli import main
from chorefair.errors import ChoreFairError, InternalError
from chorefair.mms import mms_value
from chorefair.model import instance_digest, instance_from_json
from chorefair.search import (
    VERIFY_MAX_COUNT,
    VERIFY_MAX_N,
    VERIFY_PRICES_MAX_N,
    PropositionReport,
    reports_to_csv_rows,
    verify_connections,
    verify_lemmas,
    verify_prices,
)

INSTANCE_JSON = {
    "n": 3,
    "m": 7,
    "agents": [
        {"cost": {"type": "additive", "values": ["2", "3", "3", "0", "4", "2", "1"]}},
        {"cost": {"type": "additive", "values": ["3", "1", "3", "2", "5", "0", "5"]}},
        {"cost": {"type": "additive", "values": ["1", "5", "10", "2", "3", "1", "3"]}},
    ],
}


@pytest.fixture()
def instance_file(tmp_path):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(INSTANCE_JSON))
    return str(path)


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def test_eval_reference_output(tmp_path, instance_file, capsys):
    alloc = _write(tmp_path, "b.json", {"bundles": [[0, 4, 6], [1, 3, 5], [2]]})
    assert main(["eval", "--instance", instance_file, "--allocation", alloc]) == 0
    out = capsys.readouterr().out.strip()
    assert out == '{"EF":"7/3","EFX":"2","EF1":"1","MMS":"7/5","PMMS":"7/5"}'


def test_eval_criteria_subset(tmp_path, instance_file, capsys):
    alloc = _write(tmp_path, "a.json", {"bundles": [[0, 3, 6], [1, 2, 5], [4]]})
    assert main(["eval", "--instance", instance_file, "--allocation", alloc, "--criteria", "EF,EFX_STRONG"]) == 0
    assert json.loads(capsys.readouterr().out) == {"EF": "1", "EFX_STRONG": "1"}


@pytest.mark.parametrize("criteria", ["", "EF,,MMS"])
def test_eval_empty_criterion_name_exits_2(tmp_path, instance_file, capsys, criteria):
    # An empty list names no criterion; it does not fall back to the defaults.
    alloc = _write(tmp_path, "a.json", {"bundles": [[0, 3, 6], [1, 2, 5], [4]]})
    assert main(["eval", "--instance", instance_file, "--allocation", alloc, "--criteria", criteria]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "argument-error: unknown criterion ''\n"


def test_eval_empty_instance(tmp_path, capsys):
    inst = _write(tmp_path, "empty.json", {"n": 2, "m": 0, "agents": [
        {"cost": {"type": "additive", "values": []}},
        {"cost": {"type": "additive", "values": []}},
    ]})
    alloc = _write(tmp_path, "alloc.json", {"bundles": [[], []]})
    assert main(["eval", "--instance", inst, "--allocation", alloc]) == 0
    assert set(json.loads(capsys.readouterr().out).values()) == {"1"}


def test_eval_partition_violation_exits_2(tmp_path, instance_file, capsys):
    alloc = _write(tmp_path, "bad.json", {"bundles": [[0, 4], [1, 3, 5], [2]]})
    assert main(["eval", "--instance", instance_file, "--allocation", alloc]) == 2
    assert "validation-error" in capsys.readouterr().err


def _assert_tagged_input_error(capsys, tag):
    err = capsys.readouterr().err
    assert err.startswith(f"{tag}: ") and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "bundles,tag",
    [
        ([[0, 4, 6, -1], [1, 3, 5], [2]], "bounds-error"),
        ([5, [1]], "parse-error"),
        ([[0, 4, 6], [1, 3, 5], [[2]]], "parse-error"),
        ([[0, 4, 6], [1, 3, 5], [2, 2**62]], "validation-error"),
    ],
    ids=["negative-index", "non-list-bundle", "non-int-index", "huge-index"],
)
def test_eval_malformed_allocation_exits_2(tmp_path, instance_file, capsys, bundles, tag):
    alloc = _write(tmp_path, "bad.json", {"bundles": bundles})
    assert main(["eval", "--instance", instance_file, "--allocation", alloc]) == 2
    _assert_tagged_input_error(capsys, tag)


def test_eval_boolean_agent_count_exits_2(tmp_path, capsys):
    inst = _write(tmp_path, "bool.json", {"n": True, "m": 1, "agents": [{"cost": {"type": "additive", "values": ["1"]}}]})
    alloc = _write(tmp_path, "alloc.json", {"bundles": [[0]]})
    assert main(["eval", "--instance", inst, "--allocation", alloc]) == 2
    _assert_tagged_input_error(capsys, "validation-error")


def _run_cli(argv: list[str]) -> subprocess.CompletedProcess:
    """``chorefair.cli`` in a fresh interpreter, killed after 20 s."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", "chorefair.cli", *argv], env=env, capture_output=True, text=True, timeout=20
    )


def _random_normalized_file(tmp_path, n: int, m: int) -> str:
    rng = random.Random(n * m)
    agents = []
    for _ in range(n):
        row = [rng.randint(0, 9) for _ in range(m)]
        row[0] += 1
        total = sum(row)
        agents.append({"cost": {"type": "additive", "values": [f"{v}/{total}" for v in row]}})
    return _write(tmp_path, f"normalized_{n}x{m}.json", {"n": n, "m": m, "agents": agents})


def test_eval_mms_search_past_its_node_budget_exits_2(tmp_path):
    # Three agents' MMS over 24 large random values: the branch-and-bound
    # ran for minutes before it had a node budget.
    rng = random.Random(1)
    m = 24
    agents = [
        {"cost": {"type": "additive", "values": [str(rng.randint(10**6, 10**7)) for _ in range(m)]}}
        for _ in range(3)
    ]
    inst = _write(tmp_path, "big.json", {"n": 3, "m": m, "agents": agents})
    alloc = _write(tmp_path, "alloc.json", {"bundles": [list(range(i, m, 3)) for i in range(3)]})
    done = _run_cli(["eval", "--instance", inst, "--allocation", alloc, "--criteria", "MMS"])
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("size-guard-exceeded: ") and done.stderr.count("\n") == 1, done.stderr


def test_mms_k3_share_past_the_unbounded_node_budget_exits_0(tmp_path, capsys):
    # Without the branch-and-bound's room bound this share passes the node
    # budget and exits 2 with size-guard-exceeded.
    rng = random.Random(3)
    values = [str(rng.randint(1, 10**4)) for _ in range(24)]
    inst = _write(tmp_path, "k3.json", {"n": 1, "m": 24, "agents": [{"cost": {"type": "additive", "values": values}}]})
    assert main(["mms", "--instance", inst, "--agent", "0", "--k", "3"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    payload = json.loads(out)
    assert payload["value"] == "48568"
    assert sorted(sum(payload["witness"], [])) == list(range(24))


@pytest.mark.parametrize("k", [2, 9])
def test_mms_of_65_additive_chores_is_the_capped_at_total_share(tmp_path, capsys, k):
    values = [str(1 + (7 * e) % 20) for e in range(65)]
    capped = {"type": "capped_additive", "values": values, "cap": str(sum(map(int, values)))}
    printed = []
    for cost in ({"type": "additive", "values": values}, capped):
        inst = _write(tmp_path, f"{cost['type']}.json", {"n": 1, "m": 65, "agents": [{"cost": cost}]})
        assert main(["mms", "--instance", inst, "--agent", "0", "--k", str(k)]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        printed.append(json.loads(out)["value"])
    assert printed[0] == printed[1]


def _deep_capped_additive_files(tmp_path, n):
    # 1,500 large values have no item guard on the capped-additive route, and
    # the branch-and-bound goes one level deeper per item.
    rng = random.Random(3)
    m = 1500
    cost = {"type": "capped_additive", "values": [str(rng.randint(10**6, 10**7)) for _ in range(m)], "cap": str(10**12)}
    inst = _write(tmp_path, "deep.json", {"n": n, "m": m, "agents": [{"cost": cost}] * n})
    alloc = _write(tmp_path, "alloc.json", {"bundles": [list(range(i, m, n)) for i in range(n)]})
    return inst, alloc


@pytest.mark.parametrize("k", [2, 3])
def test_mms_search_of_1500_items_stops_at_the_node_budget(tmp_path, capsys, monkeypatch, k):
    # A smaller budget keeps the test short; the refusal is the same at any budget.
    monkeypatch.setattr(mms, "MMS_NODE_BUDGET", 20_000)
    inst, _ = _deep_capped_additive_files(tmp_path, 1)
    assert main(["mms", "--instance", inst, "--agent", "0", "--k", str(k)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "size-guard-exceeded: min-max branch-and-bound exceeded its budget of 20000 nodes\n"


def test_eval_mms_search_of_1500_items_stops_at_the_node_budget(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(mms, "MMS_NODE_BUDGET", 20_000)
    inst, alloc = _deep_capped_additive_files(tmp_path, 2)
    assert main(["eval", "--instance", inst, "--allocation", alloc, "--criteria", "MMS"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "size-guard-exceeded: min-max branch-and-bound exceeded its budget of 20000 nodes\n"


@pytest.mark.parametrize("m", [-1, 2**62, "3"])
def test_eval_malformed_table_size_exits_2(tmp_path, capsys, m):
    table = {"type": "table", "m": m, "values": ["0", "1"]}
    inst = _write(tmp_path, "table.json", {"n": 1, "m": 1, "agents": [{"cost": table}]})
    alloc = _write(tmp_path, "alloc.json", {"bundles": [[0]]})
    assert main(["eval", "--instance", inst, "--allocation", alloc]) == 2
    _assert_tagged_input_error(capsys, "validation-error")


@pytest.mark.parametrize(
    "value,message",
    [
        ([1], "parse-error: not a rational: [1]\n"),
        (None, "parse-error: not a rational: None\n"),
        ({}, "parse-error: not a rational: {}\n"),
        (0.5, "parse-error: not a rational: 0.5 (floats are rejected)\n"),
    ],
    ids=["list", "null", "object", "float"],
)
def test_eval_non_rational_cost_names_floats_only_for_floats(tmp_path, capsys, value, message):
    inst = _write(tmp_path, "v.json", {"n": 1, "m": 1, "agents": [{"cost": {"type": "additive", "values": [value]}}]})
    alloc = _write(tmp_path, "alloc.json", {"bundles": [[0]]})
    assert main(["eval", "--instance", inst, "--allocation", alloc]) == 2
    assert capsys.readouterr().err == message


def test_parse_error_has_location(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"n": 1,\n  "m": }')
    alloc = _write(tmp_path, "a.json", {"bundles": [[]]})
    assert main(["eval", "--instance", str(path), "--allocation", alloc]) == 2
    assert ":2:" in capsys.readouterr().err
    # Valid JSON that is not an object is refused without a location.
    array = _write(tmp_path, "array.json", [1, 2])
    assert main(["eval", "--instance", array, "--allocation", alloc]) == 2
    assert capsys.readouterr().err == "parse-error: instance must be a JSON object\n"


def test_mms_subcommand(tmp_path, instance_file, capsys):
    assert main(["mms", "--instance", instance_file, "--agent", "1", "--k", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] == "7"
    assert sorted(sum(payload["witness"], [])) == list(range(7))
    assert main(["mms", "--instance", instance_file, "--agent", "1", "--k", "3", "--enumerate"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == "7"


def test_eval_mms_of_seven_agents_with_a_table_cost_exits_0(tmp_path, capsys):
    # A seven-way share of three chores: enumeration has no block guard.
    popcount = {"type": "table", "m": 3, "values": [str(s.bit_count()) for s in range(8)]}
    agents = [{"cost": popcount}] + [{"cost": {"type": "additive", "values": ["1", "2", "3"]}}] * 6
    inst = _write(tmp_path, "inst.json", {"n": 7, "m": 3, "agents": agents})
    alloc = _write(tmp_path, "alloc.json", {"bundles": [[0], [1], [2], [], [], [], []]})
    assert main(["eval", "--instance", inst, "--allocation", alloc, "--criteria", "MMS,PMMS"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out == '{"MMS":"1","PMMS":"1"}\n'


def test_one_block_shares_past_the_enumeration_guard_exit_0(tmp_path, capsys):
    # k = 1 is c(S), read with no subset table, so no chore count is refused.
    cost = {"type": "additive", "values": [str(e + 1) for e in range(15)]}
    inst = _write(tmp_path, "additive.json", {"n": 1, "m": 15, "agents": [{"cost": cost}]})
    assert main(["mms", "--instance", inst, "--agent", "0", "--k", "1", "--enumerate"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert json.loads(out) == {"value": "120", "witness": [list(range(15))]}
    popcount = {"type": "table", "m": 15, "values": [str(s.bit_count()) for s in range(1 << 15)]}
    inst = _write(tmp_path, "table.json", {"n": 1, "m": 15, "agents": [{"cost": popcount}]})
    alloc = _write(tmp_path, "alloc.json", {"bundles": [list(range(15))]})
    assert main(["eval", "--instance", inst, "--allocation", alloc, "--criteria", "MMS"]) == 0
    assert capsys.readouterr() == ('{"MMS":"1"}\n', "")


def test_mms_enumerate_past_the_chore_count_answers_as_the_grouped_route(tmp_path, capsys):
    cost = {"type": "additive", "values": ["1", "2", "3", "4", "5"]}
    inst = _write(tmp_path, "inst.json", {"n": 1, "m": 5, "agents": [{"cost": cost}]})
    printed = []
    for extra in ([], ["--enumerate"]):
        assert main(["mms", "--instance", inst, "--agent", "0", "--k", "7", *extra]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        payload = json.loads(out)
        assert len(payload["witness"]) == 7
        printed.append(payload["value"])
    assert printed == ["5", "5"]


def test_mms_subset_flag(tmp_path, instance_file, capsys):
    assert main(["mms", "--instance", instance_file, "--agent", "0", "--k", "2", "--chores", "0,2,4,6"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] == "5"
    assert sorted(sum(payload["witness"], [])) == [0, 2, 4, 6]
    # An empty list is the empty chore set, not all chores.
    assert main(["mms", "--instance", instance_file, "--agent", "0", "--k", "2", "--chores", ""]) == 0
    assert capsys.readouterr().out == '{"value":"0","witness":[[],[]]}\n'


def test_allocate_optimal(tmp_path, instance_file, capsys):
    assert main(["allocate", "--instance", instance_file, "--algorithm", "optimal"]) == 0
    assert json.loads(capsys.readouterr().out)["social_cost"] == "9"


def test_allocate_round_robin_with_trace(tmp_path, instance_file, capsys):
    assert main([
        "allocate", "--instance", instance_file, "--algorithm", "round_robin",
        "--order", "2,0,1", "--trace",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["trace"][0] == {"op": "order", "order": [2, 0, 1]}


def test_allocate_round_robin_on_20000_chores_finishes(tmp_path):
    # Round robin rescanned every remaining chore on each pick: two minutes here.
    inst = _random_normalized_file(tmp_path, 2, 20_000)
    done = _run_cli(["allocate", "--instance", inst, "--algorithm", "round_robin"])
    assert done.returncode == 0, done.stderr
    bundles = json.loads(done.stdout)["allocation"]["bundles"]
    assert [len(b) for b in bundles] == [10_000, 10_000]


def test_allocate_best_order_past_its_pick_guard_exits_2(tmp_path):
    # 8! orders of 1,000 picks each: hours of work before the n! * m guard.
    inst = _random_normalized_file(tmp_path, 8, 1_000)
    done = _run_cli(["allocate", "--instance", inst, "--algorithm", "best_rr_order"])
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("size-guard-exceeded: ") and done.stderr.count("\n") == 1, done.stderr


def test_allocate_order_length_mismatch(tmp_path, instance_file, capsys):
    assert main([
        "allocate", "--instance", instance_file, "--algorithm", "round_robin", "--order", "0,1",
    ]) == 2
    assert "argument-error" in capsys.readouterr().err


def test_allocate_alg1_mismatch_exits_2(instance_file, capsys):
    assert main(["allocate", "--instance", instance_file, "--algorithm", "alg1"]) == 2
    assert "precondition-failed" in capsys.readouterr().err


def test_allocate_internal_failure_exits_1(instance_file, capsys, monkeypatch):
    # A broken invariant inside a command is exit 1 with its one tagged line.
    import chorefair.cli as cli

    def broken(*args, **kwargs):
        raise InternalError("x")

    monkeypatch.setattr(cli, "pmms32_two_agent", broken)
    assert main(["allocate", "--instance", instance_file, "--algorithm", "pmms32"]) == 1
    assert capsys.readouterr() == ("", "internal-invariant: x\n")


def test_allocate_alg1_on_price_family(tmp_path, capsys):
    assert main(["family", "--id", "POF_EF1_N2", "--epsilon", "1/100"]) == 0
    family = json.loads(capsys.readouterr().out)
    inst = _write(tmp_path, "fam.json", family["instance"])
    assert main(["allocate", "--instance", inst, "--algorithm", "alg1"]) == 0
    assert json.loads(capsys.readouterr().out)["social_cost"] == "253/300"


def test_search_subcommand(tmp_path, instance_file, capsys):
    assert main(["search", "--instance", instance_file, "--criterion", "EF", "--alpha", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["fair_exists"] is True
    assert payload["opt_cost"] == "9"
    assert payload["price"] == "1"


def test_search_output_and_digest_are_unchanged(instance_file, capsys):
    # The digest is hashed lazily; the whole output line stays as pinned here.
    assert main(["search", "--instance", instance_file, "--criterion", "EF1", "--alpha", "1"]) == 0
    assert capsys.readouterr().out == (
        '{"instance_digest":"e8dd94a58485","criterion":"EF1","alpha":"1","fair_exists":true,'
        '"opt_cost":"9","best_fair_cost":"9","price":"1","witness":{"bundles":[[2,3,6],[1,5],[0,4]]}}\n'
    )
    assert instance_digest(instance_from_json(INSTANCE_JSON)) == "e8dd94a58485"


@pytest.mark.parametrize(
    "alpha, line",
    [
        ("x", "parse-error: not a rational: 'x'"),
        ("0.5", "parse-error: decimal notation is not exact: '0.5'"),
        ("1/2", "argument-error: alpha must be >= 1, got 1/2"),
        ("1/0", "parse-error: not a rational: '1/0'"),
        ("-1", "argument-error: alpha must be >= 1, got -1"),
    ],
)
def test_search_refuses_a_bad_alpha_with_one_line(instance_file, capsys, alpha, line):
    assert main(["search", "--instance", instance_file, "--criterion", "EF1", "--alpha", alpha]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", line + "\n")


def test_search_takes_a_fraction_alpha(instance_file, capsys):
    assert main(["search", "--instance", instance_file, "--criterion", "EF1", "--alpha", "3/2"]) == 0
    assert json.loads(capsys.readouterr().out)["alpha"] == "3/2"


def test_family_unknown_id_exits_2(capsys):
    assert main(["family", "--id", "BOGUS"]) == 2
    assert "argument-error" in capsys.readouterr().err


def test_family_refuses_a_parameter_it_does_not_take(capsys):
    assert main(["family", "--id", "EF_MMS_TIGHT", "--n", "2", "--alpha", "1", "--p", "5"]) == 2
    assert capsys.readouterr().err == (
        "argument-error: family EF_MMS_TIGHT takes parameters ('n', 'alpha'), not ['p']\n"
    )
    # An unknown id is still refused as such, whatever options come with it.
    assert main(["family", "--id", "BOGUS", "--p", "5"]) == 2
    _assert_tagged_input_error(capsys, "argument-error")


def test_family_output_is_loadable(tmp_path, capsys):
    assert main(["family", "--id", "SUB_POF_PMMS", "--epsilon", "1/100"]) == 0
    family = json.loads(capsys.readouterr().out)
    inst = _write(tmp_path, "table.json", family["instance"])
    alloc = _write(tmp_path, "ref.json", family["reference_allocation"])
    assert main(["eval", "--instance", inst, "--allocation", alloc, "--criteria", "PMMS"]) == 0
    assert json.loads(capsys.readouterr().out)["PMMS"] == "1"


def test_verify_connections_writes_csv(tmp_path, capsys):
    out = tmp_path / "report.csv"
    code = main(["verify", "--suite", "connections", "--n-max", "3", "--out", str(out)])
    assert code == 0
    with open(out, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert rows and all(row["status"] == "pass" for row in rows)
    assert list(rows[0]) == ["proposition_id", "n", "alpha", "epsilon", "expected", "observed", "status"]
    # canonical ordering: sorted by proposition id
    ids = [row["proposition_id"] for row in rows]
    assert ids == sorted(ids)


def test_verify_connections_defaults_are_the_cli_defaults(tmp_path):
    # One reference epsilon: the Python call with no arguments checks the CLI's rows.
    out = tmp_path / "report.csv"
    assert main(["verify", "--suite", "connections", "--out", str(out)]) == 0
    with open(out, newline="") as handle:
        assert list(csv.DictReader(handle)) == reports_to_csv_rows(verify_connections())


@pytest.mark.parametrize("suite,run", [("prices", verify_prices), ("lemmas", verify_lemmas)])
def test_verify_randomized_defaults_are_the_cli_defaults(tmp_path, suite, run):
    # One n grid and one sweep size: the Python call at seed 0 checks the CLI's rows.
    out = tmp_path / "report.csv"
    assert main(["verify", "--suite", suite, "--seed", "0", "--out", str(out)]) == 0
    with open(out, newline="") as handle:
        assert list(csv.DictReader(handle)) == reports_to_csv_rows(run())


def test_verify_lemmas_reports_a_broken_lemma(tmp_path, capsys, monkeypatch):
    # A share of 0 breaks c(S) <= k * MMS_k(S) on the first trial with a chore of positive cost.
    import chorefair.search as search

    monkeypatch.setattr(search, "mms_value", lambda inst, agent, k, chores=None: mms.MmsResult(Fraction(0), ()))
    rows = {row.proposition_id.split("(")[0]: row for row in verify_lemmas(count=4, seed=7)}
    broken = rows.pop("lemma:share-lower-bounds")
    assert broken.status == "fail"
    assert broken.observed.startswith("violated: trial 0:")
    assert all(row.passed for row in rows.values())
    out = tmp_path / "r.csv"
    assert main(["verify", "--suite", "lemmas", "--seed", "7", "--count", "4", "--out", str(out)]) == 3
    fails = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL ")]
    assert fails == [f"FAIL {broken.proposition_id}: expected holds, observed {broken.observed}"]


def test_verify_lemmas_requires_seed(tmp_path, capsys):
    out = tmp_path / "r.csv"
    assert main(["verify", "--suite", "lemmas", "--out", str(out)]) == 2
    assert main(["verify", "--suite", "lemmas", "--out", str(out), "--seed", "5", "--count", "40"]) == 0


def test_byte_stable_output(tmp_path, instance_file, capsys):
    alloc = _write(tmp_path, "b.json", {"bundles": [[0, 4, 6], [1, 3, 5], [2]]})
    main(["eval", "--instance", instance_file, "--allocation", alloc])
    first = capsys.readouterr().out
    main(["eval", "--instance", instance_file, "--allocation", alloc])
    assert capsys.readouterr().out == first


def test_mms_k_past_max_blocks_exits_2(instance_file, capsys):
    assert main(["mms", "--instance", instance_file, "--agent", "0", "--k", "1000001"]) == 2
    assert capsys.readouterr() == ("", "size-guard-exceeded: partition size k limited to 1000000, got 1000001\n")


def test_mms_agent_out_of_range_exits_2(tmp_path, capsys):
    inst = _write(tmp_path, "two.json", {"n": 2, "m": 2, "agents": [
        {"cost": {"type": "additive", "values": ["1", "2"]}},
        {"cost": {"type": "additive", "values": ["2", "1"]}},
    ]})
    assert main(["mms", "--instance", inst, "--agent", "5", "--k", "2"]) == 2
    _assert_tagged_input_error(capsys, "bounds-error")


@pytest.mark.parametrize("suite,count", [("lemmas", "-5"), ("prices", "0")])
def test_verify_count_below_one_exits_2(tmp_path, capsys, suite, count):
    out = tmp_path / "r.csv"
    assert main(["verify", "--suite", suite, "--seed", "1", "--count", count, "--out", str(out)]) == 2
    _assert_tagged_input_error(capsys, "argument-error")
    assert not out.exists()


def test_verify_count_past_its_guard_exits_2_before_any_suite(tmp_path, capsys, monkeypatch):
    started = _stub_suites(monkeypatch)
    argv = ["verify", "--suite", "lemmas", "--seed", "1", "--out", str(tmp_path / "r.csv"), "--count"]
    assert main([*argv, str(VERIFY_MAX_COUNT + 1)]) == 2
    message = f"--count {VERIFY_MAX_COUNT + 1} exceeds the guard {VERIFY_MAX_COUNT}"
    assert capsys.readouterr().err == f"size-guard-exceeded: {message}\n"
    assert started == []
    assert main([*argv, str(VERIFY_MAX_COUNT)]) == 0
    assert [kwargs["count"] for kwargs in started] == [VERIFY_MAX_COUNT]


def _stub_suites(monkeypatch, rows=()) -> list:
    """Replace the verify suites with ones that record their arguments and return ``rows``."""
    import chorefair.cli as cli

    started = []

    def suite(*args, **kwargs):
        started.append(kwargs)
        return list(rows)

    for name in ("verify_connections", "verify_prices", "verify_lemmas"):
        monkeypatch.setattr(cli, name, suite)
    return started


def test_verify_report_write_failure_exits_2(tmp_path, capsys, monkeypatch):
    # The folder exists, so the early checks pass; the write itself then fails.
    import chorefair.cli as cli

    def unwritable(*args, **kwargs):
        raise OSError("disk full")

    _stub_suites(monkeypatch)
    monkeypatch.setattr(cli, "open", unwritable, raising=False)
    out = tmp_path / "r.csv"
    assert main(["verify", "--suite", "connections", "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"error: cannot write {out}: disk full\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "n_max,tag",
    [
        ("0", "argument-error"),
        ("1", "argument-error"),
        ("-3", "argument-error"),
        ("7", "size-guard-exceeded"),
        ("40", "size-guard-exceeded"),
    ],
)
def test_verify_n_max_out_of_range_exits_2_before_any_suite(tmp_path, capsys, monkeypatch, n_max, tag):
    started = _stub_suites(monkeypatch)
    out = tmp_path / "r.csv"
    assert main(["verify", "--suite", "all", "--seed", "1", f"--n-max={n_max}", "--out", str(out)]) == 2
    _assert_tagged_input_error(capsys, tag)
    assert started == [] and not out.exists()


@pytest.mark.parametrize("suite", ["prices", "all"])
def test_verify_n_max_past_the_prices_guard_exits_2_before_any_suite(tmp_path, capsys, monkeypatch, suite):
    started = _stub_suites(monkeypatch)
    out = tmp_path / "r.csv"
    argv = ["verify", "--suite", suite, "--seed", "1", f"--n-max={VERIFY_PRICES_MAX_N + 1}", "--out", str(out)]
    assert main(argv) == 2
    _assert_tagged_input_error(capsys, "size-guard-exceeded")
    assert started == [] and not out.exists()


@pytest.mark.parametrize("suite", ["connections", "lemmas"])
def test_verify_n_max_at_verify_max_n_runs_the_suites_that_allow_it(tmp_path, capsys, monkeypatch, suite):
    started = _stub_suites(monkeypatch)
    out = tmp_path / "r.csv"
    assert main(["verify", "--suite", suite, "--seed", "1", f"--n-max={VERIFY_MAX_N}", "--out", str(out)]) == 0
    assert len(started) == 1 and out.exists()


@pytest.mark.parametrize("suite", ["connections", "lemmas"])
def test_verify_n_max_past_verify_max_n_exits_2_before_any_suite(tmp_path, capsys, monkeypatch, suite):
    started = _stub_suites(monkeypatch)
    out = tmp_path / "r.csv"
    argv = ["verify", "--suite", suite, "--seed", "1", f"--n-max={VERIFY_MAX_N + 1}", "--out", str(out)]
    assert main(argv) == 2
    _assert_tagged_input_error(capsys, "size-guard-exceeded")
    assert started == [] and not out.exists()


@pytest.mark.parametrize(
    "argv,tag",
    [
        (["--id", "EF_MMS_TIGHT", "--n", "10000000000", "--alpha", "1"], "size-guard-exceeded"),
        (["--id", "EF_MMS_TIGHT", "--n", "-100000", "--alpha", "1"], "argument-error"),
        (["--id", "MMS_NOT_PMMS", "--n", "4", "--p", "1000000000"], "size-guard-exceeded"),
        (["--id", "MMS_NOT_PMMS", "--n", "4", "--p", "300000"], "size-guard-exceeded"),
        (["--id", "POF_N3_UNBOUNDED", "--n", "3", "--m", "10000000000", "--epsilon", "1/100"], "size-guard-exceeded"),
        (["--id", "POF_N3_UNBOUNDED", "--n", "3", "--m", "x", "--epsilon", "1/100"], "argument-error"),
    ],
    ids=["n", "n-negative", "p", "p-just-over", "m", "m-not-an-integer"],
)
def test_family_size_errors_exit_2_at_once(capsys, argv, tag):
    assert main(["family", *argv]) == 2
    _assert_tagged_input_error(capsys, tag)


@pytest.mark.parametrize(
    "cost",
    [
        {"type": "additive", "values": "123"},
        {"type": "additive", "values": 5},
        {"type": "capped_additive", "values": {"0": "1", "1": "1", "2": "1"}, "cap": "2"},
        {"type": "row_coverage", "rows": 5, "weights": ["1"]},
        {"type": "row_coverage", "rows": [[0, 1], 2], "weights": ["1", "1"]},
        {"type": "row_coverage", "rows": [[0, 1, 2]], "weights": "1"},
        {"type": "table", "m": 3, "values": "01234567"},
        {"type": ["additive"], "values": ["1", "1", "1"]},
    ],
    ids=[
        "values-string", "values-int", "values-object", "rows-int", "row-int",
        "weights-string", "table-values-string", "type-list",
    ],
)
def test_non_list_cost_fields_exit_2(tmp_path, capsys, cost):
    inst = _write(tmp_path, "bad.json", {"n": 1, "m": 3, "agents": [{"cost": cost}]})
    assert main(["mms", "--instance", inst, "--agent", "0", "--k", "1"]) == 2
    _assert_tagged_input_error(capsys, "parse-error")


@pytest.mark.parametrize("suite,family", [("prices", "POF_EF1_N2"), ("connections", "PMMS_NOT_EF1")])
@pytest.mark.parametrize("epsilon", ["0", "-1/2", "5"])
def test_verify_epsilon_outside_a_family_range_exits_2(tmp_path, capsys, suite, family, epsilon):
    # Every grid entry of the family is invalid at this epsilon, so its rows
    # would silently vanish from the report.
    out = tmp_path / "r.csv"
    argv = ["verify", "--suite", suite, "--seed", "1", "--count", "2", f"--epsilon={epsilon}", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("argument-error: ") and err.count("\n") == 1 and family in err, err
    assert not out.exists()


def test_verify_connections_refuses_an_epsilon_above_1(tmp_path, capsys):
    # PMMS_NOT_EF1 expects EF1 = 1/epsilon, below 1 past epsilon 1.
    out = tmp_path / "r.csv"
    assert main(["verify", "--suite", "connections", "--epsilon", "3/2", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "argument-error: epsilon 3/2 leaves no valid parameters for PMMS_NOT_EF1\n"
    assert not out.exists()


def test_bench_record_refuses_a_repeated_label():
    # Checked before any checkout: a repeated label would keep only its last path.
    repo = Path(__file__).resolve().parent.parent
    argv = [sys.executable, str(repo / "scripts" / "bench_record.py"), "--out", "unused.json"]
    proc = subprocess.run([*argv, f"a={repo}", "a=/nonexistent"], capture_output=True, text=True, timeout=20)
    assert proc.returncode == 2 and proc.stdout == ""
    error = "'a=/nonexistent': label 'a' is repeated; each checkout needs its own label"
    assert proc.stderr.splitlines()[-1] == f"bench_record.py: error: {error}"


def test_bench_record_summarizes_pairs_on_synthetic_runs():
    path = Path(__file__).resolve().parent.parent / "scripts" / "bench_record.py"
    spec = importlib.util.spec_from_file_location("bench_record", path)
    bench_record = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_record)

    def label(walls, rss):
        runs = [
            {"metrics": {"wall_s": {"value": w, "unit": "s"}, "peak_rss_mb": {"value": r, "unit": "MB"}},
             "correct": True, "failed": 0, "attempted": 3}
            for w, r in zip(walls, rss)
        ]
        return {"workloads": {w: bench_record.summarize(runs) for w in bench_record.WORKLOADS}}

    # Pairs are run i of each label: the change is lower in pairs 1, 2 and 4
    # (a tie, pair 5, is no win), and its peak RSS in none.
    record = {"parent": label([1.0, 2.0, 3.0, 4.0, 5.0], [20] * 5), "change": label([0.5, 1.5, 3.5, 1.0, 5.0], [21] * 5)}
    lines = bench_record.pair_summary(record, ["parent", "change"])
    assert len(lines) == 2 * len(bench_record.WORKLOADS)
    assert lines[:2] == [
        "prices wall_s: median parent 3, change 1.5; parent q3-q1 3; change lower in 3 of 5 pairs; claim not met",
        "prices peak_rss_mb: median parent 20, change 21; parent q3-q1 0; change lower in 0 of 5 pairs; claim not met",
    ]
    # A record read back from its file has sorted keys (labels and metrics);
    # the labels passed in keep the baseline.
    reread = json.loads(json.dumps(record, sort_keys=True))
    assert list(reread) == ["change", "parent"]
    assert sorted(bench_record.pair_summary(reread, ["parent", "change"])) == sorted(lines)
    only = bench_record.pair_summary({"only": record["parent"]}, ["only"])
    assert only[0] == "prices wall_s: median only 3; only q3-q1 3"

    # The claim rule: lower in 9 of 10 pairs, and medians further apart than
    # the parent's q3 - q1 (here 1.00 - 0.90 > 1.01 - 0.99).
    parent = [1.00, 0.99, 1.01, 1.00, 0.99, 1.01, 1.00, 0.99, 1.01, 1.00]
    nine = [0.90, 0.89, 0.91, 0.90, 0.89, 0.91, 0.90, 0.89, 0.91, 1.20]
    eight = nine[:8] + [1.20, 1.20]
    for change, verdict in ((nine, "9 of 10 pairs; claim met"), (eight, "8 of 10 pairs; claim not met")):
        pairs = {"parent": label(parent, [20] * 10), "change": label(change, [20] * 10)}
        assert bench_record.pair_summary(pairs, ["parent", "change"])[0].endswith(f"change lower in {verdict}")
    # Nine wins of ten with the medians no further apart than the parent's spread.
    close = {"parent": label(parent, [20] * 10), "change": label([x - 0.001 for x in parent[:9]] + [2.0], [20] * 10)}
    assert bench_record.pair_summary(close, ["parent", "change"])[0].endswith("9 of 10 pairs; claim not met")


def test_same_outputs_prints_one_line_per_difference(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "scripts"))
    same_outputs = importlib.import_module("same_outputs")

    report = tmp_path / "report.csv"
    report.write_text('proposition_id,alpha,status\n"F[n=2]:min_alpha[MMS]",5/4,pass\nG,1,fail\n', encoding="utf-8")
    cells = same_outputs.verify_cells(str(report))
    assert cells == {
        "line 2 proposition_id": "F[n=2]:min_alpha[MMS]", "line 2 alpha": "5/4", "line 2 status": "pass",
        "line 3 proposition_id": "G", "line 3 alpha": "1", "line 3 status": "fail",
    }
    parent = {
        "verify seed 7": cells,
        "audit seed 7 digest": {"eval:0": "0123abcd", "mms:1": "4567ef01"},
        "audit seed 7 traced": {"model.eval.calls": 8657, "model.check.calls": 24},
    }

    def changed(output, item, value):
        change = {name: dict(items) for name, items in parent.items()}
        change.setdefault(output, {})[item] = value
        return same_outputs.differences(("parent", parent), ("change", change))

    assert changed("verify seed 7", "line 2 alpha", "5/4") == []
    assert changed("verify seed 7", "line 3 status", "pass") == [
        "verify seed 7 line 3 status: parent 'fail', change 'pass'"
    ]
    assert changed("audit seed 7 digest", "mms:1", "4567ef02") == [
        "audit seed 7 digest mms:1: parent '4567ef01', change '4567ef02'"
    ]
    assert changed("audit seed 7 traced", "model.check.calls", 25) == [
        "audit seed 7 traced model.check.calls: parent 24, change 25"
    ]
    # An item or an output on one side only is a difference too.
    assert changed("prices seed 3 digest", "family:0", "89ab") == [
        "prices seed 3 digest family:0: parent None, change '89ab'"
    ]

    monkeypatch.setattr(sys, "argv", ["same_outputs.py", "only=."])
    with pytest.raises(SystemExit) as info:
        same_outputs.main()
    assert info.value.code == 2

    # A run says on stderr how much it compared, after the difference lines on stdout.
    change = {name: dict(items) for name, items in parent.items()}
    change["audit seed 7 traced"]["model.check.calls"] = 25
    change["prices seed 3 digest"] = {"family:0": "89ab"}
    collected = {}
    for label, outputs in (("parent", parent), ("change", change)):
        (tmp_path / label / "perfbench").mkdir(parents=True)
        (tmp_path / label / "perfbench" / "run.py").write_text("")
        collected[str(tmp_path / label)] = outputs
    monkeypatch.setattr(same_outputs, "collect", collected.__getitem__)
    capsys.readouterr()
    for checkouts, code, out, err in [
        ({"parent": "parent", "copy": "parent"}, 0, "", "compared 3 outputs, 10 items: 0 differ\n"),
        ({"parent": "parent", "change": "change"}, 1, (
            "audit seed 7 traced model.check.calls: parent 24, change 25\n"
            "prices seed 3 digest family:0: parent None, change '89ab'\n"
        ), "compared 4 outputs, 11 items: 2 differ\n"),
    ]:
        argv = [f"{label}={tmp_path / path}" for label, path in checkouts.items()]
        monkeypatch.setattr(sys, "argv", ["same_outputs.py", *argv])
        assert same_outputs.main() == code
        assert capsys.readouterr() == (out, err)


def test_bench_record_summarizes_src_lines_per_label():
    path = Path(__file__).resolve().parent.parent / "scripts" / "bench_record.py"
    spec = importlib.util.spec_from_file_location("bench_record", path)
    bench_record = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_record)

    parent = {"rev": "abc1234", "src_lines": 30, "src_module_lines": {"pkg/a.py": 10, "pkg/b.py": 15, "pkg/c.py": 5}}
    change = {"rev": "def5678-dirty", "src_lines": 29, "src_module_lines": {"pkg/a.py": 10, "pkg/b.py": 12, "pkg/d.py": 7}}
    record = json.loads(json.dumps({"parent": parent, "change": change}, sort_keys=True))
    assert bench_record.src_summary(record, ["parent", "change"]) == [
        "parent abc1234: src_lines 30",
        "change def5678-dirty: src_lines 29; pkg/b.py 15 -> 12; pkg/c.py 5 -> 0; pkg/d.py 0 -> 7",
    ]


@pytest.mark.parametrize("command", ["eval", "mms"])
def test_nested_coverage_row_exits_2(tmp_path, capsys, command):
    cost = {"type": "row_coverage", "rows": [[[0]]], "weights": ["1"]}
    inst = _write(tmp_path, "nested.json", {"n": 1, "m": 1, "agents": [{"cost": cost}]})
    alloc = _write(tmp_path, "alloc.json", {"bundles": [[0]]})
    argv = {"eval": ["--allocation", alloc], "mms": ["--agent", "0", "--k", "1"]}[command]
    assert main([command, "--instance", inst, *argv]) == 2
    _assert_tagged_input_error(capsys, "validation-error")


@pytest.mark.parametrize("command", ["eval", "mms"])
def test_huge_capped_cardinality_chore_count_exits_2(tmp_path, capsys, command):
    # Only a capped-cardinality cost leaves m unbounded by its JSON data.
    cost = {"type": "capped_cardinality", "cap": 2}
    inst = _write(tmp_path, "huge.json", {"n": 2, "m": 2**62, "agents": [{"cost": cost}, {"cost": cost}]})
    alloc = _write(tmp_path, "alloc.json", {"bundles": [[0], [1]]})
    argv = {"eval": ["--allocation", alloc], "mms": ["--agent", "0", "--k", "2"]}[command]
    assert main([command, "--instance", inst, *argv]) == 2
    _assert_tagged_input_error(capsys, "size-guard-exceeded")


@pytest.mark.parametrize(
    "argv",
    [
        ["mms", "--instance", "x.json", "--agent", "0", "--k", "x"],
        ["mms", "--instance", "x.json", "--agent", "one", "--k", "2"],
        ["verify", "--suite", "lemmas", "--out", "r.csv", "--n-max", "x"],
        ["verify", "--suite", "lemmas", "--out", "r.csv", "--seed", "1.5"],
        ["verify", "--suite", "lemmas", "--out", "r.csv", "--seed", "1", "--count", "many"],
        ["bogus"],
        ["mms", "--agent", "0", "--k", "2"],
        ["allocate", "--instance", "x.json", "--algorithm", "greedy"],
        ["eval", "--instance", "x.json", "--allocation", "a.json", "--extra"],
        [],
    ],
    ids=["k", "agent", "n-max", "seed", "count", "unknown-command", "missing-option", "bad-choice",
         "unknown-option", "empty"],
)
def test_usage_errors_exit_2_with_one_tagged_line(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("argument-error: ") and captured.err.count("\n") == 1, captured.err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["mms", "--agent", "0", "--k", "2"], "cannot read {missing}"),
        (["mms", "--agent", "0", "--k", "2", "--chores", "0,x"], "expected a comma-separated integer list, got '0,x'"),
        (["allocate", "--algorithm", "round_robin", "--order", "1,x"], "expected a comma-separated integer list, got '1,x'"),
    ],
    ids=["missing-instance", "chores", "order"],
)
def test_unreadable_instance_and_bad_lists_exit_2_with_one_tagged_line(tmp_path, instance_file, capsys, argv, message):
    missing = str(tmp_path / "missing.json")
    path = missing if "{missing}" in message else instance_file
    assert main([argv[0], "--instance", path, *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1, captured.err
    assert captured.err.startswith(f"error: {message.format(missing=missing)}"), captured.err


def test_help_exits_0_with_its_help_text(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["mms", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: chorefair mms ")


def test_verify_unwritable_out_exits_2(tmp_path, capsys):
    out = tmp_path / "missing" / "r.csv"
    assert main(["verify", "--suite", "lemmas", "--seed", "1", "--count", "1", "--out", str(out)]) == 2
    _assert_tagged_input_error(capsys, f"error: cannot write {out}")


def test_main_builds_the_parser_tree_at_most_once(tmp_path, instance_file, monkeypatch, capsys):
    _stub_suites(monkeypatch)
    roots = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if self.prog == "chorefair":  # subparsers are "chorefair <command>"
            roots.append(self)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    alloc = _write(tmp_path, "b.json", {"bundles": [[0, 4, 6], [1, 3, 5], [2]]})
    out = str(tmp_path / "r.csv")
    calls = [
        ["eval", "--instance", instance_file, "--allocation", alloc],
        ["eval", "--instance", instance_file, "--allocation", alloc, "--criteria", "EF1"],
        ["mms", "--instance", instance_file, "--agent", "0", "--k", "2"],
        ["mms", "--instance", instance_file, "--agent", "1", "--k", "3", "--enumerate"],
        ["allocate", "--instance", instance_file, "--algorithm", "optimal"],
        ["allocate", "--instance", instance_file, "--algorithm", "round_robin", "--trace"],
        ["search", "--instance", instance_file, "--criterion", "EF", "--alpha", "1"],
        ["family", "--id", "POF_EF1_N2", "--epsilon", "1/100"],
        ["verify", "--suite", "lemmas", "--seed", "1", "--out", out],
        ["mms", "--instance", instance_file, "--agent", "5", "--k", "2"],
    ]
    for argv in calls * 2:
        assert main(argv) in (0, 2)
    assert len(roots) <= 1


def test_calls_leave_no_state_in_the_shared_parser(tmp_path, instance_file, monkeypatch, capsys):
    import chorefair.cli as cli

    started = _stub_suites(monkeypatch)
    out = str(tmp_path / "r.csv")
    calls = [
        ["allocate", "--instance", instance_file, "--algorithm", "round_robin", "--trace"],
        ["allocate", "--instance", instance_file, "--algorithm", "round_robin"],
        ["mms", "--instance", instance_file, "--agent", "0", "--k", "2", "--enumerate"],
        ["mms", "--instance", instance_file, "--agent", "0", "--k", "2"],
        ["verify", "--suite", "lemmas", "--seed", "1", "--count", "40", "--out", out],
        ["verify", "--suite", "lemmas", "--seed", "1", "--out", out],
    ]

    def run(argv):
        code = main(argv)
        return (code, *capsys.readouterr())

    in_sequence = [run(argv) for argv in calls]
    assert "trace" in json.loads(in_sequence[0][1]) and "trace" not in json.loads(in_sequence[1][1])
    witness = mms_value(instance_from_json(INSTANCE_JSON), 0, 2).witness
    assert json.loads(in_sequence[3][1])["witness"] == [sorted(b) for b in witness]
    assert json.loads(in_sequence[2][1])["witness"] != json.loads(in_sequence[3][1])["witness"]
    assert [kwargs["count"] for kwargs in started] == [40, 200]
    for argv, result in zip(calls, in_sequence):
        cli._build_parser.cache_clear()
        assert run(argv) == result, argv


_INSTANCE = ["--instance", "{inst}"]
_EVAL = ["eval", *_INSTANCE, "--allocation", "{alloc}"]
_MMS = ["mms", *_INSTANCE, "--agent", "0", "--k", "2"]
_VERIFY = ["verify", "--suite", "lemmas", "--seed", "1", "--out", "{out}"]
_VALID_CALLS = [
    _EVAL,
    _MMS,
    ["allocate", *_INSTANCE, "--algorithm", "round_robin", "--trace"],
    ["search", *_INSTANCE, "--criterion", "EF", "--alpha", "1"],
    ["family", "--id", "POF_EF1_N2", "--epsilon", "1/100"],
    _VERIFY,
]
_COMMANDS = ["eval", "mms", "allocate", "search", "family", "verify"]
# Every argv shape the dispatch in ``main`` could read differently from the root parser.
_DISPATCH_CORPUS = [
    *_VALID_CALLS,
    [*_MMS, "--enumerate", "--chores", "0,1,2"],
    ["-h"],
    ["--help"],
    *([command, flag] for command in _COMMANDS for flag in ("-h", "--help")),
    [*_MMS, "--he"],
    [],
    ["ev", *_EVAL[1:]],
    ["EVAL", *_EVAL[1:]],
    ["frobnicate"],
    ["eval", "--inst", "{inst}", "--alloc", "{alloc}"],
    ["mms", "--instance={inst}", "--agent=0", "--k=2"],
    ["eval", *_INSTANCE],
    [*_MMS[:-1], "two"],
    ["allocate", *_INSTANCE, "--algorithm", "greedy"],
    ["verify", "--suite", "everything", "--out", "{out}"],
    [*_EVAL, "extra"],
    [*_EVAL, "--bogus"],
    [*_MMS, "--agent", "1"],
    [*_VERIFY, "--count", "3", "--count", "4"],
    ["--", *_EVAL],
    ["eval", "--", *_EVAL[1:]],
    [*_EVAL, "--"],
    [*_INSTANCE, "eval", "--allocation", "{alloc}"],
    ["-h", *_EVAL],
]


def _root_parser_main(argv) -> int:
    """``main`` with every argv parsed by the root parser, which hands a command to its subparser."""
    import chorefair.cli as cli

    try:
        args = cli._build_parser()[0].parse_args(argv)
        return args.func(args)
    except InternalError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except ChoreFairError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - mirrors main
        print(f"internal-error: {exc}", file=sys.stderr)
        return 1


@pytest.fixture()
def dispatch_files(tmp_path, instance_file, monkeypatch):
    started = _stub_suites(monkeypatch)
    names = {"inst": instance_file, "out": str(tmp_path / "r.csv")}
    names["alloc"] = _write(tmp_path, "b.json", {"bundles": [[0, 4, 6], [1, 3, 5], [2]]})
    return lambda argv: [arg.format(**names) for arg in argv], started


@pytest.mark.parametrize("argv", _DISPATCH_CORPUS, ids=lambda argv: " ".join(argv) or "<empty>")
def test_command_dispatch_matches_the_root_parser(dispatch_files, capsys, argv):
    fill, _ = dispatch_files

    def run(main_fn):
        try:
            code = main_fn(fill(argv))
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
        return (code, *capsys.readouterr())

    assert run(main) == run(_root_parser_main)


def test_valid_commands_do_not_reach_the_root_parser(dispatch_files, monkeypatch, capsys):
    import chorefair.cli as cli

    def refuse(*args, **kwargs):
        raise AssertionError("the root parser was asked to parse a known command")

    fill, started = dispatch_files
    monkeypatch.setattr(cli._build_parser()[0], "parse_args", refuse)
    for argv in _VALID_CALLS:
        assert main(fill(argv)) == 0, capsys.readouterr().err
    assert len(started) == 1


@pytest.mark.parametrize(
    "cost",
    [
        {"type": "capped_additive", "values": ["1", "2", "3", "4"], "cap": "5"},
        {"type": "capped_cardinality", "cap": 2},
        {"type": "row_coverage", "rows": [[0, 1], [2], [3]], "weights": ["1", "2", "3"]},
    ],
    ids=lambda cost: cost["type"],
)
def test_mms_huge_k_on_grouped_costs_exits_2_at_once(tmp_path, capsys, cost):
    # The grouped route pads its witness to k blocks, so an unguarded k this
    # large would try to build a list of 10^10 entries.
    inst = _write(tmp_path, "inst.json", {"n": 1, "m": 4, "agents": [{"cost": cost}]})
    assert main(["mms", "--instance", inst, "--agent", "0", "--k", "10000000000"]) == 2
    _assert_tagged_input_error(capsys, "size-guard-exceeded")


@pytest.mark.parametrize("where", ["missing-directory", "file-as-directory", "directory"])
def test_verify_unwritable_out_exits_2_before_any_suite(tmp_path, capsys, monkeypatch, where):
    started = _stub_suites(monkeypatch)
    (tmp_path / "file").write_text("")
    out = {
        "missing-directory": tmp_path / "missing" / "r.csv",
        "file-as-directory": tmp_path / "file" / "r.csv",
        "directory": tmp_path,
    }[where]
    assert main(["verify", "--suite", "all", "--seed", "7", "--out", str(out)]) == 2
    _assert_tagged_input_error(capsys, f"error: cannot write {out}")
    assert started == []


def test_verify_all_without_seed_exits_2_before_any_suite(tmp_path, capsys, monkeypatch):
    started = _stub_suites(monkeypatch)
    out = tmp_path / "r.csv"
    assert main(["verify", "--suite", "all", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: the prices suite runs randomized sweeps; pass --seed\n"
    assert started == [] and not out.exists()


def test_verify_keeps_an_existing_report_until_its_rows_are_ready(tmp_path, capsys, monkeypatch):
    failing = PropositionReport("P[n=2]", 2, None, None, "alpha<=1", "alpha=3/2", "fail")
    started = _stub_suites(monkeypatch, [failing])
    out = tmp_path / "r.csv"
    out.write_text("old report\n")
    assert main(["verify", "--suite", "prices", "--out", str(out)]) == 2  # no --seed
    _assert_tagged_input_error(capsys, "error")
    assert started == [] and out.read_text() == "old report\n"
    # Once the rows are ready the report is replaced, and a failing row exits 3.
    assert main(["verify", "--suite", "prices", "--seed", "1", "--out", str(out)]) == 3
    assert capsys.readouterr().out == (
        f"0/1 checks passed; report written to {out}\nFAIL P[n=2]: expected alpha<=1, observed alpha=3/2\n"
    )
    with open(out, newline="") as handle:
        assert list(csv.DictReader(handle)) == reports_to_csv_rows([failing])


_LONG_LITERAL = "1" * 5000  # past int()'s 4,300-digit limit, so json.load refuses it; json.dumps cannot write it


@pytest.mark.parametrize(
    "command,where",
    [("eval", "values"), ("eval", "cap"), ("eval", "allocation"), ("mms", "values"), ("mms", "cap")],
)
def test_integer_literal_past_the_digit_limit_exits_2(tmp_path, capsys, command, where):
    costs = {
        "values": f'{{"type": "additive", "values": [{_LONG_LITERAL}]}}',
        "cap": f'{{"type": "capped_additive", "values": ["1"], "cap": {_LONG_LITERAL}}}',
        "allocation": '{"type": "additive", "values": ["1"]}',
    }
    inst = tmp_path / "inst.json"
    inst.write_text(f'{{"n": 1, "m": 1, "agents": [{{"cost": {costs[where]}}}]}}', encoding="utf-8")
    alloc = tmp_path / "alloc.json"
    alloc.write_text(f'{{"bundles": [[{_LONG_LITERAL if where == "allocation" else 0}]]}}', encoding="utf-8")
    argv = {"eval": ["--allocation", str(alloc)], "mms": ["--agent", "0", "--k", "1"]}[command]
    assert main([command, "--instance", str(inst), *argv]) == 2
    bad = alloc if where == "allocation" else inst
    err = capsys.readouterr().err
    assert err.startswith(f"parse-error: {bad}: Exceeds the limit") and err.count("\n") == 1, err[:200]


@pytest.mark.parametrize("command", ["eval", "mms"])
def test_instance_file_that_is_not_utf8_exits_2(tmp_path, capsys, command):
    inst = tmp_path / "inst.json"
    inst.write_bytes(b'\xff{"n": 1}')
    alloc = _write(tmp_path, "alloc.json", {"bundles": [[0]]})
    argv = {"eval": ["--allocation", alloc], "mms": ["--agent", "0", "--k", "1"]}[command]
    assert main([command, "--instance", str(inst), *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"parse-error: {inst}: 'utf-8' codec can't decode") and err.count("\n") == 1, err

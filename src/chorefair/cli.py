"""Command-line front end.

Subcommands: eval, mms, allocate, search, family, verify. Structured output
is JSON on stdout; verification matrices are CSV. Exit codes: 0 success,
1 internal failure, 2 input/precondition error, 3 verification failures.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys

from .allocate import (
    alg1_two_agent_ef1,
    best_round_robin_order,
    optimal_allocation,
    pmms32_two_agent,
    round_robin,
)
from .criteria import DEFAULT_CRITERIA, Criterion, fairness_report
from .errors import ArgumentError, ChoreFairError, InternalError, ParseError, SizeGuardError
from .families import family_to_json, make_family
from .mms import mms_share, mms_value
from .model import (
    allocation_from_json,
    allocation_to_json,
    instance_from_json,
    parse_rational,
    rational_str,
)
from .search import (
    _REFERENCE_EPSILON,
    CSV_COLUMNS,
    VERIFY_MAX_N,
    VERIFY_PRICES_MAX_N,
    best_fair_allocation,
    reports_to_csv_rows,
    verify_connections,
    verify_lemmas,
    verify_prices,
)

_JSON_KW = dict(separators=(",", ":"), default=str)


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise ChoreFairError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ChoreFairError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # an integer literal past int()'s digit limit, or bytes that are not UTF-8
        raise ParseError(f"{path}: {exc}") from exc


def _load_instance(path: str):
    return instance_from_json(_load_json(path))


def _parse_int_list(text: str) -> list[int]:
    if not text.strip():
        return []
    try:
        return [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise ChoreFairError(f"expected a comma-separated integer list, got {text!r}") from exc


def _cmd_eval(args) -> int:
    inst = _load_instance(args.instance)
    alloc = allocation_from_json(_load_json(args.allocation))
    criteria = DEFAULT_CRITERIA
    if args.criteria is not None:
        criteria = tuple(Criterion.parse(name) for name in args.criteria.split(","))
    report = fairness_report(inst, alloc, criteria)
    print(json.dumps(report.alpha_str(), **_JSON_KW))
    return 0


def _cmd_mms(args) -> int:
    inst = _load_instance(args.instance)
    chores = frozenset(_parse_int_list(args.chores)) if args.chores is not None else None
    solve = mms_share if args.enumerate else mms_value
    result = solve(inst, args.agent, args.k, chores)
    print(
        json.dumps(
            {"value": rational_str(result.value), "witness": [sorted(b) for b in result.witness]},
            **_JSON_KW,
        )
    )
    return 0


#: ``allocate --algorithm`` name -> its call on the loaded instance; the keys are the choices, in order.
_ALGORITHMS = {
    "round_robin": lambda inst, args: round_robin(inst, _parse_int_list(args.order) if args.order else None),
    "alg1": lambda inst, args: alg1_two_agent_ef1(inst, normalize_input=args.normalize),
    "pmms32": lambda inst, args: pmms32_two_agent(inst, normalize_input=args.normalize),
    "optimal": lambda inst, args: optimal_allocation(inst),
    "best_rr_order": lambda inst, args: best_round_robin_order(inst),
}


def _cmd_allocate(args) -> int:
    inst = _load_instance(args.instance)
    outcome = _ALGORITHMS[args.algorithm](inst, args)
    payload = {
        "allocation": allocation_to_json(outcome.allocation),
        "social_cost": rational_str(outcome.social_cost),
    }
    if args.trace:
        payload["trace"] = list(outcome.trace)
    print(json.dumps(payload, **_JSON_KW))
    return 0


def _cmd_search(args) -> int:
    inst = _load_instance(args.instance)
    crit = Criterion.parse(args.criterion)
    report = best_fair_allocation(inst, crit, args.alpha)
    payload = {
        "instance_digest": report.instance_digest,
        "criterion": crit.value,
        "alpha": rational_str(report.alpha),
        "fair_exists": report.fair_exists,
        "opt_cost": rational_str(report.opt_cost),
        "best_fair_cost": rational_str(report.best_fair_cost) if report.fair_exists else None,
        "price": rational_str(report.price) if report.fair_exists else None,
        "witness": allocation_to_json(report.witness) if report.witness else None,
    }
    print(json.dumps(payload, **_JSON_KW))
    return 0


def _cmd_family(args) -> int:
    params: dict = {}
    for name, raw in (("n", args.n), ("m", args.m), ("p", args.p)):
        if raw is not None:
            try:
                params[name] = int(raw)
            except ValueError:
                raise ArgumentError(f"--{name} must be an integer, got {raw!r}") from None
    for name, raw in (("alpha", args.alpha), ("epsilon", args.epsilon)):
        if raw is not None:
            params[name] = parse_rational(raw)
    bundle = make_family(args.id, **params)
    print(json.dumps(family_to_json(bundle), **_JSON_KW))
    return 0


def _cmd_verify(args) -> int:
    if args.count < 1:
        raise ArgumentError(f"--count must be at least 1, got {args.count}")
    if args.n_max < 2:
        raise ArgumentError(f"--n-max must be at least 2, got {args.n_max}")
    limit = VERIFY_PRICES_MAX_N if args.suite in ("prices", "all") else VERIFY_MAX_N
    if args.n_max > limit:
        raise SizeGuardError(f"--n-max {args.n_max} exceeds the guard {limit} for --suite {args.suite}")
    if args.seed is None and args.suite != "connections":
        randomized = "lemmas" if args.suite == "lemmas" else "prices"
        raise ChoreFairError(f"the {randomized} suite runs randomized sweeps; pass --seed")
    # Catch a report path that cannot be written before any suite runs, but
    # leave an existing report untouched until its rows are ready.
    if os.path.isdir(args.out):
        raise ChoreFairError(f"cannot write {args.out}: it is a directory")
    folder = os.path.dirname(args.out) or "."
    if not os.path.isdir(folder):
        raise ChoreFairError(f"cannot write {args.out}: no directory {folder}")
    epsilon = parse_rational(args.epsilon) if args.epsilon else _REFERENCE_EPSILON
    n_values = tuple(range(2, args.n_max + 1))
    rows = []
    if args.suite in ("connections", "all"):
        rows.extend(verify_connections(n_values=n_values, epsilon=epsilon))
    if args.suite in ("prices", "all"):
        rows.extend(verify_prices(epsilon=epsilon, n_values=n_values, sweep_count=args.count, seed=args.seed))
    if args.suite in ("lemmas", "all"):
        rows.extend(verify_lemmas(count=args.count, seed=args.seed))
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=CSV_COLUMNS)
            writer.writeheader()
            for row in reports_to_csv_rows(rows):
                writer.writerow(row)
    except OSError as exc:
        raise ChoreFairError(f"cannot write {args.out}: {exc}") from exc
    failures = [row for row in rows if not row.passed]
    print(f"{len(rows) - len(failures)}/{len(rows)} checks passed; report written to {args.out}")
    for row in failures:
        print(f"FAIL {row.proposition_id}: expected {row.expected}, observed {row.observed}")
    return 3 if failures else 0


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as an ``ArgumentError``, so that ``main`` prints
    it as one tagged line and returns 2; subparsers inherit the class."""

    def error(self, message):
        raise ArgumentError(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser tree, built on first use and shared by every ``main`` call.

    Parsing only reads it: each call gets a fresh ``Namespace``.
    """
    parser = _Parser(
        prog="chorefair",
        description="Exact fairness analysis for allocating indivisible chores.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="minimal fairness factors of an allocation")
    p_eval.add_argument("--instance", required=True)
    p_eval.add_argument("--allocation", required=True)
    p_eval.add_argument("--criteria", help="comma list, e.g. EF,EFX,EF1,MMS,PMMS")
    p_eval.set_defaults(func=_cmd_eval)

    p_mms = sub.add_parser("mms", help="exact maximin share of one agent")
    p_mms.add_argument("--instance", required=True)
    p_mms.add_argument("--agent", type=int, required=True)
    p_mms.add_argument("--k", type=int, required=True)
    p_mms.add_argument("--chores", help="comma list of chore indices (default: all)")
    p_mms.add_argument("--enumerate", action="store_true", help="force partition enumeration")
    p_mms.set_defaults(func=_cmd_mms)

    p_alloc = sub.add_parser("allocate", help="run an allocation algorithm")
    p_alloc.add_argument("--instance", required=True)
    p_alloc.add_argument("--algorithm", choices=_ALGORITHMS, required=True)
    p_alloc.add_argument("--order", help="agent order for round_robin, e.g. 0,1,2")
    p_alloc.add_argument("--trace", action="store_true")
    p_alloc.add_argument("--normalize", action="store_true", help="rescale input before alg1/pmms32")
    p_alloc.set_defaults(func=_cmd_allocate)

    p_search = sub.add_parser("search", help="cheapest allocation meeting a fairness level")
    p_search.add_argument("--instance", required=True)
    p_search.add_argument("--criterion", required=True)
    p_search.add_argument("--alpha", required=True)
    p_search.set_defaults(func=_cmd_search)

    p_family = sub.add_parser("family", help="emit a catalog instance family")
    p_family.add_argument("--id", required=True)
    p_family.add_argument("--n")
    p_family.add_argument("--m")
    p_family.add_argument("--p")
    p_family.add_argument("--alpha")
    p_family.add_argument("--epsilon")
    p_family.set_defaults(func=_cmd_family)

    p_verify = sub.add_parser("verify", help="run a verification suite and write CSV")
    p_verify.add_argument("--suite", choices=("connections", "prices", "lemmas", "all"), required=True)
    p_verify.add_argument("--out", required=True)
    p_verify.add_argument("--n-max", type=int, default=5, dest="n_max")
    p_verify.add_argument("--epsilon")
    p_verify.add_argument("--seed", type=int)
    p_verify.add_argument("--count", type=int, default=200, help="sweep size for randomized rows")
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except InternalError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except ChoreFairError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal-error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

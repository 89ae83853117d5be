"""Workload definitions: inputs made from a seed, the timed call, and output checks.

Each workload's ``build`` runs in the set-up phase and returns a list of
``Op``. ``Op.run`` is the only code inside an op timer; it calls chorefair
through its public functions or ``chorefair.cli.main``. After the timed
phase, ``Op.output`` puts its result in canonical form (rational strings,
sorted witnesses) and ``Op.check`` returns an error string or None; it
encodes the invariants that hold at every seed.

Functions are looked up on the ``chorefair`` package at call time, so the
tracer's wrappers (installed after set-up) are the ones called.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import chorefair as cf
import chorefair.cli
import chorefair.families

DEFAULT_SEED = 7
EPSILON = Fraction(1, 100)
ALL_CRITERIA = tuple(cf.Criterion)

# The six two-agent sweeps that `chorefair verify --suite prices` runs.
PRICE_SWEEPS = (
    ("price-EF1<=5/4", "EF1", Fraction(1), Fraction(5, 4)),
    ("price-3/2-PMMS<=7/6", "PMMS", Fraction(3, 2), Fraction(7, 6)),
    ("price-PMMS<=2", "PMMS", Fraction(1), Fraction(2)),
    ("price-MMS<=2", "MMS", Fraction(1), Fraction(2)),
    ("price-EFX<=2", "EFX", Fraction(1), Fraction(2)),
    ("price-2-MMS=1", "MMS", Fraction(2), Fraction(1)),
)
GRID_ALPHAS = (Fraction(1), Fraction(5, 4), Fraction(3, 2), Fraction(2))
GRID_P = (3, 10, 50)


@dataclass
class Op:
    op_id: str
    run: Callable[[], object]
    output: Callable[[object], object]
    check: Callable[[object], str | None]
    # True when the inputs do not depend on the seed, so the committed
    # expected output applies at every seed.
    fixed: bool = False


def canonical(output) -> str:
    return json.dumps(output, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Seeded input generation (the benchmark's own, independent of the program's
# random_instance). Sizes (n, m, k), the queried agent and the mix of cost
# variants cycle with the op index rather than being drawn, so every seed has
# the same mix and the seed only changes the values.
# ---------------------------------------------------------------------------


def rng_for(seed: int, *key) -> random.Random:
    # String seeds hash with SHA-512, so inputs do not depend on PYTHONHASHSEED.
    return random.Random(":".join(str(k) for k in (seed,) + key))


def _raw(rng: random.Random, m: int, low: int = 0) -> list[int]:
    raw = [rng.randint(low, 100) for _ in range(m)]
    if sum(raw) == 0:
        raw[rng.randrange(m)] = 1
    return raw


def additive(rng: random.Random, m: int) -> cf.Additive:
    raw = _raw(rng, m)
    total = sum(raw)
    return cf.Additive(tuple(Fraction(v, total) for v in raw))


def capped_additive(rng: random.Random, m: int) -> cf.CappedAdditive:
    raw = _raw(rng, m)
    cap = rng.randint(max(1, sum(raw) // 2), sum(raw))
    return cf.CappedAdditive(tuple(Fraction(v, cap) for v in raw), Fraction(1))


def row_coverage(rng: random.Random, m: int) -> cf.RowCoverage:
    count = rng.randint(1, m)
    groups: dict[int, list[int]] = {}
    for chore in range(m):
        groups.setdefault(rng.randrange(count), []).append(chore)
    raw = _raw(rng, len(groups), low=1)
    total = sum(raw)
    return cf.RowCoverage(tuple(tuple(g) for g in groups.values()), tuple(Fraction(v, total) for v in raw))


def capped_cardinality(rng: random.Random, m: int) -> cf.CappedCardinality:
    return cf.CappedCardinality(rng.randint(1, m))


def table(rng: random.Random, m: int) -> cf.TableCost:
    """Monotone submodular table: min(a(S), cap) plus a weighted coverage of S."""
    raw = _raw(rng, m)
    cap = rng.randint(max(1, sum(raw) // 2), sum(raw))
    groups = [rng.randrange(m) for _ in range(m)]  # chore -> group id
    weight = {g: rng.randint(1, 100) for g in sorted(set(groups))}
    total = sum(weight.values())
    values = []
    for mask in range(1 << m):
        chores = [e for e in range(m) if mask >> e & 1]
        capped = min(sum(raw[e] for e in chores), cap)
        covered = sum(weight[g] for g in {groups[e] for e in chores})
        values.append(Fraction(capped * total + covered * cap, cap * total))
    return cf.TableCost(m=m, values=tuple(values))


VARIANTS = {
    "additive": additive,
    "capped": capped_additive,
    "coverage": row_coverage,
    "cardinality": capped_cardinality,
    "table": table,
}
MIXABLE = ("additive", "capped", "coverage", "cardinality")


def instance(rng: random.Random, n: int, m: int, variant: str, index: int = 0) -> cf.Instance:
    """n agents over m chores. "mixed" gives agent i the variant
    MIXABLE[(index + i) % 4]; "table" does the same but gives agent 0 a
    table cost."""
    if variant in ("mixed", "table"):
        kinds = [MIXABLE[(index + i) % len(MIXABLE)] for i in range(n)]
        if variant == "table":
            kinds[0] = "table"
    else:
        kinds = [variant] * n
    return cf.Instance(n=n, m=m, costs=tuple(VARIANTS[kind](rng, m) for kind in kinds))


def random_allocation(rng: random.Random, n: int, m: int) -> cf.Allocation:
    return cf.Allocation.from_assignment([rng.randrange(n) for _ in range(m)], n)


def family_grid(n_values, kind: str):
    """The (family id, params) pairs `verify` builds, in its order.

    For each family the grid runs over n, alpha, epsilon and p in parameter
    order; a family is skipped at the first bundle of another kind.
    """
    pools = {"n": n_values, "alpha": GRID_ALPHAS, "epsilon": (EPSILON,), "p": GRID_P, "m": (6,)}
    for family_id in cf.FAMILY_IDS:
        names = chorefair.families.family_params(family_id)
        for combo in itertools.product(*(pools[name] for name in names)):
            params = dict(zip(names, combo))
            if not chorefair.families.valid_params(family_id, **params):
                continue
            bundle = cf.make_family(family_id, **params)
            if bundle.kind != kind:
                break
            label = family_id + "".join(f"[{k}={v}]" for k, v in params.items())
            yield label, bundle


# ---------------------------------------------------------------------------
# Shared output forms and checks
# ---------------------------------------------------------------------------


def bundles_json(alloc: cf.Allocation) -> list[list[int]]:
    return [sorted(b) for b in alloc.bundles]


def to_allocation(bundles) -> cf.Allocation:
    return cf.Allocation(tuple(frozenset(b) for b in bundles))


def social(inst: cf.Instance, bundles) -> Fraction:
    return sum((inst.cost(i, b) for i, b in enumerate(bundles)), Fraction(0))


def partition_error(inst: cf.Instance, bundles) -> str | None:
    try:
        cf.check_partition(inst, to_allocation(bundles))
    except cf.ChoreFairError as exc:
        return f"not a partition: {exc}"
    return None


def additive_opt(inst: cf.Instance) -> Fraction:
    return sum((min(fn.values[e] for fn in inst.costs) for e in range(inst.m)), Fraction(0))


# ---------------------------------------------------------------------------
# prices: best_fair_allocation on the queries of `verify --suite prices`
# ---------------------------------------------------------------------------


def _search_output(report) -> dict:
    return {
        "fair": report.fair_exists,
        "opt": cf.rational_str(report.opt_cost),
        "best": cf.rational_str(report.best_fair_cost) if report.fair_exists else None,
        "price": cf.rational_str(report.price) if report.fair_exists else None,
        "witness": bundles_json(report.witness) if report.witness else None,
    }


def _search_op(op_id, inst, crit, alpha, extra_check, fixed=False) -> Op:
    def run():
        return cf.best_fair_allocation(inst, crit, alpha)

    def check(out):
        if not out["fair"]:
            return "no fair allocation reported"
        error = partition_error(inst, out["witness"])
        if error:
            return error
        if cf.min_alpha(inst, to_allocation(out["witness"]), crit) > alpha:
            return "witness is not fair"
        best, opt = Fraction(out["best"]), Fraction(out["opt"])
        if social(inst, out["witness"]) != best:
            return "witness cost differs from best_fair_cost"
        if opt > best or (opt > 0 and Fraction(out["price"]) != best / opt):
            return "opt_cost and price disagree with best_fair_cost"
        return extra_check(out)

    return Op(op_id, run, _search_output, check, fixed)


def build_prices(seed: int, tiny: bool, workdir: str) -> list[Op]:
    ops = []
    for label, bundle in family_grid((3,) if tiny else (3, 4, 5), "price"):
        # `verify` issues the first price check twice: once for opt_cost and
        # once in the loop over all checks.
        checks = (bundle.price_checks[0],) + tuple(bundle.price_checks)
        for idx, pc in enumerate(checks):

            def family_check(out, pc=pc, opt=bundle.opt_cost):
                if (Fraction(out["best"]), Fraction(out["price"]), Fraction(out["opt"])) != (pc.fair_cost, pc.price, opt):
                    return f"family expectation {pc.fair_cost}, {pc.price}, opt {opt} not met"
                return None

            op_id = f"{label}:{idx}:{pc.criterion.value}@{pc.alpha}"
            ops.append(_search_op(op_id, bundle.instance, pc.criterion, pc.alpha, family_check, fixed=True))
    for name, crit_name, level, bound in PRICE_SWEEPS:
        crit = cf.Criterion[crit_name]
        for trial in range(5 if tiny else 200):
            rng = rng_for(seed, "prices", name, trial)
            m = 2 + trial % 7  # verify's range, in the same mix at every seed
            inst = cf.Instance(n=2, m=m, costs=(additive(rng, m), additive(rng, m)))

            def sweep_check(out, inst=inst, bound=bound):
                if Fraction(out["opt"]) != additive_opt(inst):
                    return "opt_cost is not the additive optimum"
                price = Fraction(out["price"])
                if price > bound or (bound == 1 and price != 1):
                    return f"price {price} breaks the bound {bound}"
                return None

            ops.append(_search_op(f"sweep:{name}:{trial}", inst, crit, level, sweep_check))
    return ops


# ---------------------------------------------------------------------------
# audit: one-shot eval and mms through cli.main, plus the structure checks
# ---------------------------------------------------------------------------


def _cli_op(op_id: str, argv: list[str], check, fixed=False) -> Op:
    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = chorefair.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"exit {code}: {err.getvalue().strip()}")
        return out.getvalue()

    return Op(op_id, run, json.loads, check, fixed)


def _write_json(workdir: str, name: str, obj) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(obj, handle)
    return path


def _alpha(text: str) -> Fraction | float:
    return cf.INFINITY if text == "inf" else Fraction(text)


def _eval_check(inst: cf.Instance, expected: dict | None):
    def check(out):
        if set(out) != {c.value for c in ALL_CRITERIA}:
            return f"criteria missing from output: {sorted(out)}"
        a = {k: _alpha(v) for k, v in out.items()}
        if min(a.values()) < 1:
            return "an alpha is below 1"
        if not (a["EF"] >= a["EFX_STRONG"] >= a["EFX"] and a["EFX_STRONG"] >= a["EF1"]):
            return "envy alphas are out of order"
        if a["MMS"] > inst.n or a["PMMS"] > 2:
            return "share alphas exceed the subadditive guarantees"
        for crit, value in (expected or {}).items():
            if a[crit.value] != value:
                return f"{crit.value}: family expects {cf.rational_str(value)}"
        return None

    return check


def _mms_check(inst: cf.Instance, agent: int, k: int):
    def check(out):
        blocks = [frozenset(b) for b in out["witness"]]
        if len(blocks) != k:
            return f"witness has {len(blocks)} blocks, expected {k}"
        if sum(len(b) for b in blocks) != inst.m or frozenset().union(*blocks) != inst.all_chores():
            return "witness is not a partition of the chores"
        if max(inst.cost(agent, b) for b in blocks) != Fraction(out["value"]):
            return "largest witness block does not cost the value"
        return None

    return check


# (route, variant, m range, k choices). Additive branch-and-bound has a heavy
# tail in m and k (see NOTES.md), so k is at most 3 from m = 17 up.
MMS_ROUTES = (
    ("additive", "additive", (10, 16), (2, 3, 4)),
    ("additive", "additive", (17, 32), (2, 3)),
    ("capped", "capped", (10, 16), (2, 3, 4)),
    ("capped", "capped", (17, 32), (2, 3)),
    ("coverage", "coverage", (10, 32), (2, 3, 4)),
    ("cardinality", "cardinality", (10, 40), (2, 3, 4, 5)),
    ("enumerate", "mixed", (8, 12), (2, 3, 4)),
)
MMS_OPS_PER_ROUTE = 40
EVAL_VARIANTS = ("additive", "capped", "coverage", "cardinality", "table", "mixed")
VARIANTS_FOR_CHECKS = ("additive", "capped", "coverage", "cardinality", "table", "table")


def build_audit(seed: int, tiny: bool, workdir: str) -> list[Op]:
    ops = []
    crit_arg = ",".join(c.value for c in ALL_CRITERIA)
    seen: set[str] = set()
    for label, bundle in family_grid((2, 3, 4, 5), "connection"):
        inst_json = cf.instance_to_json(bundle.instance)
        alloc_json = cf.allocation_to_json(bundle.reference_allocation)
        # Grid entries whose instance and reference allocation both equal an
        # earlier entry's would repeat that op on a warm context.
        key = canonical([inst_json, alloc_json])
        if key in seen:
            continue
        seen.add(key)
        if tiny and len(seen) > 6:
            break
        ip = _write_json(workdir, f"family{len(seen)}-inst.json", inst_json)
        ap = _write_json(workdir, f"family{len(seen)}-alloc.json", alloc_json)
        argv = ["eval", "--instance", ip, "--allocation", ap, "--criteria", crit_arg]
        ops.append(_cli_op(f"eval:{label}", argv, _eval_check(bundle.instance, bundle.alphas_dict), fixed=True))

    for idx in range(6 if tiny else 240):
        variant = EVAL_VARIANTS[idx % len(EVAL_VARIANTS)]
        rng = rng_for(seed, "audit-eval", idx)
        n = 3 + (idx // len(EVAL_VARIANTS)) % 3
        # Table costs have no pruning in partition enumeration, so they stay
        # at the smallest size.
        m = 8 if variant == "table" else 8 + (idx // (3 * len(EVAL_VARIANTS))) % 7
        inst = instance(rng, n, m, variant, idx // len(EVAL_VARIANTS))
        ip = _write_json(workdir, f"eval{idx}-inst.json", cf.instance_to_json(inst))
        ap = _write_json(workdir, f"eval{idx}-alloc.json", cf.allocation_to_json(random_allocation(rng, n, m)))
        argv = ["eval", "--instance", ip, "--allocation", ap, "--criteria", crit_arg]
        ops.append(_cli_op(f"eval:{variant}:{idx}", argv, _eval_check(inst, None)))

    for r, (route, variant, (m_lo, m_hi), ks) in enumerate(MMS_ROUTES):
        for idx in range(2 if tiny else MMS_OPS_PER_ROUTE):
            rng = rng_for(seed, "audit-mms", r, idx)
            m, k = m_lo + idx * (m_hi - m_lo + 1) // MMS_OPS_PER_ROUTE, ks[idx % len(ks)]
            inst = instance(rng, 3, m, variant, idx)
            agent = idx % 3
            ip = _write_json(workdir, f"mms{r}-{idx}-inst.json", cf.instance_to_json(inst))
            argv = ["mms", "--instance", ip, "--agent", str(agent), "--k", str(k)]
            if route == "enumerate":
                argv.append("--enumerate")
            ops.append(_cli_op(f"mms:{route}:{r}:{idx}", argv, _mms_check(inst, agent, k)))

    for idx in range(2 if tiny else 12):
        variant = VARIANTS_FOR_CHECKS[idx % len(VARIANTS_FOR_CHECKS)]
        rng = rng_for(seed, "audit-check", idx)
        m = 8 + idx % 3
        fn = VARIANTS[variant](rng, m)
        for name in ("check_monotone", "check_submodular"):

            def run(fn=fn, m=m, name=name):
                return getattr(cf, name)(fn, m)

            ops.append(Op(f"{name}:{variant}:{idx}", run, lambda out: out, _expect_true))
    return ops


def _expect_true(out) -> str | None:
    return None if out is True else "a generated submodular cost failed its structure check"


# ---------------------------------------------------------------------------
# allocators: the constructive procedures on random instances
# ---------------------------------------------------------------------------


def _outcome_output(outcome) -> dict:
    return {"bundles": bundles_json(outcome.allocation), "social_cost": cf.rational_str(outcome.social_cost)}


def _allocator_op(op_id, call, inst, postcondition) -> Op:
    def run():
        return call(inst)

    def check(out):
        error = partition_error(inst, out["bundles"])
        if error:
            return error
        if social(inst, out["bundles"]) != Fraction(out["social_cost"]):
            return "reported social cost differs from the allocation's"
        return postcondition(inst, out)

    return Op(op_id, run, _outcome_output, check)


def _alg1_post(inst, out):
    alloc = to_allocation(out["bundles"])
    if cf.min_alpha(inst, alloc, cf.Criterion.EF1) != 1:
        return "alg1 output is not EF1"
    if 4 * Fraction(out["social_cost"]) > 5 * additive_opt(inst):
        return "alg1 price exceeds 5/4"
    return None


def _pmms32_post(inst, out):
    alloc = to_allocation(out["bundles"])
    if cf.min_alpha(inst, alloc, cf.Criterion.PMMS) > Fraction(3, 2):
        return "pmms32 output is not 3/2-PMMS"
    if 6 * Fraction(out["social_cost"]) > 7 * additive_opt(inst):
        return "pmms32 price exceeds 7/6"
    return None


def _best_rr_post(inst, out):
    if Fraction(out["social_cost"]) > 1:
        return "best round-robin order costs more than 1"
    if cf.min_alpha(inst, to_allocation(out["bundles"]), cf.Criterion.EF1) != 1:
        return "round-robin output is not EF1"
    return None


def _optimal_post(inst, out):
    """No move of a single chore to another agent lowers the social cost."""
    bundles = [set(b) for b in out["bundles"]]
    best = Fraction(out["social_cost"])
    for src, dst in itertools.permutations(range(inst.n), 2):
        for e in sorted(bundles[src]):
            moved = [set(b) for b in bundles]
            moved[src].discard(e)
            moved[dst].add(e)
            if social(inst, moved) < best:
                return f"moving chore {e} from agent {src} to {dst} is cheaper"
    return None


def build_allocators(seed: int, tiny: bool, workdir: str) -> list[Op]:
    ops = []
    for kind, call, post in (
        ("alg1", lambda inst: cf.alg1_two_agent_ef1(inst), _alg1_post),
        ("pmms32", lambda inst: cf.pmms32_two_agent(inst), _pmms32_post),
    ):
        for idx in range(4 if tiny else 1500):
            rng = rng_for(seed, "allocators", kind, idx)
            inst = instance(rng, 2, 2 + idx % 9, "additive")
            ops.append(_allocator_op(f"{kind}:{idx}", call, inst, post))
    for idx in range(4 if tiny else 500):
        rng = rng_for(seed, "allocators", "best_rr_order", idx)
        inst = instance(rng, 3, 9, "additive")
        ops.append(_allocator_op(f"best_rr_order:{idx}", lambda i: cf.best_round_robin_order(i), inst, _best_rr_post))
    for idx in range(2 if tiny else 60):
        rng = rng_for(seed, "allocators", "optimal", idx)
        inst = instance(rng, 3, 6 + idx % 3, "mixed", idx)
        ops.append(_allocator_op(f"optimal:{idx}", lambda i: cf.optimal_allocation(i), inst, _optimal_post))
    return ops


WORKLOADS = {
    "prices": build_prices,
    "audit": build_audit,
    "allocators": build_allocators,
}

"""Exhaustive search oracles and proposition-verification suites.

Everything here is exact over all n^m allocations of an instance: their
enumeration, the cheapest allocation meeting a fairness level (a pruned
depth-first search), per-instance prices of fairness, and sweeps that
re-derive the catalog families' exact expectations.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator, Sequence

from .criteria import Criterion, context_for, fairness_report, implied_guarantee, parse_alpha
from .errors import ArgumentError, NoFairAllocationError, NotInTableError, SizeGuardError
from .families import FAMILY_IDS, FamilyBundle, family_kind, family_params, make_family
from .mms import mms_value
from .model import (
    Additive,
    Allocation,
    CappedAdditive,
    CappedCardinality,
    CostFunction,
    ExtendedRational,
    Instance,
    RowCoverage,
    instance_digest,
    price_ratio,
    rational_str,
)

__all__ = [
    "SearchReport",
    "PropositionReport",
    "enumerate_allocations",
    "best_fair_allocation",
    "price_of_fairness",
    "random_instance",
    "verify_connections",
    "verify_prices",
    "verify_lemmas",
    "reports_to_csv_rows",
]

ENUMERATION_GUARD = 2_000_000
#: Largest ``verify --n-max``, a time budget: the whole connections grid at
#: n = 2..12 passes in 0.27 s on 2 CPUs, and the test suite holds it under 1 s.
VERIFY_MAX_N = 12
#: Largest ``verify --count``, a time budget: at 1,000 the lemmas and prices
#: sweeps at seed 7 each finish in about a second on 2 CPUs.
VERIFY_MAX_COUNT = 1000
#: Largest ``verify --n-max`` for the prices suite: POF_2MMS_LB at 6 agents has
#: 9 chores, and its 6^9 allocations exceed ``ENUMERATION_GUARD``.
VERIFY_PRICES_MAX_N = 5


@dataclass(frozen=True)
class SearchReport:
    instance: Instance = field(repr=False)
    criterion: Criterion
    alpha: ExtendedRational
    best_fair_cost: Fraction | None
    opt_cost: Fraction
    witness: Allocation | None

    @property
    def fair_exists(self) -> bool:
        return self.best_fair_cost is not None

    @property
    def price(self) -> ExtendedRational | None:
        """The cheapest fair cost over the optimal cost, or None with no fair allocation."""
        return None if self.best_fair_cost is None else price_ratio(self.best_fair_cost, self.opt_cost)

    @property
    def instance_digest(self) -> str:
        """The instance's 12-hex digest, hashed only when it is read."""
        return instance_digest(self.instance)


@dataclass(frozen=True)
class PropositionReport:
    proposition_id: str
    n: int | None
    alpha: Fraction | None
    epsilon: Fraction | None
    expected: str
    observed: str
    status: str  # "pass" | "fail"

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def _report(prop_id, expected, observed, ok, n=None, alpha=None, epsilon=None) -> PropositionReport:
    return PropositionReport(
        proposition_id=prop_id,
        n=n,
        alpha=alpha,
        epsilon=epsilon,
        expected=expected,
        observed=observed,
        status="pass" if ok else "fail",
    )


def _equal(prop_id, expected, observed, **where) -> PropositionReport:
    """A row that passes when ``observed == expected``; an ``observed`` of None prints "none" and fails."""
    shown = "none" if observed is None else rational_str(observed)
    return _report(prop_id, rational_str(expected), shown, observed == expected, **where)


def _within(prop_id, bound, observed, **where) -> PropositionReport:
    """A row that passes when ``observed <= bound``."""
    return _report(prop_id, f"<= {rational_str(bound)}", rational_str(observed), observed <= bound, **where)


def _check_allocation_count(n: int, m: int) -> None:
    """Raise ``SizeGuardError`` when the n^m allocations exceed ``ENUMERATION_GUARD``."""
    count = n**m
    if count > ENUMERATION_GUARD:
        raise SizeGuardError(f"{count} allocations exceed the enumeration guard {ENUMERATION_GUARD}")


def enumerate_allocations(m: int, n: int) -> Iterator[Allocation]:
    """All n^m assignments, in lexicographic order of the assignment vector."""
    _check_allocation_count(n, m)
    for masks in _scan_masks(n, m):
        yield Allocation._of_masks(masks)


def _scan_masks(n: int, m: int) -> Iterator[tuple[int, ...]]:
    """Bundle masks of all n^m allocations, unpruned, in lexicographic order."""
    for assignment in itertools.product(range(n), repeat=m):
        masks = [0] * n
        for chore, agent in enumerate(assignment):
            masks[agent] |= 1 << chore
        yield tuple(masks)


def _lcm_scale(inst: Instance) -> int:
    """The lcm of the agents' ``denominator()``s: scaled by it, every cost is an integer."""
    return math.lcm(*(fn.denominator() for fn in inst.costs))


def unit_costs(inst: Instance) -> tuple[int, list[list[int]]]:
    """(scale, unit) of an additive instance: scale is the lcm of the agents'
    ``denominator()``s and ``unit[i][d]`` is scale times agent i's cost of
    chore d alone.

    A bundle's cost is the sum of its chores' entries over scale, so callers
    compare and add integers only. Each row is ``Additive.int_singles``, the
    cost's stored integers; callers check ``is_additive()`` first.
    """
    scale = _lcm_scale(inst)
    unit = []
    for fn in inst.costs:
        factor = scale // fn.denominator()
        unit.append([w * factor for w in fn.int_singles()])
    return scale, unit


def cheapest_agents(unit: list[list[int]]) -> list[int]:
    """Each chore's cheapest agent in a ``unit_costs`` table, ties to the lowest index."""
    return [min(range(len(column)), key=column.__getitem__) for column in zip(*unit)]


def cheapest_accepted(
    inst: Instance,
    accept: Callable[[list[int]], bool],
    cap: Callable[[int], int | None] | None = None,
) -> tuple[Fraction, Fraction | None, tuple[int, ...] | None]:
    """Exact depth-first search for the cheapest allocation ``accept`` admits.

    Returns (optimal social cost, cheapest accepted cost or None, its bundle
    masks or None). Chore d is assigned at depth d and agents are tried in
    index order, so leaves come in lexicographic order of the assignment
    vector, and of several cheapest accepted allocations the first in that
    order is returned. ``accept`` is asked only about leaves strictly
    cheaper than the incumbent, and first, out of that order, about the seed
    below. It must not keep the mask list it is given.

    Costs are each agent's ``int_eval`` scaled to the ``unit_costs`` scale,
    so the search compares integers only. When every cost is monotone, a
    subtree is pruned once its lower bound reaches the accepted incumbent:
    the partial cost plus the least of floor[d] and each capped agent's room
    (its scaled ``sum_groups`` cap less its cost). Agent a's row ω_a puts
    each ``sum_groups`` group's weight on the group's first chore and 0 on
    its others (on an additive instance it is the ``unit`` row, read with no
    ``sum_groups`` call), and floor[d] sums min_a ω_a(e) over chores e >= d;
    a cost with no groups (a table) leaves every floor at 0. It is a bound:
    with chores 0..d-1 placed, a group whose first chore is d or later is
    wholly unplaced, so an agent taking any of its chores pays its weight
    once; an agent with bundle S taking chores T rises by at least
    min(cap - c(S), sum of ω(e) over T), the cap infinite when there is
    none; summed over the agents, min(least room, floor[d]). Pruned leaves
    cost at least the incumbent, which is at least the optimum seen so far,
    so neither output changes. Non-monotone costs get the full scan. More
    than ``ENUMERATION_GUARD`` allocations raise ``SizeGuardError`` before
    any work.

    ``cap(i)``, when given, is the largest ``int_eval`` of agent i's bundle
    that ``accept`` can admit, or None for no cap. On an additive instance
    the search reads the cap of each agent with a positive-cost chore once,
    before the first leaf; an agent whose chores all cost nothing is never
    asked. It cuts every subtree in which an agent's cost passes its cap:
    costs only grow below a node, so no cut leaf is accepted and the
    cheapest accepted allocation is the same. The optimum is then the sum
    of per-chore minima, not a leaf's cost, as the cut leaves may hold it.

    A search with monotone costs first asks about its seed: chores in index
    order, each on the agent whose scaled cost rises least, ties to the
    lowest index. On an additive instance a rise is the chore's ``unit``
    entry, elsewhere an ``int_eval`` difference read through the memo. The
    seed is asked once, before the scan, unless a cap cuts it, and skipped
    at its leaf if refused. Say ``accept`` admits it at cost G. If G is the
    lower bound on every leaf (the additive optimum, else 0), the seed is
    returned: no leaf is cheaper, and at its first chore off the seed a
    leaf at G puts that chore on an agent whose rise is least too (its
    cheapest, or by monotonicity one still at 0), so of higher index than
    the seed's, and comes later in lexicographic order. That rests on each
    chore's least rise, so off an additive instance the bound here stays 0,
    not floor[0]: a room can be less than floor[0], and a group's weight is
    no chore's least rise. Otherwise the scan starts from the incumbent
    bound G + 1 with no witness and takes the seed at its leaf without
    asking again. Nothing returned changes.
    The optimum: a pruned leaf costs at least the bound at its cut, G + 1
    or a reached leaf's cost, and the scan reaches the seed or, if that is
    cut, a leaf no dearer, so the cheapest reached leaf, at most G < G + 1,
    is the optimum. The cheapest accepted cost and masks: the first
    cheapest accepted leaf costs at most G and every accepted leaf before
    it costs more, so every bound before it exceeds its cost; it is
    reached and kept, as in the unpruned scan. The leaves asked about:
    every bound is at most the cost of each accepted leaf before it, so a
    leaf asked about is cheaper than all of them, and the unpruned scan
    asks about it too; the seed alone is asked out of order.
    """
    n, m = inst.n, inst.m
    _check_allocation_count(n, m)
    prune = all(fn.monotone for fn in inst.costs)
    additive = inst.is_additive()
    # Single-chore rows are read on additive instances only.
    scale, unit = unit_costs(inst) if additive else (_lcm_scale(inst), None)
    factor = [scale // fn.denominator() for fn in inst.costs]
    memo: list[dict[int, int]] = [{} for _ in range(n)]  # scaled ``int_eval`` by mask, off additive instances
    if additive:
        # limit[a]: an additive agent's cap; with none, its cost of every chore, which no additive bundle exceeds.
        limit = [sum(row) for row in unit]
        if cap is not None:
            for a in range(n):
                if limit[a] and (c := cap(a)) is not None:
                    limit[a] = c * factor[a]
    rows, rooms = unit, []  # rows[a][d]: agent a's weight on chore d; rooms: (b, b's scaled cap) per capped b
    if prune and not additive:
        rows = []
        for a, fn in enumerate(inst.costs):
            if (grouped := fn.sum_groups(range(m))) is None:  # no groups: the floor stays 0, so no room is read
                rows = None
                break
            row = [0] * m
            for members, w in grouped[0]:
                row[members[0]] = w * factor[a]  # each group's weight on its first chore
            rows.append(row)
            if grouped[1] is not None:
                rooms.append((a, grouped[1] * factor[a]))
    # floor[d]: a lower bound on what chores d.. add to any completion, unless a capped agent's room is less.
    floor = [0] * (m + 1)
    if rows:
        columns = list(zip(*rows))  # columns[d]: each agent's weight on chore d
        for d in reversed(range(m)):
            floor[d] = floor[d + 1] + min(columns[d])
    seed: list[int] | None = None
    seed_accepted = False  # read only at a leaf that is the seed
    best: int | None = None
    if prune:
        seed, held = [0] * n, [0] * n
        for d in range(m):
            bit = 1 << d
            if additive:
                rises = columns[d]
            else:
                rises = []
                for a in range(n):
                    mask = seed[a] | bit  # new to memo[a]: its highest chore is d
                    new = memo[a][mask] = inst.costs[a].int_eval(mask) * factor[a]
                    rises.append(new - held[a])
            a = rises.index(min(rises))
            seed[a] |= bit
            held[a] += rises[a]
        if additive and any(held[a] > limit[a] for a in range(n)):
            seed = None  # a cap cuts it from the scan too
        elif accept(seed):
            if sum(held) == (floor[0] if additive else 0):
                return Fraction(sum(held), scale), Fraction(sum(held), scale), tuple(seed)
            seed_accepted = True
            best = sum(held) + 1  # no witness yet: the scan reaches the seed or a leaf as cheap
    # An additive optimum takes each chore at its cheapest; no leaf is below it.
    opt: int | None = floor[0] if additive else None
    best_masks: tuple[int, ...] | None = None
    masks = [0] * n
    costs = [0] * n
    owner = [-1] * m  # agent holding chore d; -1 before its first agent
    saved = [0] * m  # that agent's cost before it took chore d
    total = 0
    d = 0
    while d >= 0:
        if d == m:
            if opt is None or total < opt:
                opt = total
            # The seed was asked about before the scan.
            if (best is None or total < best) and (accept(masks) if masks != seed else seed_accepted):
                best = total
                best_masks = tuple(masks)
            d -= 1
            continue
        a = owner[d]
        bit = 1 << d
        if a >= 0:  # undo the previous agent's hold on chore d
            masks[a] ^= bit
            total += saved[d] - costs[a]
            costs[a] = saved[d]
        a += 1
        if a == n:
            owner[d] = -1
            d -= 1
            continue
        owner[d] = a
        saved[d] = old = costs[a]
        mask = masks[a] = masks[a] | bit
        if additive:
            new = old + unit[a][d]
            if new > limit[a]:
                continue  # costs[a] and total still hold the undo's values
        else:
            new = memo[a].get(mask)
            if new is None:
                new = memo[a][mask] = inst.costs[a].int_eval(mask) * factor[a]
        costs[a] = new
        total += new - old
        if prune and best is not None and total + floor[d + 1] >= best:
            if total >= best or all(total + c - costs[b] >= best for b, c in rooms):
                continue
        d += 1
    assert opt is not None
    assert best_masks is not None or not seed_accepted, "an accepted seed ended with no witness"
    return (
        Fraction(opt, scale),
        None if best is None else Fraction(best, scale),
        best_masks,
    )


def best_fair_allocation(inst: Instance, criterion: Criterion, alpha) -> SearchReport:
    """Cheapest allocation whose minimal alpha for ``criterion`` is <= alpha.

    ``alpha`` is an exact rational >= 1 or ``INFINITY``. The search is exact
    over all n^m allocations and prunes subtrees that cannot beat the
    cheapest fair allocation found so far (``cheapest_accepted``), and cuts
    those in which an agent's cost passes its cap (``InstanceContext.share_cap``).
    Among the cheapest fair allocations the witness is the first in
    lexicographic order of the assignment vector. On monotone instances the
    seed (``cheapest_accepted``) is checked first: a fair one is the witness
    when no allocation can cost less, and else bounds the search from its
    first leaf.
    """
    alpha = parse_alpha(alpha)
    ctx = context_for(inst)
    opt_cost, best_fair, best_masks = cheapest_accepted(
        inst, lambda masks: ctx.min_alpha_masks(masks, criterion)[0] <= alpha, ctx.share_cap(criterion, alpha)
    )
    witness = None if best_masks is None else Allocation._of_masks(best_masks)
    return SearchReport(
        instance=inst, criterion=criterion, alpha=alpha, best_fair_cost=best_fair, opt_cost=opt_cost, witness=witness
    )


def price_of_fairness(inst: Instance, criterion: Criterion, alpha) -> ExtendedRational:
    report = best_fair_allocation(inst, criterion, alpha)
    if not report.fair_exists:
        raise NoFairAllocationError(
            f"no allocation satisfies {alpha}-{criterion.value} for this instance"
        )
    assert report.price is not None
    return report.price


# ---------------------------------------------------------------------------
# Random instances
# ---------------------------------------------------------------------------

_MAX_RAW_VALUE = 100


def _random_raw(rng: random.Random, m: int) -> list[int]:
    """``m`` draws from [0, _MAX_RAW_VALUE]; if all are 0, a random one becomes 1."""
    raw = [rng.randint(0, _MAX_RAW_VALUE) for _ in range(m)]
    if sum(raw) == 0:
        raw[rng.randrange(m)] = 1
    return raw


def _random_additive(rng: random.Random, m: int) -> Additive:
    raw = _random_raw(rng, m)
    return Additive._from_ints(raw, sum(raw))


def _random_cost(rng: random.Random, m: int) -> CostFunction:
    kind = rng.choice(("additive", "capped_additive", "row_coverage", "capped_cardinality"))
    if kind == "additive":
        return _random_additive(rng, m)
    if kind == "capped_additive":
        raw = _random_raw(rng, m)
        cap = rng.randint(max(1, sum(raw) // 2), sum(raw))
        # Scaled by the cap so the full set costs exactly 1: the values and then the cap, over the cap.
        return CappedAdditive._from_ints((*raw, cap), cap)
    if kind == "row_coverage":
        groups: dict[int, list[int]] = {}
        count = rng.randint(1, m)
        for chore in range(m):
            groups.setdefault(rng.randrange(count), []).append(chore)
        rows = tuple(tuple(r) for r in groups.values())
        raw = [rng.randint(1, _MAX_RAW_VALUE) for _ in rows]
        return RowCoverage._from_ints(raw, sum(raw), rows)
    return CappedCardinality(cap=rng.randint(1, m))


def random_instance(n: int, m: int, setting: str = "additive", seed: int = 0) -> Instance:
    """Seeded random instance; additive instances are normalized exactly.

    The submodular setting mixes the built-in variant families per agent;
    capped-cardinality costs cannot be rescaled, so those agents keep their
    integral scale.
    """
    if n < 1 or m < 1:
        raise ArgumentError(f"need n >= 1 and m >= 1, got n={n}, m={m}")
    if setting not in ("additive", "submodular"):
        raise ArgumentError(f"setting must be 'additive' or 'submodular', got {setting!r}")
    rng = random.Random((seed, n, m, setting).__repr__())
    if setting == "additive":
        costs = tuple(_random_additive(rng, m) for _ in range(n))
    else:
        costs = tuple(_random_cost(rng, m) for _ in range(n))
    return Instance(n=n, m=m, costs=costs)


def random_allocation(n: int, m: int, seed: int = 0) -> Allocation:
    rng = random.Random((seed, n, m, "allocation").__repr__())
    return Allocation.from_assignment([rng.randrange(n) for _ in range(m)], n)


# ---------------------------------------------------------------------------
# Verification suites
# ---------------------------------------------------------------------------

CONNECTION_GRID_ALPHAS = (Fraction(1), Fraction(5, 4), Fraction(3, 2), Fraction(2))
CONNECTION_GRID_P = (3, 10, 50)


#: The epsilon of the epsilon families when ``verify`` is given none, from Python or the CLI.
_REFERENCE_EPSILON = Fraction(1, 100)


def _family_grid(
    family_id: str,
    n_values: Sequence[int],
    alphas: Sequence[Fraction],
    epsilon: Fraction,
    p_values: Sequence[int],
) -> Iterator[FamilyBundle]:
    """The family's bundle at every valid combination of the grid's values."""
    names = family_params(family_id)
    pools = {"n": n_values, "alpha": alphas, "epsilon": (epsilon,), "p": p_values, "m": (6,)}
    for combo in itertools.product(*(pools[name] for name in names)):
        try:
            yield make_family(family_id, **dict(zip(names, combo)))
        except ArgumentError:
            continue


def _grid_bundles(kind, n_values, epsilon) -> list[FamilyBundle]:
    """Every valid bundle of the families of ``kind`` on the connection grid, each built once.

    An epsilon that leaves one of ``kind`` with no valid entry, where the
    reference epsilon 1/100 leaves it some, would drop its rows silently, so
    it raises ``ArgumentError`` naming those families.
    """
    alphas, p_values = CONNECTION_GRID_ALPHAS, CONNECTION_GRID_P
    bundles, dropped = [], []
    for family_id in FAMILY_IDS:
        if family_kind(family_id) != kind:
            continue
        grid = list(_family_grid(family_id, n_values, alphas, epsilon, p_values))
        # Only an epsilon other than the reference can empty a grid the reference fills.
        if not grid and next(_family_grid(family_id, n_values, alphas, _REFERENCE_EPSILON, p_values), None):
            dropped.append(family_id)
        bundles.extend(grid)
    if dropped:
        raise ArgumentError(f"epsilon {epsilon} leaves no valid parameters for {', '.join(dropped)}")
    return bundles


def _params_str(params: dict) -> str:
    if not params:
        return ""
    return "[" + ",".join(f"{k}={v}" for k, v in params.items()) + "]"


def _check_family_connections(bundle: FamilyBundle) -> list[PropositionReport]:
    params = bundle.params_dict
    n = bundle.instance.n
    where = dict(n=n, alpha=params.get("alpha"), epsilon=params.get("epsilon"))
    label = bundle.family_id + _params_str(params)
    src_crit, src_alpha = bundle.source  # connection families always have one
    report = fairness_report(bundle.instance, bundle.reference_allocation, bundle.alphas_dict)
    rows = []
    for crit, expected in bundle.expected_alphas:
        measured = report.alphas[crit]
        rows.append(_equal(f"{label}:min_alpha[{crit.value}]", expected, measured, **where))
        if crit is src_crit:
            continue
        try:
            guarantee = implied_guarantee(src_crit, src_alpha, crit, n, bundle.setting)
        except NotInTableError:
            continue
        if guarantee.value is None:
            continue
        if guarantee.kind == "bound":
            row_id = f"guarantee[{src_crit.value}->{crit.value}]"
        else:
            row_id = f"trivial_bound[{crit.value}]"
        rows.append(_within(f"{label}:{row_id}", guarantee.value, measured, **where))
    return rows


def verify_connections(
    n_values: Sequence[int] = (2, 3, 4, 5), epsilon: Fraction = _REFERENCE_EPSILON
) -> list[PropositionReport]:
    """Re-measure every connection family's exact alphas on its grid."""
    bundles = _grid_bundles("connection", n_values, epsilon)
    return _canonical([row for bundle in bundles for row in _check_family_connections(bundle)])


def _check_family_price(bundle: FamilyBundle) -> list[PropositionReport]:
    """Each check's search against its expectations, and one report on the reference allocation."""
    params = bundle.params_dict
    n = bundle.instance.n
    epsilon = params.get("epsilon")
    label = bundle.family_id + _params_str(params)
    checks = bundle.price_checks
    reports = [best_fair_allocation(bundle.instance, c.criterion, c.alpha) for c in checks]
    reference = fairness_report(bundle.instance, bundle.reference_allocation, [c.criterion for c in checks])
    rows = [_equal(f"{label}:opt_cost", bundle.opt_cost, reports[0].opt_cost, n=n, epsilon=epsilon)]
    for check, report in zip(checks, reports):
        tag = f"{check.criterion.value}@{check.alpha}"
        where = dict(n=n, alpha=check.alpha, epsilon=epsilon)
        rows.append(_equal(f"{label}:fair_cost[{tag}]", check.fair_cost, report.best_fair_cost, **where))
        rows.append(_equal(f"{label}:price[{tag}]", check.price, report.price, **where))
        ref_alpha = reference.alphas[check.criterion]
        rows.append(_within(f"{label}:reference_is_fair[{tag}]", check.alpha, ref_alpha, **where))
    return rows


#: Largest m of a random two-agent instance in the price-bound sweeps.
PRICE_SWEEP_MAX_CHORES = 8

_PRICE_SWEEP_BOUNDS = (
    ("price-EF1<=5/4", Criterion.EF1, Fraction(1), Fraction(5, 4)),
    ("price-3/2-PMMS<=7/6", Criterion.PMMS, Fraction(3, 2), Fraction(7, 6)),
    ("price-PMMS<=2", Criterion.PMMS, Fraction(1), Fraction(2)),
    ("price-MMS<=2", Criterion.MMS, Fraction(1), Fraction(2)),
    ("price-EFX<=2", Criterion.EFX, Fraction(1), Fraction(2)),
    ("price-2-MMS=1", Criterion.MMS, Fraction(2), Fraction(1)),
)


def verify_prices(
    epsilon: Fraction = _REFERENCE_EPSILON,
    n_values: Sequence[int] = (2, 3, 4, 5),
    sweep_count: int = 200,
    seed: int = 0,
) -> list[PropositionReport]:
    """Exact per-family price checks plus two-agent price-bound sweeps."""
    bundles = _grid_bundles("price", n_values, epsilon)
    rows = [row for bundle in bundles for row in _check_family_price(bundle)]

    for name, crit, level, bound in _PRICE_SWEEP_BOUNDS:
        worst: ExtendedRational = Fraction(1)  # no price is below 1
        for trial in range(sweep_count):
            rng = random.Random((seed, name, trial).__repr__())
            inst = random_instance(2, rng.randint(2, PRICE_SWEEP_MAX_CHORES), "additive", seed=seed * 1_000_003 + trial)
            worst = max(worst, price_of_fairness(inst, crit, level))
        rows.append(_within(f"sweep:{name}(count={sweep_count})", bound, worst, n=2, alpha=level, epsilon=epsilon))
    return _canonical(rows)


def _lemma_instances(count: int, seed: int) -> Iterator[tuple[int, Instance, Allocation]]:
    rng = random.Random(("lemma-sweep", seed).__repr__())
    for trial in range(count):
        n = rng.randint(2, 4)
        m = rng.randint(2, 8)
        setting = "additive" if trial % 2 == 0 else "submodular"
        inst = random_instance(n, m, setting, seed=seed * 7_777_777 + trial)
        alloc = random_allocation(n, m, seed=seed * 3_333_331 + trial)
        yield trial, inst, alloc


def verify_lemmas(count: int = 200, seed: int = 0) -> list[PropositionReport]:
    """Property sweeps for the structural share lemmas.

    Checks, per random instance and random allocation: the share lower
    bounds (a k-way share is at least c(S)/k and at least every single-chore
    cost), the universal 2-PMMS and n-MMS guarantees, monotonicity of the
    half-split share under set inclusion, the 3/2 gap forced by a
    multi-chore max block, and the union bound for half-split shares of
    disjoint sets (additive costs).
    """
    failures: dict[str, str] = {}
    counts: dict[str, int] = {}

    def note(name: str, ok: bool, detail: str) -> None:
        counts[name] = counts.get(name, 0) + 1
        if not ok and name not in failures:
            failures[name] = detail

    for trial, inst, alloc in _lemma_instances(count, seed):
        rng = random.Random(("lemma-subsets", seed, trial).__repr__())
        agent = rng.randrange(inst.n)
        chores = list(range(inst.m))
        subset = frozenset(e for e in chores if rng.random() < 0.6)
        superset = subset | frozenset(e for e in chores if rng.random() < 0.5)

        # Share lower bounds, on the full set and a random subset. ``shares``
        # keeps the subset's k-way results; the checks below read k = 2.
        for s in (frozenset(chores), subset):
            total = inst.cost(agent, s)
            singles = [inst.cost(agent, [e]) for e in s]
            shares = [mms_value(inst, agent, k, s) for k in range(1, inst.n + 1)]
            for k, share in enumerate((r.value for r in shares), start=1):
                note(
                    "share-lower-bounds",
                    share * k >= total and all(c <= share for c in singles),
                    f"trial {trial}: MMS({k}, |S|={len(s)})={share} vs c(S)={total}",
                )

        # Universal guarantees for an arbitrary allocation.
        alphas = fairness_report(inst, alloc, (Criterion.PMMS, Criterion.MMS)).alphas
        note("any-allocation-2-PMMS", alphas[Criterion.PMMS] <= 2, f"trial {trial}")
        note("any-allocation-n-MMS", alphas[Criterion.MMS] <= inst.n, f"trial {trial}")

        # Half-split share is monotone under inclusion.
        result = shares[1]
        low = result.value
        high = mms_value(inst, agent, 2, superset).value
        note("half-split-monotone", low <= high, f"trial {trial}: {low} > {high}")

        if inst.is_additive():
            # A multi-chore max block forces a 3/2 gap between c(S) and the share.
            total = inst.cost(agent, subset)
            if result.value > 0:
                for block in result.witness:
                    if inst.cost(agent, block) == result.value and len(block) >= 2:
                        note(
                            "multi-chore-max-block-gap",
                            total * 2 >= 3 * result.value,
                            f"trial {trial}: c(S)={total}, share={result.value}",
                        )
                        break

            # Union bound for disjoint sets.
            part_a = frozenset(e for e in chores if rng.random() < 0.5)
            part_b = frozenset(e for e in chores if e not in part_a and rng.random() < 0.7)
            whole = mms_value(inst, agent, 2, part_a | part_b).value
            alone = mms_value(inst, agent, 2, part_a).value
            if whole > alone:
                bound = inst.cost(agent, part_a) / 2 + inst.cost(agent, part_b)
                note(
                    "disjoint-union-share-bound",
                    whole <= bound,
                    f"trial {trial}: {whole} > {bound}",
                )

    rows = []
    for name in sorted(counts):
        detail = failures.get(name)
        rows.append(
            _report(
                f"lemma:{name}(count={counts[name]},seed={seed})",
                "holds",
                "holds" if detail is None else f"violated: {detail}",
                detail is None,
            )
        )
    return _canonical(rows)


def _canonical(rows: list[PropositionReport]) -> list[PropositionReport]:
    return sorted(
        rows,
        key=lambda r: (
            r.proposition_id,
            r.n if r.n is not None else -1,
            r.alpha if r.alpha is not None else Fraction(-1),
            r.epsilon if r.epsilon is not None else Fraction(-1),
        ),
    )


CSV_COLUMNS = ("proposition_id", "n", "alpha", "epsilon", "expected", "observed", "status")


def _cell(value) -> str:
    if value is None:
        return ""
    return value if isinstance(value, str) else rational_str(value)


def reports_to_csv_rows(rows: Sequence[PropositionReport]) -> list[dict[str, str]]:
    """One dict per row, keyed by ``CSV_COLUMNS``: None is empty, text stays, numbers go through ``rational_str``."""
    return [{column: _cell(getattr(row, column)) for column in CSV_COLUMNS} for row in rows]

"""Search harness: enumeration, fair optima, prices, and sweeps."""

from __future__ import annotations

import dataclasses
import itertools
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from chorefair import (
    INFINITY,
    Additive,
    Allocation,
    CappedAdditive,
    CappedCardinality,
    Criterion,
    Instance,
    RowCoverage,
    TableCost,
    best_fair_allocation,
    check_monotone,
    enumerate_allocations,
    make_family,
    min_alpha,
    optimal_allocation,
    price_of_fairness,
    random_instance,
)
from chorefair import mms
from chorefair.criteria import context_for
from chorefair.errors import ArgumentError, NoFairAllocationError, SizeGuardError
from chorefair.families import FamilyBundle, PriceCheck
from chorefair.mms import mms_value
from chorefair.model import set_of
from chorefair.search import (
    _REFERENCE_EPSILON,
    ENUMERATION_GUARD,
    VERIFY_MAX_N,
    VERIFY_PRICES_MAX_N,
    _grid_bundles,
    cheapest_accepted,
    random_allocation,
    reports_to_csv_rows,
    unit_costs,
    verify_connections,
    verify_lemmas,
)
from test_oracle import _random_monotone_table


def test_enumeration_counts():
    assert len(list(enumerate_allocations(2, 2))) == 4
    assert len(list(enumerate_allocations(7, 3))) == 3**7
    assert len(list(enumerate_allocations(0, 4))) == 1


def test_enumeration_guard():
    with pytest.raises(SizeGuardError):
        next(enumerate_allocations(30, 5))


def test_enumeration_is_exhaustive_and_distinct():
    seen = {alloc.bundles for alloc in enumerate_allocations(3, 2)}
    assert len(seen) == 8


def test_best_fair_ef1_price_family():
    bundle = make_family("POF_EF1_N2", epsilon=Fraction(1, 100))
    report = best_fair_allocation(bundle.instance, Criterion.EF1, 1)
    assert report.fair_exists
    assert report.best_fair_cost == Fraction(5, 6) + Fraction(1, 100)
    assert report.opt_cost == Fraction(2, 3) + Fraction(2, 100)
    assert min_alpha(bundle.instance, report.witness, Criterion.EF1) == 1


def test_two_pmms_filter_is_vacuous():
    for trial in range(20):
        inst = random_instance(2, 5, "additive", seed=trial)
        report = best_fair_allocation(inst, Criterion.PMMS, 2)
        assert report.fair_exists
        assert report.best_fair_cost == report.opt_cost


def test_huge_alpha_returns_opt(ref_instance):
    report = best_fair_allocation(ref_instance, Criterion.EF, INFINITY)
    assert report.best_fair_cost == report.opt_cost == 9


def test_best_fair_cost_monotone_in_alpha():
    for trial in range(15):
        inst = random_instance(2, 5, "additive", seed=trial + 300)
        previous = None
        for alpha in (Fraction(1), Fraction(5, 4), Fraction(3, 2), Fraction(2), Fraction(4)):
            report = best_fair_allocation(inst, Criterion.EF1, alpha)
            if report.fair_exists and previous is not None:
                assert report.best_fair_cost <= previous
            previous = report.best_fair_cost if report.fair_exists else previous


def test_pmms_allocations_are_efx_allocations():
    from chorefair.criteria import context_for
    from chorefair.search import _scan_masks

    for trial in range(25):
        inst = random_instance(3, 6, "additive", seed=trial + 40)
        ctx = context_for(inst)
        for masks in _scan_masks(inst.n, inst.m):
            pmms, _, _ = ctx.min_alpha_masks(masks, Criterion.PMMS)
            if pmms == 1:
                efx, _, _ = ctx.min_alpha_masks(masks, Criterion.EFX)
                assert efx == 1


def test_no_fair_allocation_is_signalled():
    # A single chore for two agents who both hate it admits no envy-free split.
    inst = Instance(n=2, m=1, costs=(Additive((1,)), Additive((1,))))
    with pytest.raises(NoFairAllocationError):
        price_of_fairness(inst, Criterion.EF, 1)


def test_price_of_fairness_reference():
    bundle = make_family("POF_PMMS_N2", epsilon=Fraction(1, 100))
    for crit in (Criterion.PMMS, Criterion.MMS, Criterion.EFX):
        assert price_of_fairness(bundle.instance, crit, 1) == Fraction(1) / (Fraction(1, 2) + Fraction(2, 100))


def test_zero_cost_optimum_price_convention():
    inst = Instance(n=2, m=2, costs=(Additive((0, 1)), Additive((1, 0))))
    # Chore-wise zero assignment exists and is fair, so the price is 1.
    assert price_of_fairness(inst, Criterion.EF1, 1) == 1


def test_random_instance_determinism_and_normalization():
    a = random_instance(2, 5, "additive", seed=7)
    b = random_instance(2, 5, "additive", seed=7)
    assert a == b
    assert a.normalized
    assert random_instance(2, 5, "additive", seed=8) != a


def test_random_submodular_instances_are_well_formed():
    from chorefair import check_monotone, check_submodular

    for seed in range(25):
        inst = random_instance(3, 5, "submodular", seed=seed)
        for fn in inst.costs:
            assert check_monotone(fn, 5)
            assert check_submodular(fn, 5)


def test_random_allocation_determinism():
    assert random_allocation(3, 6, seed=1) == random_allocation(3, 6, seed=1)


def test_random_instances_roundtrip_through_json():
    from chorefair import instance_from_json, instance_to_json

    for seed in range(20):
        setting = "additive" if seed % 2 else "submodular"
        inst = random_instance(3, 6, setting, seed=seed)
        assert instance_from_json(instance_to_json(inst)) == inst


def test_lemma_sweep_small():
    rows = verify_lemmas(count=60, seed=3)
    assert rows and all(row.passed for row in rows)
    csv_rows = reports_to_csv_rows(rows)
    assert set(csv_rows[0]) == {
        "proposition_id",
        "n",
        "alpha",
        "epsilon",
        "expected",
        "observed",
        "status",
    }


# ---------------------------------------------------------------------------
# The pruned search kernel against a plain enumeration
# ---------------------------------------------------------------------------


def _small_rational(rng: random.Random) -> Fraction:
    # Few distinct values, so that many allocations tie on cost.
    return Fraction(rng.randint(0, 3), rng.randint(1, 3))


def _variant_cost(rng: random.Random, kind: str, m: int):
    if kind == "additive":
        return Additive(tuple(_small_rational(rng) for _ in range(m)))
    if kind == "capped_additive":
        # A cap over 5 adds a denominator that no value has.
        return CappedAdditive(tuple(_small_rational(rng) for _ in range(m)), Fraction(rng.randint(2, 9), 5))
    if kind == "capped_cardinality":
        return CappedCardinality(rng.randint(1, m))
    if kind == "row_coverage":
        groups: dict[int, list[int]] = {}
        for chore in range(m):
            groups.setdefault(rng.randrange(3), []).append(chore)
        return RowCoverage(tuple(tuple(g) for g in groups.values()), tuple(_small_rational(rng) for _ in groups))
    if kind == "monotone_table":
        return _random_monotone_table(m, rng, _small_rational)
    # A table cost with arbitrary entries is, in general, not monotone.
    return TableCost(m, (Fraction(0),) + tuple(_small_rational(rng) for _ in range(1, 1 << m)))


_AGENT_KINDS = ("additive", "capped_additive", "capped_cardinality", "row_coverage", "table")
_KINDS = _AGENT_KINDS + ("mixed", "monotone_table")


def _kernel_cases(kinds=_KINDS):
    for kind in kinds:
        for n, m in ((2, 7), (3, 6), (4, 5)):
            rng = random.Random(f"kernel-{kind}-{n}-{m}")
            agent_kinds = [rng.choice(_AGENT_KINDS) if kind == "mixed" else kind for _ in range(n)]
            inst = Instance(n=n, m=m, costs=tuple(_variant_cost(rng, k, m) for k in agent_kinds))
            yield pytest.param(kind, inst, id=f"{kind}-n{n}-m{m}")


def _leaves(inst):
    """Every allocation with its social cost, in itertools.product order."""
    out = []
    for assignment in itertools.product(range(inst.n), repeat=inst.m):
        alloc = Allocation.from_assignment(assignment, inst.n)
        out.append((alloc, sum((inst.cost(i, b) for i, b in enumerate(alloc.bundles)), Fraction(0))))
    return out


def _reference_search(leaves, accept):
    """Unpruned scan: (opt, cheapest accepted cost, first such allocation)."""
    opt = best = witness = None
    for alloc, cost in leaves:
        if opt is None or cost < opt:
            opt = cost
        if (best is None or cost < best) and accept(alloc):
            best, witness = cost, alloc
    return opt, best, witness


def _zero_share_cases():
    # Agent 1 costs nothing, so its shares are 0.
    costs = (Additive((1, 2, 0, 1, 3)), Additive((0,) * 5), Additive((2, 1, 1, 0, 2)))
    for n in (2, 3):
        yield pytest.param("zero_share", Instance(n=n, m=5, costs=costs[:n]), id=f"zero_share-n{n}-m5")


@pytest.mark.parametrize("kind,inst", [*_kernel_cases(), *_zero_share_cases()])
def test_best_fair_allocation_matches_unpruned_reference(kind, inst):
    if kind == "table":  # the unpruned path must really see non-monotone costs
        assert not all(check_monotone(fn, inst.m) for fn in inst.costs)
    if kind == "monotone_table":  # and monotone tables take the pruned one
        assert all(fn.monotone for fn in inst.costs)
    leaves = _leaves(inst)
    for crit in Criterion:
        # 5/4 and 7/6 leave alpha times a share short of an integer, so the share caps round down
        for alpha in (Fraction(1), Fraction(7, 6), Fraction(5, 4), Fraction(3, 2), Fraction(2), INFINITY):
            opt, best, witness = _reference_search(leaves, lambda alloc: min_alpha(inst, alloc, crit) <= alpha)
            report = best_fair_allocation(inst, crit, alpha)
            assert report.opt_cost == opt
            assert report.fair_exists == (best is not None)
            assert report.best_fair_cost == best
            assert report.witness == witness, (crit, alpha)


def _count_kernel_calls(monkeypatch) -> list[int]:
    from chorefair.criteria import InstanceContext

    calls = [0]
    kernel = InstanceContext.min_alpha_masks

    def counted(ctx, masks, crit):
        calls[0] += 1
        return kernel(ctx, masks, crit)

    monkeypatch.setattr(InstanceContext, "min_alpha_masks", counted)
    return calls


def test_a_refused_share_leaves_its_agent_uncapped(monkeypatch):
    # Every chore on agent 0 costs nothing, so the seed is fair at cost 0 and
    # the kernel needs no share. The instance is additive, so the search reads
    # caps; the other agents' three-way shares are refused by the min-max
    # search under a one-node budget, so their caps are None: a cap that
    # passed the refusal on would raise before the first leaf. (A two-way
    # share reads its value without searching, so it is never refused.)
    monkeypatch.setattr(mms, "MMS_NODE_BUDGET", 1)
    costs = Additive((6, 4, 9, 3, 5, 3, 2))
    inst = Instance(n=3, m=7, costs=(Additive((0,) * 7), costs, costs))
    with pytest.raises(SizeGuardError, match="budget of 1 nodes"):
        mms_value(inst, 1, 3)
    assert context_for(inst).share_cap(Criterion.MMS, 1)(1) is None
    report = best_fair_allocation(inst, Criterion.MMS, 1)
    assert report.fair_exists and report.best_fair_cost == 0 and report.opt_cost == 0


def test_a_cap_of_zero_cuts_every_positive_bundle():
    # A zero share gives a cap of 0: agent 1 may hold only chores it values at 0.
    inst = Instance(n=2, m=6, costs=(Additive((1, 2, 2, 1, 3, 1)), Additive((0, 1, 0, 2, 1, 0))))
    asked: list[list[int]] = []

    def accept(masks):
        asked.append(list(masks))
        return inst.costs[1].int_eval(masks[1]) == 0

    plain = cheapest_accepted(inst, accept)
    plain_asked, asked[:] = len(asked), []
    capped = cheapest_accepted(inst, accept, lambda agent: 0 if agent == 1 else None)
    assert capped == plain
    assert plain[1] is not None
    assert asked and all(inst.costs[1].int_eval(masks[1]) == 0 for masks in asked[1:])
    assert len(asked) < plain_asked


def test_each_cap_is_asked_once_before_the_first_leaf_and_never_for_a_zero_cost_agent():
    # Agent 1 costs nothing, so it has no cap to ask.
    inst = Instance(n=3, m=5, costs=(Additive((1, 2, 0, 1, 3)), Additive((0,) * 5), Additive((2, 1, 1, 0, 2))))
    events: list = []  # the agents whose caps are asked, and "accept" per asked leaf

    def accept(masks):
        events.append("accept")
        return False

    def cap(agent):
        events.append(agent)
        return None

    assert cheapest_accepted(inst, accept, cap)[1] is None
    first = events.index("accept")
    assert events[:first] == [0, 2]
    assert set(events[first:]) == {"accept"}


def test_a_seed_at_its_cap_is_asked_first_and_returned():
    # The seed gives agent 0 chores 0 and 2, at cost 4, exactly its cap. The
    # leaf (0, 0, 1) comes first in lexicographic order and fits both caps,
    # so a search that cut the seed at its cap would ask about that leaf first.
    inst = Instance(n=2, m=3, costs=(Additive((1, 2, 3)), Additive((2, 1, 3))))
    seed = (0b101, 0b010)
    assert inst.costs[0].int_eval(seed[0]) == 4
    asked: list[tuple[int, ...]] = []

    def accept(masks):
        asked.append(tuple(masks))
        return True

    assert cheapest_accepted(inst, accept, lambda agent: (4, 6)[agent]) == (5, 5, seed)
    assert asked == [seed]


def _count_cap_calls(monkeypatch) -> list[int]:
    from chorefair.criteria import InstanceContext

    calls = [0]
    share_cap = InstanceContext.share_cap

    def counted(ctx, crit, alpha):
        cap = share_cap(ctx, crit, alpha)

        def asked(agent):
            calls[0] += 1
            return cap(agent)

        return asked

    monkeypatch.setattr(InstanceContext, "share_cap", counted)
    return calls


def _mms_lb_query_calls(monkeypatch, family_id: str, alpha) -> int:
    """The kernel calls of the family's one price query at n = 5."""
    bundle = make_family(family_id, n=5, epsilon=Fraction(1, 100))
    (check,) = bundle.price_checks
    assert (check.criterion, check.alpha) == (Criterion.MMS, alpha)
    calls = _count_kernel_calls(monkeypatch)
    cap_calls = _count_cap_calls(monkeypatch)
    report = best_fair_allocation(bundle.instance, check.criterion, check.alpha)
    assert (report.best_fair_cost, report.opt_cost) == (check.fair_cost, bundle.opt_cost)
    # Each cap is asked at most once, before the first leaf; it was asked
    # 5,480 times when every unknown cap was asked after every kernel call.
    assert cap_calls[0] <= bundle.instance.n
    return calls[0]


def test_caps_and_the_seed_cut_the_largest_mms_query_to_six_kernel_calls(monkeypatch):
    # POF_2MMS_LB at n = 5 searches 5^8 allocations for 2-MMS. The search
    # asked the criteria kernel 3,162 times without share caps, 1,371 times
    # when a cap learned at a leaf cut only the subtrees placed after it, and
    # 7 times when it also backed up past that leaf's ancestors.
    assert _mms_lb_query_calls(monkeypatch, "POF_2MMS_LB", 2) == 6


def test_the_seed_and_caps_cut_the_mms_lb_query_to_two_kernel_calls(monkeypatch):
    # POF_MMS_LB at n = 5 searches 5^6 allocations for MMS; the search asked
    # the kernel 343 times before it began at the optimal leaf, and 3 times
    # while each share cap was learned at a leaf.
    assert _mms_lb_query_calls(monkeypatch, "POF_MMS_LB", 1) == 2


@pytest.mark.parametrize(
    "crit,alpha,n", [(Criterion.EF1, INFINITY, 3), (Criterion.MMS, INFINITY, 3), (Criterion.PMMS, Fraction(3), 4)]
)
def test_a_fair_seed_ends_an_uncapped_search_at_one_kernel_call(monkeypatch, crit, alpha, n):
    # No criterion has a cap at INFINITY, nor PMMS at alpha 3 with n = 4,
    # past the list-scheduling condition. Every allocation is 2-PMMS, so
    # every seed here is fair.
    instances = [random_instance(n, 2 + trial % 4, "additive", seed=trial) for trial in range(20)]
    expected = [
        _reference_search(_leaves(inst), lambda alloc: min_alpha(inst, alloc, crit) <= alpha) for inst in instances
    ]
    calls = _count_kernel_calls(monkeypatch)
    for inst, (opt, best, witness) in zip(instances, expected):
        assert context_for(inst).share_cap(crit, alpha) is None
        report = best_fair_allocation(inst, crit, alpha)
        assert (report.opt_cost, report.best_fair_cost, report.witness) == (opt, best, witness)
    assert calls[0] == len(instances)


def _seed_masks(inst) -> list[int]:
    """Each chore on its cheapest agent, ties to the lowest."""
    _, unit = unit_costs(inst)
    masks = [0] * inst.n
    for d in range(inst.m):
        masks[min(range(inst.n), key=lambda i: unit[i][d])] |= 1 << d
    return masks


def _seed_cases():
    # Small integer costs, so that many leaves tie with the optimum.
    rng = random.Random("seed-and-unwind")
    for trial in range(18):
        n = 2 + trial % 3
        m = rng.randint(2, (7, 7, 5)[n - 2])
        costs = tuple(Additive(tuple(rng.randint(0, 4) for _ in range(m))) for _ in range(n))
        yield Instance(n=n, m=m, costs=costs)
    # Identical agents: every leaf costs the same, and the seed gives agent 0 everything.
    yield Instance(n=3, m=5, costs=(Additive((1, 2, 1, 3, 2)),) * 3)


def test_seed_and_caps_match_the_unpruned_reference():
    seen = {"uncapped seed": 0, "seed accepted": 0, "seed rejected": 0, "seed cut": 0}
    for inst in _seed_cases():
        leaves = _leaves(inst)
        seed = _seed_masks(inst)
        reference = context_for(inst)
        for crit in Criterion:
            for alpha in (Fraction(1), Fraction(5, 4), Fraction(3, 2), Fraction(2), INFINITY):
                ref_asked: set[tuple[int, ...]] = set()

                def ref_accept(alloc):
                    ref_asked.add(alloc.masks())
                    return reference.min_alpha_masks(alloc.masks(), crit)[0] <= alpha

                ref_opt, ref_best, ref_witness = _reference_search(leaves, ref_accept)
                ctx = context_for(inst)
                cap = ctx.share_cap(crit, alpha)
                caps = [None if cap is None else cap(a) for a in range(inst.n)]
                asked: list[list[int]] = []

                def accept(masks):
                    for c, fn, mask in zip(caps, inst.costs, masks):
                        assert c is None or fn.int_eval(mask) <= c, "a leaf past a cap was asked"
                    asked.append(list(masks))
                    return ctx.min_alpha_masks(masks, crit)[0] <= alpha

                opt, best, masks = cheapest_accepted(inst, accept, cap)
                where = (inst, crit, alpha)
                assert (opt, best) == (ref_opt, ref_best), where
                assert masks == (None if ref_witness is None else ref_witness.masks()), where
                assert asked.count(seed) <= 1, where
                # Every asked leaf is one the unpruned scan asks.
                assert {tuple(leaf) for leaf in asked} <= ref_asked, where
                if not asked or asked[0] != seed:
                    assert cap is not None, "an uncapped seed was not asked first"
                    seen["seed cut"] += 1
                    continue
                accepted = reference.min_alpha_masks(seed, crit)[0] <= alpha
                if accepted:  # the answer, asked about alone
                    assert asked == [seed] and masks == tuple(seed), where
                if cap is None:
                    seen["uncapped seed"] += 1
                else:
                    seen["seed accepted" if accepted else "seed rejected"] += 1
    assert all(seen.values()), seen


# Closed-form caps: one two-agent and one three-agent instance on which the
# cheapest fair allocation gives some agent exactly its cap, for each criterion.
_CAP_TWO = ((1, 4, 4, 3), (5, 10, 10, 5))
_CAP_THREE = ((2, 1, 2, 2), (10, 5, 15, 15), (10, 5, 15, 15))
_TIGHT_CAPS = (
    # values, criterion, alpha, agent, that agent's cap
    (_CAP_TWO, Criterion.EF1, Fraction(1), 0, 8),  # C = 12, t = 4: (12 + 4) / 2
    (_CAP_TWO, Criterion.EFX, Fraction(1), 0, 8),
    (_CAP_TWO, Criterion.EF, Fraction(1), 1, 15),  # C = 30: 30 / 2
    (_CAP_THREE, Criterion.EF1, Fraction(1), 0, 3),  # C = 7, t = 2: (7 + 2*2) / 3
    (_CAP_THREE, Criterion.EFX, Fraction(1), 0, 3),
    (_CAP_THREE, Criterion.EF, Fraction(1), 0, 2),  # 7 / 3
    (_CAP_THREE, Criterion.PMMS, Fraction(3, 2), 0, 6),  # 3 * (7 + 2*2) / (2*2*2 - 3*1)
)


@pytest.mark.parametrize("values,crit,alpha,agent,expected", _TIGHT_CAPS)
def test_closed_form_caps_are_attained_and_exact(values, crit, alpha, agent, expected):
    inst = Instance(n=len(values), m=len(values[0]), costs=tuple(Additive(v) for v in values))
    ctx = context_for(inst)
    cap = ctx.share_cap(crit, alpha)
    assert cap(agent) == expected
    report = best_fair_allocation(inst, crit, alpha)
    assert inst.cost(agent, report.witness.bundles[agent]) == expected
    asked: list[list[int]] = []

    def accept(masks):
        asked.append(list(masks))
        return ctx.min_alpha_masks(masks, crit)[0] <= alpha

    # The caps are read before the first leaf, so no leaf past one is asked about.
    assert cheapest_accepted(inst, accept, cap)[1] == report.best_fair_cost
    assert asked and all(fn.int_eval(masks[a]) <= cap(a) for masks in asked for a, fn in enumerate(inst.costs))
    # A cap one unit too small cuts the cheapest fair allocation.
    assert cheapest_accepted(inst, accept, lambda a: cap(a) - (a == agent))[1] != report.best_fair_cost


@pytest.mark.parametrize("alpha", [Fraction(4), Fraction(5)])
def test_pmms_has_no_closed_form_cap_past_the_list_scheduling_condition(alpha):
    # With n = 3, 2q(n-1) > p(n-2) asks alpha < 4.
    inst = Instance(n=3, m=4, costs=tuple(Additive(v) for v in _CAP_THREE))
    assert context_for(inst).share_cap(Criterion.PMMS, alpha) is None
    opt, best, witness = _reference_search(_leaves(inst), lambda alloc: min_alpha(inst, alloc, Criterion.PMMS) <= alpha)
    report = best_fair_allocation(inst, Criterion.PMMS, alpha)
    assert (report.opt_cost, report.best_fair_cost, report.witness) == (opt, best, witness)


def test_mixed_and_non_additive_instances_get_no_closed_form_cap():
    additive = Additive((1, 2, 3))
    mixed = Instance(n=3, m=3, costs=(additive, CappedAdditive((1, 2, 3), 4), additive))
    table = Instance(n=2, m=2, costs=(TableCost(2, (0, 1, 1, 2)),) * 2)
    for inst in (mixed, table):
        ctx = context_for(inst)
        for crit in (Criterion.EF, Criterion.EF1, Criterion.EFX, Criterion.EFX_STRONG, Criterion.PMMS):
            if crit is Criterion.PMMS and inst.n == 2:
                continue  # the lazy two-agent share cap
            assert ctx.share_cap(crit, Fraction(1)) is None, (crit, inst.n)


@pytest.mark.parametrize("kind,inst", list(_kernel_cases(_KINDS[1:])))
def test_general_optimal_allocation_matches_unpruned_reference(kind, inst):
    opt, _, witness = _reference_search(_leaves(inst), lambda alloc: True)
    outcome = optimal_allocation(inst)
    assert outcome.social_cost == opt
    assert outcome.allocation == witness


def _greedy_seed(inst) -> list[int]:
    """Chores in index order, each on the agent whose cost rises least, ties to the lowest."""
    masks = [0] * inst.n
    for d in range(inst.m):
        rises = [inst.cost(a, set_of(masks[a] | 1 << d)) - inst.cost(a, set_of(masks[a])) for a in range(inst.n)]
        masks[rises.index(min(rises))] |= 1 << d
    return masks


def _greedy_seed_cases():
    for param in _kernel_cases(_KINDS[1:]):
        yield param.values[1]
    yield Instance(n=3, m=5, costs=(RowCoverage(((0, 3), (1,), (2, 4)), (1, 2, 1)),) * 3)  # identical agents
    yield Instance(n=3, m=5, costs=(CappedAdditive((1, 2, 1, 3, 2), 4),) * 3)
    yield Instance(n=3, m=4, costs=(CappedCardinality(1),) * 3)  # every optimum puts all chores on one agent
    # Zero-cost chores, and a row of weight 0.
    yield Instance(n=2, m=5, costs=(CappedAdditive((0, 2, 0, 1, 0), 2), CappedAdditive((1, 0, 0, 2, 1), 3)))
    coverage = RowCoverage(((0, 1), (2, 3, 4)), (0, 1))
    yield Instance(n=3, m=5, costs=(coverage, CappedCardinality(2), CappedCardinality(3)))
    for n in (2, 3):  # no chores: one leaf, which is the seed
        yield Instance(n=n, m=0, costs=(CappedCardinality(1),) * n)
    # The group floor: a capped agent whose room is 0 after its first chores,
    # so its share of the floor is no bound.
    yield Instance(n=2, m=5, costs=(CappedAdditive((2, 2, 1, 1, 1), 2), Additive((1, 1, 1, 1, 1))))
    yield Instance(n=3, m=5, costs=(Additive((1, 2, 1, 2, 1)), CappedCardinality(1), Additive((2, 1, 1, 1, 2))))
    # A group's weight sits on its first chore, chore 0, and its other chores come last.
    first = RowCoverage(((0, 3, 4), (1,), (2,)), (1, 2, 2))
    yield Instance(n=3, m=5, costs=(first, Additive((1, 1, 1, 3, 3)), Additive((2, 1, 2, 3, 4))))
    # A group of weight 0, and a capped-additive value above its cap.
    yield Instance(n=2, m=5, costs=(RowCoverage(((0,), (1, 2), (3, 4)), (2, 0, 1)), Additive((1, 1, 0, 2, 1))))
    yield Instance(n=2, m=5, costs=(CappedAdditive((5, 1, 2, 1, 3), 3), Additive((2, 2, 1, 2, 1))))
    # A table has no groups, so the floor stays 0: its chore 3 is free next to any of 0-2.
    table = TableCost(4, [min(bin(s & 7).count("1"), 1) for s in range(16)])
    yield Instance(n=3, m=4, costs=(CappedAdditive((1, 2, 1, 2), 3), table, RowCoverage(((0, 3), (1, 2)), (1, 1))))


def test_greedy_seed_matches_the_unpruned_reference():
    seen = {"no seed": 0, "seed is the witness": 0, "an accepted seed, another witness": 0, "seed refused": 0}
    for inst in _greedy_seed_cases():
        assert not inst.is_additive()
        monotone = all(fn.monotone for fn in inst.costs)
        leaves = _leaves(inst)
        seed = _greedy_seed(inst)
        reference = context_for(inst)
        for crit in Criterion:
            for alpha in (Fraction(1), Fraction(5, 4), Fraction(3, 2), Fraction(2), INFINITY):
                ref_asked: list[tuple[int, ...]] = []

                def ref_accept(alloc):
                    ref_asked.append(alloc.masks())
                    return reference.min_alpha_masks(alloc.masks(), crit)[0] <= alpha

                ref_opt, ref_best, ref_witness = _reference_search(leaves, ref_accept)
                ctx = context_for(inst)
                asked: list[tuple[int, ...]] = []

                def accept(masks):
                    asked.append(tuple(masks))
                    return ctx.min_alpha_masks(masks, crit)[0] <= alpha

                opt, best, masks = cheapest_accepted(inst, accept)
                where = (inst, crit, alpha)
                ref_masks = None if ref_witness is None else ref_witness.masks()
                assert (opt, best, masks) == (ref_opt, ref_best, ref_masks), where
                if not monotone:  # the full scan, with no seed
                    assert asked == ref_asked, where
                    seen["no seed"] += 1
                    continue
                # The seed is asked about once, first; every other leaf asked is one the reference asks.
                assert asked[0] == tuple(seed) and asked.count(tuple(seed)) == 1, where
                assert set(asked[1:]) <= set(ref_asked), where
                if reference.min_alpha_masks(seed, crit)[0] <= alpha:
                    seen["seed is the witness" if masks == tuple(seed) else "an accepted seed, another witness"] += 1
                else:
                    seen["seed refused"] += 1
    assert all(seen.values()), seen


def test_a_supermodular_seed_is_not_cut_by_its_holders_singleton_costs():
    # The table charges 0 for each chore alone and 1 for both. The seed gives
    # it both, so its holder costs more than its singleton costs sum to; on
    # a supermodular cost that sum is no cap, and the seed is asked first.
    inst = Instance(n=2, m=2, costs=(Additive((5, 5)), TableCost(2, (0, 0, 0, 1))))
    asked: list[tuple[int, ...]] = []

    def accept(masks):
        asked.append(tuple(masks))
        return True

    assert cheapest_accepted(inst, accept) == (1, 1, (0, 3))
    assert asked == [(0, 3)]


def test_an_additive_search_reads_its_floor_from_unit_rows_not_groups(monkeypatch):
    def refuse(fn, elems):
        raise AssertionError("sum_groups called")

    inst = random_instance(3, 6, "additive", seed=4)
    expected = cheapest_accepted(inst, lambda masks: True)
    monkeypatch.setattr(Additive, "sum_groups", refuse)
    cap = context_for(inst).share_cap(Criterion.EF1, Fraction(1))
    assert cheapest_accepted(inst, lambda masks: True) == expected
    assert cheapest_accepted(inst, lambda masks: True, cap)[1] is not None


def test_an_accepted_zero_cost_seed_ends_a_non_additive_search(monkeypatch):
    # The seed (chores 0 and 2 on agent 0, chore 1 on agent 1) costs 0, the
    # least any leaf can cost, and it is the first zero-cost leaf in
    # lexicographic order, so nothing after it is read.
    inst = Instance(n=2, m=3, costs=(CappedAdditive((0, 2, 0), 2), RowCoverage(((0, 1, 2),), (0,))))
    events: list[str] = []
    for cls in (CappedAdditive, RowCoverage):
        int_eval = cls.__dict__["int_eval"]

        def counted(fn, mask, int_eval=int_eval):
            events.append("cost")
            return int_eval(fn, mask)

        monkeypatch.setattr(cls, "int_eval", counted)

    def accept(masks):
        events.append("accept")
        return True

    opt, best, masks = cheapest_accepted(inst, accept)
    assert (opt, best, masks) == (0, 0, (0b101, 0b010))
    assert events.index("accept") == len(events) - 1  # asked once, and no cost is read after
    expected = _reference_search(_leaves(inst), lambda alloc: True)
    assert (opt, best, Allocation.from_masks(masks)) == expected


def test_a_general_search_with_a_positive_floor_returns_its_cheapest_leaf_not_its_seed():
    # Two capped-additive agents. The seed puts each chore on its cheaper
    # agent and costs the floor's total, 2464/2231, but either agent holding
    # every chore costs its cap, 1: off an additive instance floor[0] bounds
    # no leaf, so an early return at it would return the seed.
    outcome = optimal_allocation(random_instance(2, 5, "submodular", 9))
    assert outcome.social_cost == 1
    assert outcome.allocation.masks() == (31, 0)


def _count_cost_calls(monkeypatch) -> list[int]:
    """Count ``int_eval`` calls of the cost classes that random instances draw."""
    calls = [0]
    for cls in (Additive, CappedAdditive, CappedCardinality, RowCoverage):
        int_eval = cls.__dict__["int_eval"]

        def counted(fn, mask, int_eval=int_eval):
            calls[0] += 1
            return int_eval(fn, mask)

        monkeypatch.setattr(cls, "int_eval", counted)
    return calls


def test_the_greedy_seed_and_the_group_floor_cut_the_general_optimal_search(monkeypatch):
    # The general search read 3,350 costs on these instances when it started
    # with no incumbent, from the leaf that puts every chore on agent 0,
    # 2,517 when it also read a single-chore row it never used, and 2,133
    # when it bounded a subtree by its partial cost alone. A weaker bound
    # reads more: with ``>`` for ``>=`` in the cut it reads 1,225.
    instances = [random_instance(3, 8, "submodular", seed) for seed in range(20)]
    calls = _count_cost_calls(monkeypatch)
    for inst in instances:
        optimal_allocation(inst)
    assert calls[0] == 1196


def test_witness_is_first_cheapest_fair_allocation_in_lexicographic_order():
    # Identical unit costs: every allocation costs 3, and the envy-free ones
    # give each agent one chore. The witness is the first of those six in
    # lexicographic order of the assignment vector, (0, 1, 2).
    inst = Instance(n=3, m=3, costs=(Additive((1, 1, 1)),) * 3)
    report = best_fair_allocation(inst, Criterion.EF, 1)
    assert report.witness.assignment(3) == (0, 1, 2)
    # Under min(|S|, 1) the optima put all chores on one agent; the first is
    # (0, 0, 0). The cheapest EF allocations still split one chore each.
    inst = Instance(n=3, m=3, costs=(CappedCardinality(1),) * 3)
    assert optimal_allocation(inst).allocation.assignment(3) == (0, 0, 0)
    assert best_fair_allocation(inst, Criterion.EF, 1).witness.assignment(3) == (0, 1, 2)


@pytest.mark.parametrize("alpha", [1.5, 0.5, 1.0, Fraction(1, 2), "1/2", 0])
def test_best_fair_allocation_rejects_inexact_or_small_alpha(alpha):
    inst = random_instance(2, 3, "additive", seed=1)
    with pytest.raises(ArgumentError):
        best_fair_allocation(inst, Criterion.EF1, alpha)


@pytest.mark.parametrize(
    "args, message",
    [
        ((0, 3), "need n >= 1 and m >= 1, got n=0, m=3"),
        ((2, 3, "x"), "setting must be 'additive' or 'submodular', got 'x'"),
    ],
)
def test_random_instance_refuses_bad_arguments(args, message):
    with pytest.raises(ArgumentError) as caught:
        random_instance(*args)
    assert str(caught.value) == f"argument-error: {message}"


def test_queries_keep_no_reference_to_their_instance():
    import gc
    import weakref

    inst = random_instance(3, 5, "additive", seed=3)
    alloc = random_allocation(3, 5, seed=3)
    assert min_alpha(inst, alloc, Criterion.MMS) >= 1
    assert best_fair_allocation(inst, Criterion.EF1, 1).fair_exists
    ref = weakref.ref(inst)
    del inst
    gc.collect()
    assert ref() is None


def test_every_allocation_scan_shares_one_guard():
    from chorefair.search import ENUMERATION_GUARD

    n, m = 2, ENUMERATION_GUARD.bit_length()  # 2^m > ENUMERATION_GUARD
    inst = Instance(n=n, m=m, costs=(CappedCardinality(3),) * n)
    for run in (
        lambda: next(enumerate_allocations(m, n)),
        lambda: best_fair_allocation(inst, Criterion.EF1, 1),
        lambda: optimal_allocation(inst),
    ):
        with pytest.raises(SizeGuardError, match=f"enumeration guard {ENUMERATION_GUARD}"):
            run()


def test_family_checks_run_each_query_once(monkeypatch):
    import chorefair.search as search

    calls = {"best_fair": 0, "report": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(search, "best_fair_allocation", counted("best_fair", search.best_fair_allocation))
    monkeypatch.setattr(search, "fairness_report", counted("report", search.fairness_report))
    price = make_family("POF_PMMS_N2", epsilon=Fraction(1, 100))
    rows = search._check_family_price(price)
    assert calls["best_fair"] == len(price.price_checks) == 3
    assert calls["report"] == 1
    assert all(row.passed for row in rows)
    calls.update(report=0)
    connection = make_family("SUB_PMMS_CAPPED")
    rows = search._check_family_connections(connection)
    assert calls["report"] == 1
    assert all(row.passed for row in rows)


def _shown(rows):
    return [(r.proposition_id, r.expected, r.observed, r.status) for r in rows]


def test_verification_rows_report_each_failure(monkeypatch):
    import chorefair.search as search

    # One chore costing 1 to both agents: no allocation is EF, and the
    # reference allocation leaves agent 0 envying an empty bundle.
    fn = Additive((Fraction(1),))
    one_chore = FamilyBundle(
        family_id="ONE_CHORE",
        params=(("epsilon", Fraction(1, 100)),),
        setting="additive",
        kind="price",
        instance=Instance(n=2, m=1, costs=(fn, fn)),
        reference_allocation=Allocation((frozenset({0}), frozenset())),
        opt_cost=Fraction(1),
        price_checks=(PriceCheck(Criterion.EF, 1, 1, 1),),
    )
    assert _shown(search._check_family_price(one_chore)) == [
        ("ONE_CHORE[epsilon=1/100]:opt_cost", "1", "1", "pass"),
        ("ONE_CHORE[epsilon=1/100]:fair_cost[EF@1]", "1", "none", "fail"),
        ("ONE_CHORE[epsilon=1/100]:price[EF@1]", "1", "none", "fail"),
        ("ONE_CHORE[epsilon=1/100]:reference_is_fair[EF@1]", "<= 1", "inf", "fail"),
    ]

    capped = make_family("SUB_PMMS_CAPPED")
    wrong = dataclasses.replace(capped, expected_alphas=((Criterion.PMMS, Fraction(1)), (Criterion.MMS, Fraction(2))))
    failed = [row for row in _shown(search._check_family_connections(wrong)) if row[3] == "fail"]
    assert failed == [("SUB_PMMS_CAPPED:min_alpha[MMS]", "2", "1", "fail")]

    monkeypatch.setattr(search, "price_of_fairness", lambda inst, crit, alpha: 3)
    rows = search.verify_prices(n_values=(3,), sweep_count=1)
    sweeps = {r[0]: r[1:] for r in _shown(rows) if r[0].startswith("sweep:")}
    assert sweeps["sweep:price-EF1<=5/4(count=1)"] == ("<= 5/4", "3", "fail")
    assert sweeps["sweep:price-2-MMS=1(count=1)"] == ("<= 1", "3", "fail")
    assert all(row.passed for row in rows if not row.proposition_id.startswith("sweep:"))


def test_verify_grids_build_each_entry_once(monkeypatch):
    import chorefair.families as families
    import chorefair.search as search

    built = []
    make = families.make_family

    def recorded(family_id, **params):
        built.append((family_id, tuple(params.items())))
        return make(family_id, **params)

    monkeypatch.setattr(families, "make_family", recorded)
    monkeypatch.setattr(search, "make_family", recorded)
    for run in (search.verify_connections, lambda: search.verify_prices(sweep_count=1)):
        built.clear()
        assert all(row.passed for row in run())
        assert built and len(built) == len(set(built))


def test_every_connection_family_passes_at_every_n_up_to_verify_max_n_within_its_time_budget():
    started = time.process_time()
    rows = verify_connections(n_values=range(2, VERIFY_MAX_N + 1))
    elapsed = time.process_time() - started
    assert rows and all(row.passed for row in rows)
    assert {row.n for row in rows} == set(range(2, VERIFY_MAX_N + 1))
    assert elapsed < 1.0


def test_verify_prices_max_n_is_the_largest_n_whose_price_grid_fits_the_enumeration_guard():
    def spaces(n_max):
        bundles = _grid_bundles("price", tuple(range(2, n_max + 1)), _REFERENCE_EPSILON)
        return [bundle.instance.n ** bundle.instance.m for bundle in bundles]

    assert max(spaces(VERIFY_PRICES_MAX_N)) <= ENUMERATION_GUARD
    assert max(spaces(VERIFY_PRICES_MAX_N + 1)) > ENUMERATION_GUARD
    assert VERIFY_PRICES_MAX_N <= VERIFY_MAX_N


def test_import_loads_no_process_pool():
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    script = "import sys, chorefair; print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, check=True, text=True)
    assert out.stdout == "[]\n"


def test_unit_costs_match_the_per_variant_formula_on_random_instances():
    # The formula unit_costs had before int_singles: an additive row from sum_groups.
    def reference(inst):
        scale = math.lcm(*(fn.denominator() for fn in inst.costs))
        unit = []
        for fn in inst.costs:
            factor = scale // fn.denominator()
            unit.append([w * factor for _, w in fn.sum_groups(range(inst.m))[0]])
        return scale, unit

    for seed in range(0, 60, 2):
        inst = random_instance(1 + seed % 4, 1 + seed % 9, "additive", seed=seed)
        assert unit_costs(inst) == reference(inst), seed

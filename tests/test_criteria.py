"""Minimal-alpha computation, conventions, and the guarantee table."""

from __future__ import annotations

import itertools
import random
import time
import tracemalloc
from fractions import Fraction

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
    fairness_report,
    implied_guarantee,
    min_alpha,
    random_instance,
    satisfies,
)
from chorefair.errors import ArgumentError, NotInTableError, ValidationError
from chorefair.mms import mms_value
from chorefair.model import check_monotone, scale_cost
from chorefair.search import random_allocation


def test_reference_allocation_a_is_envy_free(ref_instance, alloc_a):
    assert min_alpha(ref_instance, alloc_a, Criterion.EF) == 1
    for crit in (Criterion.EFX, Criterion.EF1, Criterion.MMS, Criterion.PMMS):
        assert min_alpha(ref_instance, alloc_a, crit) == 1


def test_reference_allocation_b_alphas(ref_instance, alloc_b):
    report = fairness_report(ref_instance, alloc_b)
    assert report.alphas[Criterion.EF] == Fraction(7, 3)
    assert report.alphas[Criterion.EFX] == 2
    assert report.alphas[Criterion.EF1] == 1
    assert report.alphas[Criterion.MMS] == Fraction(7, 5)
    assert report.alphas[Criterion.PMMS] == Fraction(7, 5)
    # the EF maximum is attained by agent 0 against agent 2
    wit = report.witnesses[Criterion.EF]
    assert (wit["agent"], wit["against"]) == (0, 2)


def test_satisfies(ref_instance, alloc_b):
    assert satisfies(ref_instance, alloc_b, Criterion.EF1, 1)
    assert not satisfies(ref_instance, alloc_b, Criterion.EFX, 1)
    assert satisfies(ref_instance, alloc_b, Criterion.EFX, 2)
    assert satisfies(ref_instance, alloc_b, Criterion.PMMS, 2)
    with pytest.raises(ArgumentError):
        satisfies(ref_instance, alloc_b, Criterion.EF, Fraction(1, 2))
    # A criterion's name in place of the Criterion is refused, not read as EF.
    with pytest.raises(ArgumentError, match="unknown criterion 'EF1'"):
        fairness_report(ref_instance, alloc_b, ["EF1"])


def test_all_zero_costs_give_alpha_one():
    inst = Instance(n=2, m=2, costs=(Additive((0, 0)), Additive((0, 0))))
    alloc = Allocation((frozenset({0, 1}), frozenset()))
    for crit in Criterion:
        assert min_alpha(inst, alloc, crit) == 1


def test_positive_against_zero_is_infinite():
    inst = Instance(n=2, m=2, costs=(Additive((1, 1)), Additive((0, 0))))
    alloc = Allocation((frozenset({0, 1}), frozenset()))
    assert min_alpha(inst, alloc, Criterion.EF) == INFINITY
    assert min_alpha(inst, alloc, Criterion.EF1) == INFINITY


def test_ef1_empty_bundle_contributes_one():
    inst = Instance(n=2, m=1, costs=(Additive((1,)), Additive((1,))))
    alloc = Allocation((frozenset(), frozenset({0})))
    assert min_alpha(inst, alloc, Criterion.EF1) == 1
    # the singleton holder can always remove their only chore
    alloc2 = Allocation((frozenset({0}), frozenset()))
    assert min_alpha(inst, alloc2, Criterion.EF1) == 1


def test_efx_ignores_zero_cost_chores():
    inst = Instance(n=2, m=3, costs=(Additive((0, 2, 2)), Additive((1, 1, 1))))
    # Agent 0 holds a zero-cost chore plus one costly one.
    alloc = Allocation((frozenset({0, 1}), frozenset({2})))
    # Removing the costly chore is what EFX quantifies over... the zero-cost
    # chore is excluded, so the worst removal leaves cost 2 against cost 2.
    assert min_alpha(inst, alloc, Criterion.EFX) == 1
    # The strong variant also removes the zero-cost chore: 2 against 2 still.
    assert min_alpha(inst, alloc, Criterion.EFX_STRONG) == 1


def test_efx_strong_is_at_least_efx():
    inst = Instance(n=2, m=2, costs=(Additive((0, 3)), Additive((1, 1))))
    alloc = Allocation((frozenset({0, 1}), frozenset()))
    assert min_alpha(inst, alloc, Criterion.EFX) == 1  # only removal is the 3-chore... left 0
    assert min_alpha(inst, alloc, Criterion.EFX_STRONG) == INFINITY  # removing the free chore leaves 3 vs 0


def test_dimension_mismatch(ref_instance):
    with pytest.raises(ValidationError):
        min_alpha(ref_instance, Allocation((frozenset(range(7)),)), Criterion.EF)


def test_ordering_ef_efx_ef1_over_random_instances():
    for trial in range(120):
        setting = "additive" if trial % 2 else "submodular"
        inst = random_instance(3, 6, setting, seed=trial)
        alloc = random_allocation(3, 6, seed=trial)
        ef = min_alpha(inst, alloc, Criterion.EF)
        efx = min_alpha(inst, alloc, Criterion.EFX)
        efx_strong = min_alpha(inst, alloc, Criterion.EFX_STRONG)
        ef1 = min_alpha(inst, alloc, Criterion.EF1)
        assert ef >= efx_strong >= efx >= ef1


def test_pmms_exact_implies_efx_on_additive_instances():
    checked = 0
    for trial in range(60):
        inst = random_instance(2, 5, "additive", seed=trial)
        alloc = random_allocation(2, 5, seed=trial * 31 + 7)
        if min_alpha(inst, alloc, Criterion.PMMS) == 1:
            checked += 1
            assert min_alpha(inst, alloc, Criterion.EFX) == 1
    assert checked > 0


def test_universal_guarantees_hold():
    for trial in range(60):
        setting = "additive" if trial % 2 else "submodular"
        inst = random_instance(4, 6, setting, seed=trial + 1000)
        alloc = random_allocation(4, 6, seed=trial)
        assert min_alpha(inst, alloc, Criterion.PMMS) <= 2
        assert min_alpha(inst, alloc, Criterion.MMS) <= inst.n


def test_scale_invariance():
    rng = random.Random(5)
    for trial in range(40):
        inst = random_instance(3, 5, "additive", seed=trial)
        alloc = random_allocation(3, 5, seed=trial + 99)
        factor = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        agent = rng.randrange(3)
        scaled_costs = list(inst.costs)
        scaled_costs[agent] = scale_cost(scaled_costs[agent], factor)
        scaled = Instance(n=3, m=5, costs=tuple(scaled_costs))
        for crit in Criterion:
            assert min_alpha(inst, alloc, crit) == min_alpha(scaled, alloc, crit)


def test_relabeling_invariance():
    rng = random.Random(3)
    for trial in range(30):
        inst = random_instance(3, 5, "additive", seed=trial + 500)
        alloc = random_allocation(3, 5, seed=trial + 501)
        agent_perm = list(range(3))
        chore_perm = list(range(5))
        rng.shuffle(agent_perm)
        rng.shuffle(chore_perm)
        permuted_costs = tuple(
            Additive(tuple(inst.costs[agent_perm[i]].values[chore_perm[e]] for e in range(5)))
            for i in range(3)
        )
        inv_chore = {chore_perm[e]: e for e in range(5)}
        permuted_bundles = tuple(
            frozenset(inv_chore[e] for e in alloc.bundles[agent_perm[i]]) for i in range(3)
        )
        permuted = Instance(n=3, m=5, costs=permuted_costs)
        permuted_alloc = Allocation(permuted_bundles)
        for crit in Criterion:
            assert min_alpha(inst, alloc, crit) == min_alpha(permuted, permuted_alloc, crit)


# -- the integer kernel against the definitions in Fractions ------------------


def _reference_min_alpha(inst, bundles, crit, share_memo):
    """(alpha, witness, mms values) from the definitions, in ``Fraction``s.

    Candidates are scanned agent by agent, then against the other agents in
    index order, and a candidate replaces the maximum only when strictly
    larger. Removals go through the chores in increasing order, and the
    first best one is kept.
    """
    n = inst.n
    best, witness, used = Fraction(1), None, {}

    def cost(i, chores):
        return inst.costs[i].value(chores)

    def share(i, k, chores):
        key = (i, k, chores)
        if key not in share_memo:
            share_memo[key] = mms_value(inst, i, k, chores).value
        return share_memo[key]

    for i in range(n):
        own = cost(i, bundles[i])
        if own == 0:
            continue
        others = [j for j in range(n) if j != i]
        candidates = []  # (left, right, against, chore)
        if crit is Criterion.MMS:
            used[i] = share(i, n, frozenset(range(inst.m)))
            candidates.append((own, used[i], None, None))
        elif crit is Criterion.PMMS:
            for j in others:
                used[(i, j)] = share(i, 2, bundles[i] | bundles[j])
                candidates.append((own, used[(i, j)], j, None))
        else:
            removals = [(cost(i, bundles[i] - {e}), e) for e in sorted(bundles[i])]
            if crit is Criterion.EF:
                left, chore = own, None
            elif crit is Criterion.EF1:
                left, chore = min(removals, key=lambda r: r[0])
            elif crit is Criterion.EFX:
                positive = [r for r in removals if cost(i, {r[1]}) > 0]
                if not positive:
                    continue
                left, chore = max(positive, key=lambda r: r[0])
            else:
                left, chore = max(removals, key=lambda r: r[0])
            candidates += [(left, cost(i, bundles[j]), j, chore) for j in others]
        for left, right, j, chore in candidates:
            if left <= right:
                ratio = Fraction(1)
            elif right == 0:
                ratio = INFINITY
            else:
                ratio = left / right
            if ratio > best:
                best, witness = ratio, {"agent": i, "against": j, "chore": chore}
    return best, witness, used


def _small_rational(rng):
    # Few distinct values, so that zeros and ties are common; the
    # denominators 1-3 differ between agents.
    return Fraction(rng.randint(0, 3), rng.randint(1, 3))


def _variant_cost(rng, kind, m):
    if kind == "additive":
        return Additive(tuple(_small_rational(rng) for _ in range(m)))
    if kind == "capped_additive":
        return CappedAdditive(tuple(_small_rational(rng) for _ in range(m)), Fraction(rng.randint(2, 9), 5))
    if kind == "capped_cardinality":
        return CappedCardinality(rng.randint(1, m))
    if kind == "row_coverage":
        groups: dict[int, list[int]] = {}
        for chore in range(m):
            groups.setdefault(rng.randrange(3), []).append(chore)
        return RowCoverage(tuple(tuple(g) for g in groups.values()), tuple(_small_rational(rng) for _ in groups))
    return TableCost(m, (Fraction(0),) + tuple(_small_rational(rng) for _ in range(1, 1 << m)))


_KINDS = ("additive", "capped_additive", "capped_cardinality", "row_coverage", "table", "mixed")


def _kernel_cases():
    for kind in _KINDS:
        for n, m in ((2, 6), (3, 5), (4, 4)):
            rng = random.Random(f"criteria-kernel-{kind}-{n}-{m}")
            agent_kinds = [rng.choice(_KINDS[:-1]) if kind == "mixed" else kind for _ in range(n)]
            inst = Instance(n=n, m=m, costs=tuple(_variant_cost(rng, k, m) for k in agent_kinds))
            yield pytest.param(kind, inst, id=f"{kind}-n{n}-m{m}")


@pytest.mark.parametrize("kind,inst", list(_kernel_cases()))
def test_kernel_matches_fraction_reference(kind, inst):
    if kind == "table":  # the kernel must really see non-monotone costs
        assert not all(check_monotone(fn, inst.m) for fn in inst.costs)
    share_memo: dict = {}
    for assignment in itertools.product(range(inst.n), repeat=inst.m):
        alloc = Allocation.from_assignment(assignment, inst.n)
        report = fairness_report(inst, alloc, list(Criterion))
        for crit in Criterion:
            alpha, witness, used = _reference_min_alpha(inst, alloc.bundles, crit, share_memo)
            assert report.alphas[crit] == alpha, (crit, assignment)
            assert report.witnesses[crit] == witness, (crit, assignment)
            assert report.mms_values[crit] == used, (crit, assignment)


def test_kernel_skips_zero_cost_bundles():
    # Agent 0's bundle costs 0 to it: it contributes 1 and asks for no share.
    inst = Instance(n=2, m=3, costs=(Additive((0, 0, 5)), Additive((1, 1, 1))))
    alloc = Allocation((frozenset({0, 1}), frozenset({2})))
    report = fairness_report(inst, alloc, list(Criterion))
    for crit in Criterion:
        assert report.alphas[crit] == 1
        assert report.witnesses[crit] is None
    assert report.mms_values[Criterion.MMS] == {1: 2}
    assert report.mms_values[Criterion.PMMS] == {(1, 0): 2}


def test_kernel_keeps_the_first_infinite_witness():
    inst = Instance(n=3, m=2, costs=(Additive((1, 1)),) * 3)
    alloc = Allocation((frozenset({0}), frozenset({1}), frozenset()))
    report = fairness_report(inst, alloc, (Criterion.EF,))
    assert report.alphas[Criterion.EF] == INFINITY
    assert report.witnesses[Criterion.EF] == {"agent": 0, "against": 2, "chore": None}


def test_kernel_efx_without_a_positive_chore_is_vacuous():
    # c({0}) = c({1}) = 0 < c({0, 1}) = 1: no chore has a positive cost alone.
    table = TableCost.from_subsets(2, {frozenset(): 0, frozenset({0}): 0, frozenset({1}): 0, frozenset({0, 1}): 1})
    inst = Instance(n=2, m=2, costs=(table, table))
    alloc = Allocation((frozenset({0, 1}), frozenset()))
    report = fairness_report(inst, alloc, (Criterion.EF, Criterion.EFX, Criterion.EFX_STRONG))
    assert report.alphas[Criterion.EF] == INFINITY
    assert report.alphas[Criterion.EFX] == 1 and report.witnesses[Criterion.EFX] is None
    assert report.alphas[Criterion.EFX_STRONG] == 1


def test_kernel_keeps_the_first_of_equal_ratios():
    # Agent 0 needs 2/1 against agent 1; agent 1 needs 4/3 over 2/3, the same
    # ratio as 4/2 over its own denominator 3. Agent 0 against 1 comes first.
    inst = Instance(n=2, m=2, costs=(Additive((2, 1)), Additive((Fraction(2, 3), Fraction(4, 3)))))
    alloc = Allocation((frozenset({0}), frozenset({1})))
    report = fairness_report(inst, alloc, (Criterion.EF,))
    assert report.alphas[Criterion.EF] == 2
    assert report.witnesses[Criterion.EF] == {"agent": 0, "against": 1, "chore": None}
    # Within one agent, the first of two equal envies wins as well.
    inst = Instance(n=3, m=4, costs=(Additive((1, 1, 1, 1)),) * 3)
    alloc = Allocation((frozenset({0, 1}), frozenset({2}), frozenset({3})))
    report = fairness_report(inst, alloc, (Criterion.EF,))
    assert report.witnesses[Criterion.EF] == {"agent": 0, "against": 1, "chore": None}


@pytest.mark.parametrize("crit", [Criterion.EF1, Criterion.EFX, Criterion.EFX_STRONG])
def test_additive_removal_scan_evaluates_no_bundle_less_a_chore(monkeypatch, crit):
    import chorefair.criteria as criteria

    seen: list[int] = []
    make = criteria.mask_evaluator

    def recording(fn):
        evaluate = make(fn)

        def record(mask):
            seen.append(mask)
            return evaluate(mask)

        return record

    monkeypatch.setattr(criteria, "mask_evaluator", recording)
    inst = random_instance(3, 12, "additive", seed=5)
    alloc = Allocation.from_assignment([e % 3 for e in range(12)], 3)  # four chores each
    report = fairness_report(inst, alloc, (crit,))
    assert report.alphas[crit] == _reference_min_alpha(inst, alloc.bundles, crit, {})[0]
    less_one = {mask ^ (1 << e) for mask in alloc.masks() for e in range(12) if mask >> e & 1}
    assert seen and not less_one.intersection(seen)


# -- guarantee table ---------------------------------------------------------


def test_guarantee_examples():
    assert implied_guarantee(Criterion.EF1, 1, Criterion.MMS, 4).value == Fraction(7, 4)
    assert implied_guarantee(Criterion.EFX, 1, Criterion.PMMS, 3).value == Fraction(4, 3)
    got = implied_guarantee(Criterion.PMMS, Fraction(3, 2), Criterion.MMS, 5, "submodular")
    assert got.value == Fraction(9, 2)


def test_guarantee_formulas_additive():
    a, n = Fraction(3, 2), 4
    assert implied_guarantee(Criterion.EF, a, Criterion.MMS, n).value == n * a / (n - 1 + a)
    assert implied_guarantee(Criterion.EF, a, Criterion.PMMS, n).value == 2 * a / (a + 1)
    assert implied_guarantee(Criterion.EFX, a, Criterion.EF1, n).value == a
    assert implied_guarantee(Criterion.EF1, a, Criterion.MMS, n).value == (n * a + n - 1) / (n - 1 + a)
    assert implied_guarantee(Criterion.EFX, a, Criterion.MMS, n).value == min(
        2 * n * a / (n - 1 + 2 * a), (n * a + n - 1) / (n - 1 + a)
    )
    assert implied_guarantee(Criterion.EFX, a, Criterion.PMMS, n).value == 4 * a / (2 * a + 1)
    assert implied_guarantee(Criterion.EF1, a, Criterion.PMMS, n).value == (2 * a + 1) / (a + 1)


def test_guarantee_pmms_to_mms_branches():
    assert implied_guarantee(Criterion.PMMS, 1, Criterion.MMS, 3).value == Fraction(4, 3)
    assert implied_guarantee(Criterion.PMMS, 1, Criterion.MMS, 6).value == Fraction(12, 7)
    a = Fraction(5, 4)
    expected = 3 * a / (a + 2 * (1 - a / 2))
    assert implied_guarantee(Criterion.PMMS, a, Criterion.MMS, 3).value == expected
    with pytest.raises(NotInTableError):
        implied_guarantee(Criterion.PMMS, Fraction(3, 2), Criterion.MMS, 3)
    with pytest.raises(NotInTableError):
        implied_guarantee(Criterion.PMMS, 1, Criterion.MMS, 2)


def test_guarantee_unbounded_and_trivial():
    assert implied_guarantee(Criterion.EF1, 1, Criterion.EFX, 3).kind == "unbounded"
    assert implied_guarantee(Criterion.PMMS, Fraction(3, 2), Criterion.EF1, 3).kind == "unbounded"
    assert implied_guarantee(Criterion.PMMS, 1, Criterion.EF1, 3).value == 1
    assert implied_guarantee(Criterion.MMS, 1, Criterion.PMMS, 3).kind == "trivial_only"
    assert implied_guarantee(Criterion.MMS, 1, Criterion.EF1, 3).kind == "unbounded"
    sub = implied_guarantee(Criterion.EFX, 1, Criterion.MMS, 4, "submodular")
    assert sub.kind == "trivial_only" and sub.value == 4
    sub2 = implied_guarantee(Criterion.EF1, 1, Criterion.PMMS, 4, "submodular")
    assert sub2.kind == "trivial_only" and sub2.value == 2
    assert implied_guarantee(Criterion.PMMS, 1, Criterion.EFX, 2, "submodular").kind == "unbounded"


def test_guarantee_validity_errors():
    with pytest.raises(NotInTableError):
        implied_guarantee(Criterion.PMMS, Fraction(5, 2), Criterion.EF1, 3)
    with pytest.raises(NotInTableError):
        implied_guarantee(Criterion.MMS, 1, Criterion.PMMS, 2)
    with pytest.raises(NotInTableError):
        implied_guarantee(Criterion.PMMS, Fraction(5, 2), Criterion.MMS, 4, "submodular")
    with pytest.raises(ArgumentError):
        implied_guarantee(Criterion.EF, Fraction(1, 2), Criterion.MMS, 3)
    with pytest.raises(ArgumentError):
        implied_guarantee(Criterion.EF, 1, Criterion.MMS, 1)
    with pytest.raises(ArgumentError, match="setting must be one of .*, got 'x'"):
        implied_guarantee(Criterion.EF, 1, Criterion.MMS, 3, "x")


def test_capped_cardinality_pmms_reference():
    fn = CappedCardinality(2)
    inst = Instance(n=2, m=3, costs=(fn, fn))
    alloc = Allocation((frozenset({0, 1, 2}), frozenset()))
    assert min_alpha(inst, alloc, Criterion.PMMS) == 1
    assert min_alpha(inst, alloc, Criterion.EF1) == INFINITY


def test_two_agent_mms_and_pmms_share_one_share_per_agent(monkeypatch):
    # With two agents the pairwise union is every chore, so PMMS asks for the
    # same half-split share as MMS: one ``mms_value`` call per agent with a
    # positive cost, and none for an agent whose bundle costs nothing.
    import chorefair.criteria as criteria

    calls: list[tuple[int, int]] = []

    def counted(inst, agent, k, chores=None):
        calls.append((agent, k))
        return mms_value(inst, agent, k, chores)

    inst = Instance(n=2, m=5, costs=(Additive((3, 1, 2, 2, 4)), Additive((1, 0, 5, 2, 2))))
    crits = (Criterion.MMS, Criterion.PMMS)
    for alloc, agents in (
        (Allocation((frozenset({0, 2}), frozenset({1, 3, 4}))), [0, 1]),
        (Allocation((frozenset({0, 2, 3, 4}), frozenset({1}))), [0]),
    ):
        alone = {crit: fairness_report(inst, alloc, (crit,)).alphas[crit] for crit in crits}
        calls.clear()
        monkeypatch.setattr(criteria, "mms_value", counted)
        report = fairness_report(inst, alloc, crits)
        monkeypatch.undo()
        assert sorted(calls) == [(agent, 2) for agent in agents]
        assert report.alphas == alone


@pytest.mark.parametrize("crit", [Criterion.EF1, Criterion.EFX])
def test_removal_alphas_on_additive_thirds_of_30000_chores_stay_small(crit):
    # Single-chore costs come from each additive agent's row, so the context
    # keeps no one-bit memo entry per chore: about 1.5 MB at peak, where
    # those entries took about 78 MB.
    m = 30_000
    inst = Instance(n=3, m=m, costs=tuple(Additive([1] * m) for _ in range(3)))
    alloc = Allocation(tuple(frozenset(range(i * m // 3, (i + 1) * m // 3)) for i in range(3)))
    tracemalloc.start()
    started = time.perf_counter()
    try:
        alpha = min_alpha(inst, alloc, crit)
        elapsed = time.perf_counter() - started
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert alpha == 1
    assert peak < 8_000_000, peak
    assert elapsed < 15, elapsed

"""Acceptance gate: one test per exit criterion, all checks exact.

Each test prints a single ``criterion-N PASS`` line with its runtime when it
completes (run pytest with ``-s`` or ``-rA`` to see them). Every asserted
constant was computed independently (brute-force search or closed-form
evaluation) before being frozen here.
"""

from __future__ import annotations

import time
from fractions import Fraction

from chorefair import (
    Additive,
    Allocation,
    Criterion,
    Instance,
    alg1_two_agent_ef1,
    best_fair_allocation,
    best_round_robin_order,
    fairness_report,
    implied_guarantee,
    make_family,
    min_alpha,
    mms_share,
    optimal_allocation,
    pmms32_two_agent,
    price_of_fairness,
    random_instance,
)
from chorefair.criteria import context_for
from chorefair.errors import ArgumentError, NotInTableError
from chorefair.search import (
    _lemma_instances,
    _scan_masks,
    verify_connections,
    verify_lemmas,
)

SEED = 20240517


def _done(name: str, started: float, detail: str = "") -> None:
    extra = f" {detail}" if detail else ""
    print(f"{name} PASS ({time.time() - started:.1f}s){extra}")


def test_criterion_1_reference_instance_reproduction(ref_instance, alloc_a, alloc_b):
    started = time.time()
    assert [mms_share(ref_instance, i, 3).value for i in range(3)] == [5, 7, 10]
    assert min_alpha(ref_instance, alloc_a, Criterion.EF) == 1
    report = fairness_report(ref_instance, alloc_b)
    assert report.alphas[Criterion.EF] == Fraction(7, 3)
    assert report.alphas[Criterion.EFX] == 2
    assert report.alphas[Criterion.EF1] == 1
    assert report.alphas[Criterion.MMS] == Fraction(7, 5)
    assert report.alphas[Criterion.PMMS] == Fraction(7, 5)
    assert time.time() - started < 1.0
    _done("criterion-1", started, "shares (5,7,10); B = (7/3, 2, 1, 7/5, 7/5)")


def test_criterion_2_lemma_suite():
    started = time.time()
    rows = verify_lemmas(count=1000, seed=SEED)
    failures = [row for row in rows if not row.passed]
    assert not failures, failures
    assert time.time() - started < 120
    _done("criterion-2", started, f"{len(rows)} lemma sweeps over 1000 instances")


def test_criterion_3_connection_tightness():
    started = time.time()
    rows = verify_connections(n_values=(2, 3, 4, 5), epsilon=Fraction(1, 1000))
    failures = [row for row in rows if not row.passed]
    assert not failures, failures[:5]

    # Named spot values.
    b = make_family("EF1_MMS_TIGHT", n=3, alpha=Fraction(2))
    assert min_alpha(b.instance, b.reference_allocation, Criterion.MMS) == 2
    b = make_family("EFX_PMMS_TIGHT", n=3, alpha=Fraction(1))
    assert min_alpha(b.instance, b.reference_allocation, Criterion.PMMS) == Fraction(4, 3)
    b = make_family("PMMS_MMS_N3_TIGHT")
    assert min_alpha(b.instance, b.reference_allocation, Criterion.MMS) == Fraction(4, 3)
    b = make_family("SUB_PMMS_MMS_TIGHT", n=4, alpha=Fraction(3, 2))
    assert min_alpha(b.instance, b.reference_allocation, Criterion.MMS) == 3
    assert time.time() - started < 300
    _done("criterion-3", started, f"{len(rows)} exact family checks")


def test_criterion_4_implication_soundness():
    started = time.time()
    criteria = (Criterion.EF, Criterion.EFX, Criterion.EF1, Criterion.MMS, Criterion.PMMS)
    checked = 0
    instances = 0
    for _, inst, alloc in _lemma_instances(1000, SEED):
        if not inst.is_additive():
            continue
        instances += 1
        alphas = {crit: min_alpha(inst, alloc, crit) for crit in criteria}
        for src in criteria:
            source_alpha = alphas[src]
            if source_alpha == float("inf"):
                continue
            for dst in criteria:
                if dst is src:
                    continue
                try:
                    guarantee = implied_guarantee(src, source_alpha, dst, inst.n, "additive")
                except (ArgumentError, NotInTableError):
                    continue
                if guarantee.kind in ("bound", "trivial_only"):
                    checked += 1
                    assert alphas[dst] <= guarantee.value, (
                        inst, alloc, src, dst, source_alpha, alphas[dst], guarantee,
                    )
    assert instances >= 400 and checked > 1000
    _done("criterion-4", started, f"{checked} finite table entries on {instances} additive instances")


def test_criterion_5_pmms_implies_efx():
    started = time.time()
    checked_allocations = 0
    for trial in range(200):
        n = 2 + trial % 2
        m = 4 + trial % 4
        inst = random_instance(n, m, "additive", seed=SEED + trial)
        ctx = context_for(inst)
        for masks in _scan_masks(inst.n, inst.m):
            pmms, _, _ = ctx.min_alpha_masks(masks, Criterion.PMMS)
            if pmms == 1:
                checked_allocations += 1
                efx, _, _ = ctx.min_alpha_masks(masks, Criterion.EFX)
                assert efx == 1, (inst, masks)
    assert checked_allocations > 0
    _done("criterion-5", started, f"{checked_allocations} exact-PMMS allocations, zero EFX violations")


def test_criterion_6_two_agent_ef1_algorithm():
    started = time.time()
    for trial in range(10000):
        inst = random_instance(2, 2 + trial % 9, "additive", seed=SEED + trial)
        outcome = alg1_two_agent_ef1(inst)
        assert min_alpha(inst, outcome.allocation, Criterion.EF1) == 1
        assert 4 * outcome.social_cost <= 5 * optimal_allocation(inst).social_cost

    bundle = make_family("POF_EF1_N2", epsilon=Fraction(1, 100))
    report = best_fair_allocation(bundle.instance, Criterion.EF1, 1)
    assert report.price == Fraction(253, 206)
    outcome = alg1_two_agent_ef1(bundle.instance)
    assert outcome.social_cost == report.best_fair_cost == Fraction(253, 300)
    assert time.time() - started < 300
    _done("criterion-6", started, "10000 EF1 runs; extremal price 253/206 matched by the algorithm")


def test_criterion_7_two_agent_pmms_constructor():
    started = time.time()
    for trial in range(10000):
        inst = random_instance(2, 2 + trial % 9, "additive", seed=SEED + 41 + trial)
        outcome = pmms32_two_agent(inst)
        assert min_alpha(inst, outcome.allocation, Criterion.PMMS) <= Fraction(3, 2)
        assert 6 * outcome.social_cost <= 7 * optimal_allocation(inst).social_cost

    eps = Fraction(1, 100)
    bundle = make_family("POF_PMMS32_N2", epsilon=eps)
    price = price_of_fairness(bundle.instance, Criterion.PMMS, Fraction(3, 2))
    # Exact value at this epsilon: (7/8) / (3/4 + eps) = 175/152.
    assert price == Fraction(7, 8) / (Fraction(3, 4) + eps) == Fraction(175, 152)
    assert time.time() - started < 600
    _done("criterion-7", started, "10000 3/2-PMMS runs; extremal price 175/152")


def test_criterion_8_price_table_at_desk_scale():
    started = time.time()
    eps = Fraction(1, 100)

    bundle = make_family("POF_PMMS_N2", epsilon=eps)
    for crit in (Criterion.PMMS, Criterion.MMS, Criterion.EFX):
        # Exact value at this epsilon: 1 / (1/2 + 2*eps) = 25/13.
        assert price_of_fairness(bundle.instance, crit, 1) == 1 / (Fraction(1, 2) + 2 * eps)

    # The price of 2-MMS is 1: the optimum itself always qualifies.
    for trial in range(2000):
        inst = random_instance(2, 2 + trial % 7, "additive", seed=SEED + 97 + trial)
        assert price_of_fairness(inst, Criterion.MMS, 2) == 1

    small = Fraction(1, 1000)
    bundle = make_family("POF_MMS_LB", n=4, epsilon=small)
    price = price_of_fairness(bundle.instance, Criterion.MMS, 1)
    # Exact value (1/2 + eps)/(1/4 + eps) = 501/251, approaching n/2 = 2 from below.
    assert price == (Fraction(1, 2) + small) / (Fraction(1, 4) + small) == Fraction(501, 251)
    assert price > Fraction(199, 100)

    bundle = make_family("POF_2MMS_LB", n=4, epsilon=small)
    price = price_of_fairness(bundle.instance, Criterion.MMS, 2)
    assert price == (Fraction(1, 3) + Fraction(1, 4) + 2 * small) / (Fraction(1, 2) + small)
    assert price >= Fraction(7, 6)

    bundle = make_family("POF_N3_UNBOUNDED", n=3, m=6, epsilon=small)
    price = price_of_fairness(bundle.instance, Criterion.PMMS, Fraction(3, 2))
    # Exact value (1/6 + 3*eps)/(5*eps) = 509/15; diverges as epsilon shrinks.
    assert price == (Fraction(1, 6) + 3 * small) / (5 * small) == Fraction(509, 15)
    tiny = Fraction(1, 4000)
    diverging = make_family("POF_N3_UNBOUNDED", n=3, m=6, epsilon=tiny)
    assert price_of_fairness(diverging.instance, Criterion.PMMS, Fraction(3, 2)) > 50

    sub_expect = {
        "SUB_POF_EFX": (Criterion.EFX, Fraction(1), (Fraction(3, 2) - eps) / (Fraction(1, 2) + 4 * eps)),
        "SUB_POF_EF1": (Criterion.EF1, Fraction(1), Fraction(4, 3) / (Fraction(2, 3) + 2 * eps)),
        "SUB_POF_PMMS": (Criterion.PMMS, Fraction(1), (Fraction(3, 2) - 2 * eps) / (Fraction(1, 2) + 11 * eps)),
        "SUB_POF_PMMS32": (Criterion.PMMS, Fraction(3, 2), 1 / (Fraction(3, 4) + 3 * eps)),
    }
    for family_id, (crit, level, expected) in sub_expect.items():
        fam = make_family(family_id, epsilon=eps)
        assert price_of_fairness(fam.instance, crit, level) == expected, family_id

    assert time.time() - started < 300
    _done("criterion-8", started, "exact prices incl. 2000-instance 2-MMS sweep")


def test_criterion_9_derandomized_round_robin_bound():
    started = time.time()
    for trial in range(200):
        inst = random_instance(3, 9, "additive", seed=SEED + 7000 + trial)
        assert best_round_robin_order(inst).social_cost <= 1
    assert time.time() - started < 120
    _done("criterion-9", started, "200 best-order searches, social cost <= 1")

"""Allocation procedures: optima, round robin, and the two-agent algorithms."""

from __future__ import annotations

from fractions import Fraction

import pytest

from chorefair import (
    Additive,
    Allocation,
    CappedCardinality,
    Criterion,
    Instance,
    alg1_two_agent_ef1,
    best_fair_allocation,
    best_round_robin_order,
    make_family,
    min_alpha,
    normalize,
    optimal_allocation,
    pmms32_two_agent,
    random_instance,
    round_robin,
    social_cost,
)
from chorefair import allocate
from chorefair.allocate import _ratio_key
from chorefair.errors import ArgumentError, PreconditionError, SizeGuardError
from test_allocator_traces import LABELS, cases


def test_optimal_reference(ref_instance):
    outcome = optimal_allocation(ref_instance)
    assert outcome.social_cost == 9
    assert outcome.trace[0]["op"] == "assign"


def test_optimal_single_agent():
    inst = Instance(n=1, m=3, costs=(Additive((1, 2, 3)),))
    outcome = optimal_allocation(inst)
    assert outcome.social_cost == 6
    assert outcome.allocation.bundles == (frozenset({0, 1, 2}),)


def test_optimal_ef1_price_family():
    bundle = make_family("POF_EF1_N2", epsilon=Fraction(1, 100))
    outcome = optimal_allocation(bundle.instance)
    assert outcome.social_cost == Fraction(2, 3) + Fraction(2, 100)


def test_optimal_general_path_matches_additive():
    for trial in range(40):
        inst = random_instance(2, 6, "additive", seed=trial)
        fast = optimal_allocation(inst).social_cost
        # force the general enumeration by wrapping one agent's costs
        from chorefair import CappedAdditive

        costs = (inst.costs[0], CappedAdditive(inst.costs[1].values, Fraction(10)))
        slow = optimal_allocation(Instance(n=2, m=6, costs=costs)).social_cost
        assert fast == slow  # the cap never binds, so the optima agree


def test_optimal_general_guard():
    inst = Instance(n=5, m=12, costs=(CappedCardinality(3),) * 5)
    with pytest.raises(SizeGuardError):
        optimal_allocation(inst)


def test_round_robin_hand_simulation():
    inst = Instance(n=2, m=3, costs=(Additive((3, 2, 1)), Additive((1, 2, 3))))
    outcome = round_robin(inst, (0, 1))
    # agent 0 takes chore 2, agent 1 takes chore 0, agent 0 takes chore 1
    assert outcome.allocation.bundles == (frozenset({1, 2}), frozenset({0}))
    picks = [(t["agent"], t["chore"]) for t in outcome.trace if t["op"] == "pick"]
    assert picks == [(0, 2), (1, 0), (0, 1)]


def test_round_robin_identical_costs_one_each():
    inst = Instance(n=3, m=3, costs=(Additive((1, 1, 1)),) * 3)
    outcome = round_robin(inst)
    assert all(len(b) == 1 for b in outcome.allocation.bundles)


def test_round_robin_always_ef1():
    for trial in range(300):
        n = 2 + trial % 3
        inst = random_instance(n, 3 + trial % 6, "additive", seed=trial)
        outcome = round_robin(inst, tuple(reversed(range(n))))
        assert min_alpha(inst, outcome.allocation, Criterion.EF1) == 1


def test_round_robin_is_three_halves_pmms():
    for trial in range(150):
        inst = random_instance(3, 6, "additive", seed=trial + 2000)
        outcome = round_robin(inst)
        assert min_alpha(inst, outcome.allocation, Criterion.PMMS) <= Fraction(3, 2)


def test_round_robin_validation(ref_instance):
    with pytest.raises(ArgumentError):
        round_robin(ref_instance, (0, 1))
    inst = Instance(n=1, m=2, costs=(CappedCardinality(1),))
    with pytest.raises(PreconditionError):
        round_robin(inst)


@pytest.mark.parametrize("order", [(True, False), (0, "a"), (0, 1.0), (0, None)])
def test_round_robin_rejects_non_int_order_entries(order):
    inst = normalize(Instance(n=2, m=3, costs=(Additive((1, 2, 3)), Additive((3, 2, 1)))))
    with pytest.raises(ArgumentError, match=r"order must be a permutation of 0\.\.1, got "):
        round_robin(inst, order)


def test_best_round_robin_order_requires_normalized():
    inst = Instance(n=2, m=2, costs=(Additive((1, 1)), Additive((1, 1))))
    with pytest.raises(PreconditionError):
        best_round_robin_order(inst)
    assert best_round_robin_order(normalize(inst)).social_cost <= 1


def test_best_round_robin_order_single_agent():
    inst = normalize(Instance(n=1, m=2, costs=(Additive((1, 3)),)))
    assert best_round_robin_order(inst).social_cost == 1


def test_best_round_robin_order_agent_guard():
    inst = normalize(Instance(n=9, m=9, costs=(Additive((1,) * 9),) * 9))
    with pytest.raises(SizeGuardError):
        best_round_robin_order(inst)


def test_best_round_robin_order_cost_at_most_one():
    for trial in range(60):
        inst = random_instance(3, 9, "additive", seed=trial)
        assert best_round_robin_order(inst).social_cost <= 1


def test_best_round_robin_order_on_extremal_share_instance():
    bundle = make_family("POF_2MMS_LB", n=4, epsilon=Fraction(1, 1000))
    assert best_round_robin_order(bundle.instance).social_cost <= 1


def test_additive_only_procedures_refuse_a_non_additive_cost():
    # Two agents, one with a capped-cardinality cost: each procedure refuses
    # the instance and names itself in the message.
    inst = Instance(n=2, m=3, costs=(CappedCardinality(2), Additive((1, 1, 1))))
    refusals = [
        (best_round_robin_order, "round robin requires additive cost functions"),
        (alg1_two_agent_ef1, "the two-agent EF1 algorithm requires additive cost functions"),
        (pmms32_two_agent, "the two-agent 3/2-PMMS constructor requires additive cost functions"),
    ]
    for procedure, message in refusals:
        with pytest.raises(PreconditionError) as refused:
            procedure(inst)
        assert str(refused.value) == f"precondition-failed: {message}"


# -- two-agent EF1 at price <= 5/4 -------------------------------------------


def test_alg1_price_family_trace():
    bundle = make_family("POF_EF1_N2", epsilon=Fraction(1, 100))
    outcome = alg1_two_agent_ef1(bundle.instance)
    assert outcome.social_cost == Fraction(5, 6) + Fraction(1, 100)
    assert min_alpha(bundle.instance, outcome.allocation, Criterion.EF1) == 1
    cases = [t["case"] for t in outcome.trace if t["op"] == "branch"]
    assert cases == ["shifted_split"]
    indices = {t["name"]: t["value"] for t in outcome.trace if t["op"] == "index"}
    assert indices["s"] == 1 and indices["f"] == 1


def test_alg1_identical_costs_takes_round_robin_branch():
    inst = normalize(Instance(n=2, m=4, costs=(Additive((1, 2, 3, 4)),) * 2))
    outcome = alg1_two_agent_ef1(inst)
    cases = [t["case"] for t in outcome.trace if t["op"] == "branch"]
    assert cases[0] == "round_robin"
    assert min_alpha(inst, outcome.allocation, Criterion.EF1) == 1


def test_alg1_preconditions():
    inst = Instance(n=2, m=2, costs=(Additive((1, 1)), Additive((2, 0))))
    with pytest.raises(PreconditionError):
        alg1_two_agent_ef1(inst)
    outcome = alg1_two_agent_ef1(inst, normalize_input=True)
    norm = normalize(inst)
    assert min_alpha(norm, outcome.allocation, Criterion.EF1) == 1


def test_alg1_sweep_ef1_and_price():
    for trial in range(1500):
        inst = random_instance(2, 2 + trial % 9, "additive", seed=trial)
        outcome = alg1_two_agent_ef1(inst)  # postconditions asserted internally
        opt = optimal_allocation(inst).social_cost
        assert min_alpha(inst, outcome.allocation, Criterion.EF1) == 1
        assert 4 * outcome.social_cost <= 5 * opt


def test_alg1_never_beats_brute_force_but_matches_bound():
    for trial in range(60):
        inst = random_instance(2, 6, "additive", seed=trial + 31)
        outcome = alg1_two_agent_ef1(inst)
        report = best_fair_allocation(inst, Criterion.EF1, 1)
        assert report.best_fair_cost <= outcome.social_cost


# -- two-agent 3/2-PMMS at price <= 7/6 --------------------------------------


def test_pmms32_price_family():
    bundle = make_family("POF_PMMS32_N2", epsilon=Fraction(1, 100))
    outcome = pmms32_two_agent(bundle.instance)
    assert outcome.social_cost == Fraction(7, 8)
    assert min_alpha(bundle.instance, outcome.allocation, Criterion.PMMS) <= Fraction(3, 2)


def test_pmms32_early_exit_when_optimal_is_fair():
    inst = Instance(
        n=2,
        m=2,
        costs=(
            Additive((Fraction(1, 2), Fraction(1, 2))),
            Additive((Fraction(1, 4), Fraction(3, 4))),
        ),
    )
    # Chore 0 goes to agent 1 and chore 1 to agent 0 is not optimal; the
    # optimum gives chore 0 to agent 1 (1/4) and chore 1 to agent 0 (1/2),
    # which is already within 3/2 of both half-split shares.
    outcome = pmms32_two_agent(inst)
    labels = [t["label"] for t in outcome.trace if t["op"] == "case"]
    assert labels == ["optimal_already_fair"]
    assert outcome.social_cost == optimal_allocation(inst).social_cost


def test_pmms32_preconditions(ref_instance):
    with pytest.raises(PreconditionError):
        pmms32_two_agent(ref_instance)


def test_pmms32_sweep():
    for trial in range(1500):
        inst = random_instance(2, 2 + trial % 9, "additive", seed=trial + 77)
        outcome = pmms32_two_agent(inst)  # postconditions asserted internally
        opt = optimal_allocation(inst).social_cost
        assert min_alpha(inst, outcome.allocation, Criterion.PMMS) <= Fraction(3, 2)
        assert 6 * outcome.social_cost <= 7 * opt


def test_two_agent_procedures_build_one_context_and_no_second_optimum(monkeypatch):
    import chorefair.allocate as allocate
    import chorefair.criteria as criteria

    calls = {"optimal": 0, "context": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    contexts = counted("context", criteria.context_for)
    monkeypatch.setattr(criteria, "context_for", contexts)
    monkeypatch.setattr(allocate, "context_for", contexts, raising=False)
    monkeypatch.setattr(allocate, "optimal_allocation", counted("optimal", allocate.optimal_allocation))
    inst = make_family("POF_EF1_N2", epsilon=Fraction(1, 100)).instance
    alg1_two_agent_ef1(inst)
    assert calls == {"optimal": 0, "context": 1}
    calls.update(optimal=0, context=0)
    pmms32_two_agent(inst)
    assert calls == {"optimal": 0, "context": 1}


def test_social_cost_matches_outcomes(ref_instance, alloc_b):
    assert social_cost(ref_instance, alloc_b) == 7 + 3 + 10


def test_two_agent_algorithms_on_exhaustive_value_grid():
    # Every normalized 2-agent, 3-chore instance with raw values in {0, 1, 2}:
    # heavy in ties and zeros, exactly where the index rules are delicate.
    import itertools

    checked = 0
    for c1 in itertools.product((0, 1, 2), repeat=3):
        for c2 in itertools.product((0, 1, 2), repeat=3):
            if sum(c1) == 0 or sum(c2) == 0:
                continue
            inst = normalize(
                Instance(
                    n=2,
                    m=3,
                    costs=(
                        Additive(tuple(Fraction(v) for v in c1)),
                        Additive(tuple(Fraction(v) for v in c2)),
                    ),
                )
            )
            alg1_two_agent_ef1(inst)  # postconditions asserted internally
            start = pmms32_two_agent(inst).trace[0]
            assert start == {"op": "optimal", "assignment": list(optimal_allocation(inst).allocation.assignment(3))}
            checked += 1
    assert checked == 676


def test_optimal_allocation_agrees_with_enumeration():
    from chorefair import INFINITY

    for trial in range(30):
        inst = random_instance(2 + trial % 2, 5, "additive", seed=trial + 811)
        report = best_fair_allocation(inst, Criterion.EF, INFINITY)
        assert optimal_allocation(inst).social_cost == report.opt_cost


def test_ratio_key_orders_every_ratio_of_bounded_costs():
    # Every ratio a/b with a, b <= scale, zero included: the keys keep the
    # exact order, Farey neighbours at the bound too, and equal ratios share a key.
    for scale in (1, 2, 7, 36, 41):
        ratios = sorted({Fraction(a, b) for a in range(scale + 1) for b in range(1, scale + 1)})
        keys = {r: _ratio_key(r.numerator, r.denominator, scale) for r in ratios}
        assert list(keys.values()) == sorted(set(keys.values())), scale
        for a in range(scale + 1):
            for b in range(1, scale + 1):
                assert _ratio_key(a, b, scale) == keys[Fraction(a, b)]


def _farey_instances():
    """Normalized two-agent instances whose chores hold Farey neighbours at the bound.

    Costs are integers over ``scale``. Chores (a, b) and (c, d) have
    |bc - ad| = 1, so their ratios differ by 1 / bd, with b + d = scale - 2
    or, with a second chore of ratio a/b, 2b + d = scale - 2. A chore free for
    each agent and one last chore make each agent's costs sum to scale. Each
    instance comes with the two neighbours in both chore orders and with the
    agents in both orders, so ratios above 1 occur as well.
    """
    for scale in (31, 64, 97):
        pairs = [(b, scale - 2 - b, False) for b in range(scale // 4, scale // 2)]
        pairs += [(b, scale - 2 - 2 * b, True) for b in range(scale // 6, scale // 3)]
        for b, d, twice in pairs:
            for a in range(1, b):
                for sign in (1, -1):
                    c, r = divmod(a * d + sign, b)  # bc - ad = sign
                    if r or not 0 < c < d:
                        continue
                    for near in ([(a, b), (c, d)], [(c, d), (a, b)]):
                        chores = near + [(1, 0), (0, 1)] + [(a, b)] * twice
                        rest = (scale - sum(x for x, _ in chores), scale - sum(y for _, y in chores))
                        if min(rest) < 0:
                            continue
                        rows = [[Fraction(x, scale) for x in row] for row in zip(*chores, rest)]
                        for agents in (rows, rows[::-1]):
                            yield Instance(n=2, m=len(rows[0]), costs=tuple(map(Additive, agents)))


def test_two_agent_procedures_sort_as_the_fraction_key_does(monkeypatch):
    insts = list(_farey_instances())
    assert len(insts) > 200
    exact = {}
    for key in ("integer", "fraction", "coarse"):
        if key == "fraction":
            monkeypatch.setattr(allocate, "_ratio_key", lambda a, b, scale: Fraction(a, b))
        elif key == "coarse":  # scale in place of scale**2: Farey neighbours collide
            monkeypatch.setattr(allocate, "_ratio_key", lambda a, b, scale: a * scale // b)
        exact[key] = [(alg1_two_agent_ef1(inst), pmms32_two_agent(inst)) for inst in insts]
    assert exact["integer"] == exact["fraction"]
    sorts = {key: [next(s for s in alg1.trace if s["op"] == "sort") for alg1, _ in exact[key]] for key in exact}
    assert sorts["coarse"] != sorts["fraction"]


def test_two_agent_procedures_build_fractions_only_for_reported_values(monkeypatch):
    # Sorting, the fairness check and the price check run on integers: the only
    # Fractions built are the social cost and each trace entry's cost, plus the
    # round-robin outcome's social cost when alg1 takes that branch.
    built = []

    class Counted(Fraction):
        def __new__(cls, *args, **kwargs):
            built.append(args)
            return super().__new__(cls, *args, **kwargs)

    monkeypatch.setattr(allocate, "Fraction", Counted)
    insts = [inst for _, inst in cases() if inst.n == 2]
    insts += [random_instance(2, 2 + seed % 9, "additive", seed=seed) for seed in range(60)]
    branches = set()
    for inst in insts:
        for algo in (alg1_two_agent_ef1, pmms32_two_agent):
            built.clear()
            out = algo(inst)
            taken = [step.get("case") or step.get("label") for step in out.trace if step["op"] in ("branch", "case")]
            branches.update(taken)
            reported = 1 + sum("cost" in step for step in out.trace) + ("round_robin" in taken)
            assert len(built) == reported, (algo.__name__, inst, built)
    assert branches == set(LABELS)

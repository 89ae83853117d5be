"""Metamorphic relations of the exact oracle, over every cost variant.

No reference implementation is needed: each test transforms an instance in
a way whose effect on the results is known from the definitions, and
compares the two runs.

- Scaling one agent's cost by a positive rational leaves every minimal
  alpha unchanged and scales that agent's maximin shares.
- Relabelling the chores, with the allocation relabelled to match, leaves
  the minimal alphas, the optimal cost and the cheapest fair cost unchanged.
- Relabelling the agents permutes the per-agent shares and bundle costs.

Instances have 2-4 agents and 2-7 chores; table costs appear only up to 6
chores.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from chorefair import (
    Additive,
    Allocation,
    CappedAdditive,
    CappedCardinality,
    Criterion,
    Instance,
    RowCoverage,
    TableCost,
    best_fair_allocation,
    min_alpha,
    mms_value,
    optimal_allocation,
)

SETTINGS = settings(
    max_examples=80, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
MAX_TABLE_M = 6
RATIONALS = st.builds(Fraction, st.integers(0, 6), st.integers(1, 3))
FACTORS = st.builds(Fraction, st.integers(1, 12), st.integers(1, 12))
ALPHAS = st.sampled_from([Fraction(1), Fraction(3, 2), Fraction(2)])


@st.composite
def costs(draw, m: int):
    kinds = ["additive", "capped_additive", "capped_cardinality", "row_coverage"]
    if m <= MAX_TABLE_M:
        kinds.append("table")
    kind = draw(st.sampled_from(kinds))
    if kind == "additive":
        return Additive(tuple(draw(RATIONALS) for _ in range(m)))
    if kind == "capped_additive":
        cap = draw(st.builds(Fraction, st.integers(1, 12), st.integers(1, 3)))
        return CappedAdditive(tuple(draw(RATIONALS) for _ in range(m)), cap)
    if kind == "capped_cardinality":
        return CappedCardinality(draw(st.integers(1, m)))
    if kind == "row_coverage":
        labels = [draw(st.integers(0, m - 1)) for _ in range(m)]
        rows = tuple(tuple(e for e in range(m) if labels[e] == g) for g in sorted(set(labels)))
        return RowCoverage(rows, tuple(draw(RATIONALS) for _ in rows))
    # A monotone table: each subset costs at least as much as its subsets.
    values = [0] * (1 << m)
    for mask in range(1, 1 << m):
        below = max(values[mask & ~(1 << e)] for e in range(m) if mask >> e & 1)
        values[mask] = below + draw(st.integers(0, 3))
    return TableCost(m=m, values=tuple(values))


@st.composite
def cases(draw):
    """An instance and an allocation of it."""
    n, m = draw(st.integers(2, 4)), draw(st.integers(2, 7))
    inst = Instance(n=n, m=m, costs=tuple(draw(costs(m)) for _ in range(n)))
    owners = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    return inst, Allocation.from_assignment(owners, n)


def _alphas(inst: Instance, alloc: Allocation) -> list:
    return [min_alpha(inst, alloc, crit) for crit in Criterion]


def _relabel_chores(fn, perm: list[int]):
    """``fn`` with chore e renamed ``perm[e]``, in the same variant."""
    m = len(perm)
    if fn.kind == "additive":
        return Additive(tuple(fn.values[perm.index(e)] for e in range(m)))
    if fn.kind == "capped_additive":
        return CappedAdditive(tuple(fn.values[perm.index(e)] for e in range(m)), fn.cap)
    if fn.kind == "capped_cardinality":
        return fn
    if fn.kind == "row_coverage":
        return RowCoverage(tuple(tuple(perm[e] for e in row) for row in fn.rows), fn.weights)
    table = [Fraction(0)] * (1 << m)
    for mask in range(1 << m):
        chores = [e for e in range(m) if mask >> e & 1]
        table[sum(1 << perm[e] for e in chores)] = fn.value(chores)
    return TableCost(m=m, values=tuple(table))


@SETTINGS
@given(cases(), st.data())
def test_scaling_an_agent_keeps_alphas_and_scales_its_shares(case, data):
    inst, alloc = case
    scalable = [i for i, fn in enumerate(inst.costs) if fn.kind in ("additive", "capped_additive", "row_coverage")]
    if not scalable:
        return
    agent = data.draw(st.sampled_from(scalable))
    factor = data.draw(FACTORS)
    scaled_costs = list(inst.costs)
    scaled_costs[agent] = scaled_costs[agent].scaled(factor)
    scaled = Instance(n=inst.n, m=inst.m, costs=tuple(scaled_costs))
    assert _alphas(scaled, alloc) == _alphas(inst, alloc)
    for k in range(1, inst.n + 1):
        assert mms_value(scaled, agent, k).value == factor * mms_value(inst, agent, k).value


@SETTINGS
@given(cases(), st.permutations(range(7)), st.sampled_from(list(Criterion)), ALPHAS)
def test_relabelling_chores_keeps_alphas_and_costs(case, perm7, crit, alpha):
    inst, alloc = case
    perm = [e for e in perm7 if e < inst.m]
    relabelled = Instance(n=inst.n, m=inst.m, costs=tuple(_relabel_chores(fn, perm) for fn in inst.costs))
    moved = Allocation(tuple(frozenset(perm[e] for e in bundle) for bundle in alloc.bundles))
    for i in range(inst.n):
        assert relabelled.cost(i, moved.bundles[i]) == inst.cost(i, alloc.bundles[i])
    assert _alphas(relabelled, moved) == _alphas(inst, alloc)
    assert optimal_allocation(relabelled).social_cost == optimal_allocation(inst).social_cost
    before, after = best_fair_allocation(inst, crit, alpha), best_fair_allocation(relabelled, crit, alpha)
    assert (after.fair_exists, after.best_fair_cost, after.opt_cost) == (
        before.fair_exists,
        before.best_fair_cost,
        before.opt_cost,
    )


@SETTINGS
@given(cases(), st.permutations(range(4)))
def test_relabelling_agents_permutes_shares(case, perm4):
    inst, alloc = case
    order = [i for i in perm4 if i < inst.n]  # new agent j is old agent order[j]
    relabelled = Instance(n=inst.n, m=inst.m, costs=tuple(inst.costs[i] for i in order))
    moved = Allocation(tuple(alloc.bundles[i] for i in order))
    assert _alphas(relabelled, moved) == _alphas(inst, alloc)
    for j, i in enumerate(order):
        assert relabelled.cost(j, moved.bundles[j]) == inst.cost(i, alloc.bundles[i])
        for k in range(1, inst.n + 1):
            assert mms_value(relabelled, j, k).value == mms_value(inst, i, k).value

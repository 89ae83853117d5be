"""Maximin-share engine: enumeration oracle, fast paths, the pairwise share."""

from __future__ import annotations

import heapq
import math
import pickle
import random
import re
import time
from fractions import Fraction

import pytest

from chorefair import (
    Additive,
    Allocation,
    CappedAdditive,
    CappedCardinality,
    Criterion,
    Instance,
    MmsResult,
    RowCoverage,
    TableCost,
    best_fair_allocation,
    fairness_report,
    mms_share,
    mms_value,
    pairwise_mms,
    pmms32_two_agent,
    random_instance,
)
from chorefair.criteria import InstanceContext
from chorefair.errors import ArgumentError, BoundsError, SizeGuardError, ValidationError
from chorefair import mms, model
from chorefair.mms import _enumerate_partitions, _lpt, _min_max_partition, _waterfill
from chorefair.model import MAX_CHORES, check_monotone, set_of
from test_oracle import VARIANTS, _random_cost, _random_monotone_table


def test_reference_shares(ref_instance):
    assert [mms_share(ref_instance, i, 3).value for i in range(3)] == [5, 7, 10]


def test_reference_share_witness_agent_two(ref_instance):
    result = mms_share(ref_instance, 1, 3)
    assert result.value == 7
    costs = sorted(ref_instance.cost(1, block) for block in result.witness)
    assert max(costs) == 7
    union = frozenset().union(*result.witness)
    assert union == frozenset(range(7))


def test_k1_is_total_cost(ref_instance):
    result = mms_share(ref_instance, 0, 1)
    assert result.value == ref_instance.cost(0, range(7)) == 15
    assert result.witness == (frozenset(range(7)),)


def test_one_block_is_the_whole_set_without_a_subset_table(monkeypatch):
    rng = random.Random(1)
    weights = [rng.randint(0, 9) for _ in range(14)]
    values = [0]
    for w in weights:
        values += [v + w for v in values]
    inst = Instance(n=1, m=14, costs=(TableCost(m=14, values=values),))

    def no_table(self, elems):
        raise AssertionError("a subset table built for one block")

    monkeypatch.setattr(TableCost, "int_table", no_table)
    for share in (mms_share, mms_value):
        result = share(inst, 0, 1)
        assert (result.value, result.witness) == (sum(weights), (frozenset(range(14)),))
    empty = mms_share(inst, 0, 1, [])
    assert (empty.value, empty.witness) == (0, (frozenset(),))


def test_k_at_least_set_size_gives_max_single(ref_instance):
    result = mms_value(ref_instance, 2, 8, range(7))
    assert result.value == 10  # costliest single chore


def test_empty_set():
    inst = Instance(n=1, m=0, costs=(Additive(()),))
    result = mms_share(inst, 0, 3)
    assert result.value == 0
    assert result.witness == (frozenset(),) * 3


def test_witness_invariants(ref_instance):
    for k in (1, 2, 3, 4):
        result = mms_share(ref_instance, 0, k)
        blocks = result.witness
        assert len(blocks) == k
        assert frozenset().union(*blocks) == frozenset(range(7))
        assert sum(len(b) for b in blocks) == 7  # disjoint
        assert max(ref_instance.cost(0, b) for b in blocks) == result.value


def test_enumeration_guards(ref_instance):
    fifteen = Instance(n=1, m=15, costs=(Additive((1,) * 15),))
    with pytest.raises(SizeGuardError):
        mms_share(fifteen, 0, 2)
    # One block is the whole set, read with no subset table at any chore count.
    assert mms_share(fifteen, 0, 1).value == 15
    # No block guard: a partition of 7 chores opens at most 7 blocks, so any
    # k is answered, its witness padded to k blocks.
    for k in (7, mms.MAX_BLOCKS):
        share = mms_share(ref_instance, 0, k)
        assert share.value == mms_value(ref_instance, 0, k).value
        assert len(share.witness) == k
    with pytest.raises(ArgumentError):
        mms_share(ref_instance, 0, 0)


def test_k_past_max_blocks_is_refused(ref_instance):
    with pytest.raises(SizeGuardError, match="partition size k limited to 1000000, got 1000001$"):
        mms_value(ref_instance, 0, mms.MAX_BLOCKS + 1)


def _popcount_table(m):
    return Instance(n=1, m=m, costs=(TableCost(m=m, values=tuple(s.bit_count() for s in range(1 << m))),))


def test_mms_value_refuses_a_table_past_the_enumeration_guards():
    # A table share of 15 chores at k = 3 goes to enumeration, which refuses it at every k but 1.
    with pytest.raises(SizeGuardError) as caught:
        mms_value(_popcount_table(15), 0, 3)
    assert str(caught.value) == "size-guard-exceeded: partition enumeration limited to 14 chores, got 15 chores"


def test_one_block_share_of_a_table_past_the_enumeration_guard_is_its_total():
    assert mms_value(_popcount_table(15), 0, 1) == MmsResult(value=Fraction(15), witness=(frozenset(range(15)),))


def test_split_scan_refuses_past_its_own_guard(monkeypatch):
    # A table share at k = 2 is the split scan's alone: its guard and its message.
    monkeypatch.setattr(mms, "PAIRWISE_MAX_CHORES", 4)
    assert mms_value(_popcount_table(5), 0, 2, range(4)).value == 2
    with pytest.raises(SizeGuardError) as caught:
        mms_value(_popcount_table(5), 0, 2)
    assert str(caught.value) == "size-guard-exceeded: two-way split scan limited to 4 chores, got 5 chores"


def test_bool_agent_and_k_are_rejected(ref_instance):
    # bool is an int subclass: True would otherwise answer for agent 1 or k = 1.
    for solve in (mms_value, mms_share):
        with pytest.raises(BoundsError, match=f"agent index True out of range for n={ref_instance.n}"):
            solve(ref_instance, True, 2)
        with pytest.raises(ArgumentError, match="partition size k must be an integer >= 1, got True"):
            solve(ref_instance, 0, True)
    with pytest.raises(BoundsError, match="agent index False out of range"):
        pairwise_mms(ref_instance, False, {0}, {1})


@pytest.mark.parametrize("chore", [True, 1.5, "a", [0]], ids=["bool", "float", "str", "list"])
@pytest.mark.parametrize(
    "query",
    [
        lambda inst, chores: mms_value(inst, 0, 2, chores),
        lambda inst, chores: mms_share(inst, 0, 2, chores),
        lambda inst, chores: pairwise_mms(inst, 0, chores, {2}),
    ],
    ids=["mms_value", "mms_share", "pairwise_mms"],
)
def test_non_int_chores_are_rejected(ref_instance, query, chore):
    # bool is an int subclass: True would otherwise answer as chore 1.
    with pytest.raises(ValidationError, match=re.escape(f"chore index must be an int, got {chore!r}")):
        query(ref_instance, [chore])


def test_an_additive_share_past_64_chores_is_the_capped_at_total_share():
    values = [1 + (7 * e) % 20 for e in range(65)]
    inst = Instance(n=1, m=65, costs=(Additive(values),))
    for k in (2, 3):
        assert mms_value(inst, 0, k).value == mms_value(_capped_at_total(values), 0, k).value


def test_an_additive_share_past_8_blocks_is_the_capped_at_total_share(ref_instance):
    for agent, fn in enumerate(ref_instance.costs):
        share = mms_value(ref_instance, agent, 9).value
        assert share == mms_value(_capped_at_total(fn.values), 0, 9).value == max(fn.values)


def test_an_additive_share_of_no_chores_is_zero_at_k_9(ref_instance):
    result = mms_value(ref_instance, 0, 9, ())
    assert result.value == 0
    assert result.witness == (frozenset(),) * 9


def test_pairwise_reference_values(ref_instance):
    # Agent 0 over bundles {0,4,6} and {2}.
    assert pairwise_mms(ref_instance, 0, {0, 4, 6}, {2}).value == 5
    assert pairwise_mms(ref_instance, 0, set(), set()).value == 0


def test_pairwise_capped_cardinality():
    inst = Instance(n=1, m=3, costs=(CappedCardinality(2),))
    assert pairwise_mms(inst, 0, {0, 1}, {2}).value == 2


def test_grouped_capped_cardinality_at_the_chore_guard():
    # One witness block per group used to be grown by one frozenset union per
    # group, which took tens of seconds at this size.
    m = MAX_CHORES
    inst = Instance(n=2, m=m, costs=(CappedCardinality(m), CappedCardinality(3)))
    start = time.perf_counter()
    results = [mms_value(inst, agent, 2) for agent in range(2)]
    assert time.perf_counter() - start < 5
    assert [r.value for r in results] == [m // 2, 3]
    for result in results:
        assert result.witness == (frozenset(range(0, m, 2)), frozenset(range(1, m, 2)))


def test_pairwise_rejects_overlap(ref_instance):
    with pytest.raises(ArgumentError):
        pairwise_mms(ref_instance, 0, {0, 1}, {1, 2})


def test_pairwise_answers_a_24_chore_additive_union():
    # The union is answered by mms_value's grouped route; no split scan caps it at 20 chores.
    rng = random.Random(3)
    inst = Instance(n=1, m=24, costs=(Additive(tuple(rng.randint(1, 40) for _ in range(24))),))
    result = pairwise_mms(inst, 0, range(12), range(12, 24))
    assert result.value == 291
    assert result == mms_value(inst, 0, 2)
    assert frozenset().union(*result.witness) == frozenset(range(24))
    assert max(inst.cost(0, block) for block in result.witness) == 291


@pytest.mark.parametrize("kind", VARIANTS)
def test_pairwise_is_the_k2_share_of_the_union(kind):
    # Value and witness are mms_value's; the value is the enumeration's and
    # the one the criteria kernel reports for PMMS.
    rng = random.Random(f"pairwise-{kind}")
    checked = 0
    for _ in range(40):
        n, m = rng.randint(2, 3), rng.randint(1, 7)
        inst = Instance(n=n, m=m, costs=tuple(_random_cost(kind, m, rng)[0] for _ in range(n)))
        alloc = Allocation.from_assignment([rng.randrange(n) for _ in range(m)], n)
        bundles = alloc.bundles
        pmms = fairness_report(inst, alloc, (Criterion.PMMS,)).mms_values[Criterion.PMMS]
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                union = bundles[i] | bundles[j]
                result = pairwise_mms(inst, i, bundles[i], bundles[j])
                assert result == mms_value(inst, i, 2, union), (kind, inst, bundles, i, j)
                assert result.value == mms_share(inst, i, 2, union).value
                if (i, j) in pmms:
                    assert result.value == pmms[i, j]
                    checked += 1
    assert checked


def test_fast_path_matches_enumeration_on_random_instances():
    rng = random.Random(11)
    for trial in range(1000):
        m = rng.randint(1, 10)
        k = rng.randint(1, 4)
        values = tuple(Fraction(rng.randint(0, 12), rng.randint(1, 4)) for _ in range(m))
        inst = Instance(n=1, m=m, costs=(Additive(values),))
        subset = frozenset(e for e in range(m) if rng.random() < 0.8)
        slow = mms_share(inst, 0, k, subset)
        fast = mms_value(inst, 0, k, subset)
        assert slow.value == fast.value, (trial, values, subset, k)
        # the fast witness is a genuine witness for the same optimum
        assert max(
            (inst.cost(0, b) for b in fast.witness), default=Fraction(0)
        ) == fast.value


def test_dispatcher_matches_enumeration_on_all_variants():
    rng = random.Random(23)
    for trial in range(200):
        n, m = rng.randint(1, 3), rng.randint(1, 7)
        setting = "additive" if trial % 2 else "submodular"
        inst = random_instance(n, m, setting, seed=trial)
        agent = rng.randrange(n)
        k = rng.randint(1, 4)
        subset = frozenset(e for e in range(m) if rng.random() < 0.7)
        assert mms_value(inst, agent, k, subset).value == mms_share(inst, agent, k, subset).value


def test_dispatcher_handles_adversarial_tables():
    table = TableCost.from_subsets(
        3,
        {
            frozenset(): 0,
            frozenset({0}): 4,
            frozenset({1}): 1,
            frozenset({2}): 1,
            frozenset({0, 1}): 4,
            frozenset({0, 2}): 5,
            frozenset({1, 2}): 2,
            frozenset({0, 1, 2}): 5,
        },
    )
    inst = Instance(n=1, m=3, costs=(table,))
    assert mms_value(inst, 0, 2).value == mms_share(inst, 0, 2).value == 4


def test_waterfill_is_exact():
    rng = random.Random(7)
    for _ in range(300):
        k = rng.randint(1, 8)
        loads = [rng.randint(0, 20) for _ in range(k)]
        v = rng.randint(0, 7)
        r = rng.randint(0, 12)
        value, counts = _waterfill(loads, v, r)
        assert sum(counts) == r
        assert max(l + c * v for l, c in zip(loads, counts)) == value
        # The branch-and-bound's witnesses rest on the fill rule: blocks in
        # index order, each up to the level (block 0 takes all when v = 0).
        fill, left = [], r
        for load in loads:
            fill.append(left if v == 0 else min((value - load) // v, left))
            left -= fill[-1]
        assert counts == fill, (loads, v, r)
        # brute force over all count vectors
        best = None

        def rec(j, left, cur_max):
            nonlocal best
            if j == k - 1:
                final = max(cur_max, loads[j] + left * v)
                best = final if best is None or final < best else best
                return
            for take in range(left + 1):
                rec(j + 1, left - take, max(cur_max, loads[j] + take * v))

        rec(0, r, 0)
        assert value == best


def _heap_waterfill(loads, v, r):
    """The reference fill: each item in turn onto a least loaded block, by heap."""
    heap = list(loads)
    heapq.heapify(heap)
    for _ in range(r):
        heapq.heapreplace(heap, heap[0] + v)
    return max(heap)


def test_waterfill_level_matches_placing_items_one_at_a_time():
    rng = random.Random(44)
    for _ in range(20_000):
        k = rng.randint(1, 9)
        loads = [rng.randint(0, rng.choice((3, 20, 1000))) for _ in range(k)]
        v = rng.randint(1, rng.choice((3, 30, 2000)))
        r = rng.randint(0, rng.choice((3, 40, 500)))
        assert _waterfill(loads, v, r)[0] == _heap_waterfill(loads, v, r), (loads, v, r)


def test_a_long_run_of_equal_items_closes_without_placing_them_one_by_one():
    # Each close places the run of 10^6 behind the 50 heavier items: one
    # heap step per item took 4.4-4.7 s on this list, where reading the
    # level off the loads takes about 0.1 s.
    items = [10**6 + 1] * 50 + [10**6] * 99_950
    start = time.perf_counter()
    value, assign = _min_max_partition(items, 3)
    assert time.perf_counter() - start < 2
    assert value == 33_334 * 10**6  # some block holds 33,334 items
    assert assign == (0,) * 33_333 + (1,) * 33_334 + (2,) * 33_333


def test_min_max_partition_ties_are_deterministic():
    value1, assign1 = _min_max_partition([5, 3, 3, 1], 2)
    value2, assign2 = _min_max_partition([5, 3, 3, 1], 2)
    assert value1 == value2 == 6
    assert assign1 == assign2


def test_enumeration_tie_break_prefers_lexicographic_string(ref_instance):
    # Two calls must return the identical witness.
    first = mms_share(ref_instance, 1, 3)
    second = mms_share(ref_instance, 1, 3)
    assert first == second


def _descending_lists(count: int, seed: int):
    rng = random.Random(seed)
    for _ in range(count):
        t = rng.randint(1, 24)
        top = rng.choice((1, 4, 30, 5000))  # small tops give ties and zeros
        yield sorted((rng.randint(0, top) for _ in range(t)), reverse=True)


def test_the_exact_two_way_start_returns_the_branch_and_bound_answer(monkeypatch):
    # With the bitsets, a k=2 search starts from the optimum v + 1 and its
    # room bound is exact, so it never dead-ends: each list is answered
    # within 2t + 1 nodes (3t + 1 is the proven bound), and gives the answer
    # of the search without the bitsets. A start from LPT's value is
    # refused on thousands of these lists.
    lists = list(_descending_lists(20_000, seed=9))
    reached = []
    with monkeypatch.context() as tight:
        for items in lists:
            tight.setattr(mms, "MMS_NODE_BUDGET", 2 * len(items) + 1)
            reached.append(_min_max_partition(items, 2))
        # Two searches pinned node for node: 32 nodes where the search
        # without the bitsets visits 2,630 (k2-no-bitsets below), and a list
        # with ties and zeros, whose zeros close in one _waterfill.
        assert _answer_in_nodes(tight, _random_descending(0, 20), 2, 32)[0] == 57_287
        ties = [6, 6, 6, 6, 5, 5, 5, 5, 5, 5, 5, 5, 5, 4, 3, 3, 3, 2, 2, 0, 0, 0]
        assert _answer_in_nodes(tight, ties, 2, 27) == (43, (0,) * 7 + (1,) * 6 + (0,) + (1,) * 5 + (0,) * 3)
    monkeypatch.setattr(mms, "TWO_WAY_REACH_BITS", 0)
    searched = 0
    for items, result in zip(lists, reached):
        assert _min_max_partition(items, 2) == result, items
        searched += result[1] != tuple(_lpt(items, 2)[1])
    assert searched > 2000  # lists whose answer comes from the search, not from LPT


def test_over_budget_k2_partitions_keep_the_branch_and_bound(monkeypatch):
    # Past the bit budget no bitsets are built: the search runs without
    # the exact start or the room bound.
    def no_reach(items):
        raise AssertionError("subset-sum bitsets built over their bit budget")

    monkeypatch.setattr(mms, "_suffix_reach", no_reach)
    rng = random.Random(3)
    for _ in range(20):
        items = sorted((rng.randint(10**7, 2 * 10**7) for _ in range(12)), reverse=True)
        value, assign = _min_max_partition(items, 2)
        loads = [sum(w for w, b in zip(items, assign) if b == side) for side in (0, 1)]
        assert value == max(loads)
        sums = {0}
        for w in items:
            sums |= {s + w for s in sums}
        assert value == min(max(s, sum(items) - s) for s in sums)


def _attempt(items, k):
    try:
        return _min_max_partition(items, k)
    except SizeGuardError:
        return None


def test_room_bound_changes_no_answer(monkeypatch):
    lists = list(_descending_lists(300, seed=23))
    ks = random.Random(23).choices(range(3, 9), k=len(lists))
    bounded = [_attempt(items, k) for items, k in zip(lists, ks)]
    # Without the bound some lists need millions of nodes: a smaller budget
    # keeps the reference run short, and only the lists it answers compare.
    monkeypatch.setattr(mms, "TWO_WAY_REACH_BITS", 0)
    monkeypatch.setattr(mms, "MMS_NODE_BUDGET", 5_000)
    compared = searched = 0
    for items, k, result in zip(lists, ks, bounded):
        reference = _attempt(items, k)
        if reference is not None:
            assert result == reference, (items, k)
            compared += 1
            searched += result[1] != tuple(_lpt(items, k)[1])
    assert compared > 250 and searched > 25  # answers from the search, not from LPT


def _random_descending(seed, t, top=10**4):
    rng = random.Random(seed)
    return sorted((rng.randint(1, top) for _ in range(t)), reverse=True)


def _answer_in_nodes(monkeypatch, items, k, nodes):
    """The branch-and-bound's answer within a budget of ``nodes`` nodes, after checking that one fewer refuses."""
    monkeypatch.setattr(mms, "MMS_NODE_BUDGET", nodes - 1)
    with pytest.raises(SizeGuardError, match=f"budget of {nodes - 1} nodes"):
        _min_max_partition(items, k)
    monkeypatch.setattr(mms, "MMS_NODE_BUDGET", nodes)
    return _min_max_partition(items, k)


def _lpt_start(monkeypatch):
    """Make the search start from LPT's value, as it did before ``_improved_max``."""
    monkeypatch.setattr(mms, "_improved_max", lambda items, k, assign: _lpt(items, k)[0])


def test_room_bound_answers_a_share_past_the_unbounded_node_budget(monkeypatch):
    items = _random_descending(3, 24)
    # 351 nodes from the improved start; 513 from LPT's bound.
    value, assign = _answer_in_nodes(monkeypatch, items, 3, 351)
    assert (value, sum(items)) == (48_568, 145_702) and value == -(-sum(items) // 3)
    with monkeypatch.context() as lpt:
        _lpt_start(lpt)
        assert _answer_in_nodes(lpt, items, 3, 513) == (value, assign)
    # Without the bound this search passes MMS_NODE_BUDGET nodes: it visits
    # 427,691 from the improved start (429,128 from LPT's bound).
    monkeypatch.setattr(mms, "TWO_WAY_REACH_BITS", 0)
    monkeypatch.setattr(mms, "MMS_NODE_BUDGET", 429_128)
    assert _min_max_partition(items, 3) == (value, assign)


@pytest.mark.parametrize(
    "items,k,reach_bits,lpt_nodes,nodes",
    [
        (_random_descending(0, 20), 2, 0, 2_641, 2_630),
        (_random_descending(2, 24), 4, None, 8_120, 8_107),
        (_random_descending(0, 14, top=10**7), 3, None, 3_139, 3_092),
    ],
    ids=["k2-no-bitsets", "k4-room-bound", "k3-past-the-bit-budget"],
)
def test_branch_and_bound_node_counts_are_pinned(monkeypatch, items, k, reach_bits, lpt_nodes, nodes):
    # Every cut (lb, the room bound, seen, the equal-load skip) shows in the
    # node count; a weakened one answers the same after more nodes. Only the
    # k=4 search has the room bound. From LPT's bound the search visits the
    # counts pinned before the improved start (lpt_nodes); from the improved
    # start it visits fewer (2,641 -> 2,630, 8,120 -> 8,107, 3,139 -> 3,092).
    if reach_bits is not None:
        monkeypatch.setattr(mms, "TWO_WAY_REACH_BITS", reach_bits)
    assert (len(items) * sum(items) <= mms.TWO_WAY_REACH_BITS) == (k == 4)
    answer = _answer_in_nodes(monkeypatch, items, k, nodes)
    _lpt_start(monkeypatch)
    assert _answer_in_nodes(monkeypatch, items, k, lpt_nodes) == answer


class _NodeMeter(int):
    """A node budget that keeps the largest node count checked against it.

    The search tests ``nodes > budget``; as this is a subclass of int, that
    asks its ``__lt__`` first, so ``most`` ends at the number of nodes
    visited, or at one past the budget on a refusal.
    """

    most = 0

    def __lt__(self, other):
        self.most = max(self.most, other)
        return int.__lt__(self, other)


def _metered(monkeypatch, items, k, budget):
    """The answer, or None on a refusal, and the nodes visited, under a node budget of ``budget``."""
    meter = _NodeMeter(budget)
    monkeypatch.setattr(mms, "MMS_NODE_BUDGET", meter)
    return _attempt(items, k), meter.most


def test_the_improved_start_gives_lpts_answer_in_no_more_nodes(monkeypatch):
    # Lists with ties, zeros and runs of equal items: k = 3-8 with and
    # without the bitsets, and k = 2 past the bit budget. Every list the
    # LPT start answers within the budget gets the same answer from the
    # improved start, after no more nodes.
    lists = list(_descending_lists(300, seed=43))
    ks = random.Random(43).choices(range(3, 9), k=len(lists))
    cases = [(items, k, bits) for items, k in zip(lists, ks) for bits in (mms.TWO_WAY_REACH_BITS, 0)]
    cases += [(items, 2, 0) for items in lists]

    def run_all():
        runs = []
        for items, k, bits in cases:
            monkeypatch.setattr(mms, "TWO_WAY_REACH_BITS", bits)
            runs.append(_metered(monkeypatch, items, k, 5_000))
        return runs

    improved = run_all()
    _lpt_start(monkeypatch)
    reference = run_all()
    compared = fewer = 0
    for case, (answer, nodes), (ref_answer, ref_nodes) in zip(cases, improved, reference):
        if ref_answer is not None:
            assert (answer, nodes <= ref_nodes) == (ref_answer, True), case
            compared += 1
            fewer += nodes < ref_nodes
    assert compared > 850 and fewer > 60, (compared, fewer)


def test_the_improved_start_does_bounded_work_on_100000_values():
    # k rounds of one linear pass each: a round that tries every pair of
    # items took minutes here, and the search from LPT's bound about 1.2 s.
    rng = random.Random(0)
    items = sorted((rng.randint(1, 10**6) for _ in range(100_000)), reverse=True)
    lpt_value, assign = _lpt(items, 3)
    assert mms._improved_max(items, 3, assign) < lpt_value
    start = time.perf_counter()
    value, _ = _min_max_partition(items, 3)
    assert time.perf_counter() - start < 5
    assert value == -(-sum(items) // 3)
    # Two sizes a unit apart leave only swaps that move one unit, so each
    # round lowers the max by 1: rounds run until no swap is left took
    # about 30 s here, and k rounds take milliseconds.
    items = [10**6 + 1] * 30_000 + [10**6] * 70_000
    lpt_value, assign = _lpt(items, 3)
    start = time.perf_counter()
    assert mms._improved_max(items, 3, assign) == lpt_value - 3
    assert time.perf_counter() - start < 1


def _deeper(frames, call):
    """``call()``, made ``frames`` stack frames below the caller."""
    return call() if frames == 0 else _deeper(frames - 1, call)


def _capped_at_total(values):
    return Instance(n=1, m=len(values), costs=(CappedAdditive(tuple(values), sum(values)),))


def test_a_share_does_not_depend_on_the_callers_stack_depth():
    # The grouped route searches one weight per chore, here 832 of them.
    rng = random.Random(0)
    inst = _capped_at_total([rng.randint(1, 10**4) for _ in range(rng.randint(400, 900))])
    top = mms_value(inst, 0, 3)
    deep = _deeper(400, lambda: mms_value(inst, 0, 3))
    assert inst.m == 832 and top.value == deep.value == 1_352_566
    assert top.witness == deep.witness


def test_a_long_search_stops_at_the_node_budget_at_any_depth(monkeypatch):
    rng = random.Random(0)
    inst = _capped_at_total([rng.randint(1, 10**6) for _ in range(1000)])
    monkeypatch.setattr(mms, "MMS_NODE_BUDGET", 20_000)
    for frames in (0, 400):
        with pytest.raises(SizeGuardError, match="budget of 20000 nodes"):
            _deeper(frames, lambda: mms_value(inst, 0, 3))


def test_a_search_with_many_blocks_stops_at_the_load_budget():
    # Each node sorts and keeps its k loads, so k = 10,000 allows 200 nodes,
    # and LPT over 20,000 chores must not cost t * k either.
    rng = random.Random(0)
    inst = _capped_at_total([rng.randint(1, 10**9) for _ in range(20_000)])
    start = time.perf_counter()
    with pytest.raises(SizeGuardError, match="budget of 200 nodes"):
        mms_value(inst, 0, 10_000)
    assert time.perf_counter() - start < 5


def test_node_budget_stops_a_bounded_search_it_cannot_finish(monkeypatch):
    items = _random_descending(0, 40)
    assert len(items) * sum(items) <= mms.TWO_WAY_REACH_BITS  # the room bound is on
    monkeypatch.setattr(mms, "MMS_NODE_BUDGET", 20_000)
    with pytest.raises(SizeGuardError, match="budget of 20000 nodes"):
        _min_max_partition(items, 5)


def test_unpruned_enumeration_stops_at_the_node_budget():
    # A non-monotone table is enumerated without pruning: 14 chores into 6
    # blocks are millions of set partitions.
    rng = random.Random(14)
    values = [Fraction(0)] + [Fraction(rng.randint(0, 9)) for _ in range((1 << 14) - 1)]
    inst = Instance(n=1, m=14, costs=(TableCost(m=14, values=tuple(values)),))
    start = time.perf_counter()
    with pytest.raises(SizeGuardError, match=f"budget of {mms.MMS_NODE_BUDGET} nodes"):
        mms_share(inst, 0, 6)
    assert time.perf_counter() - start < 5


def test_enumeration_past_the_chore_count_answers_and_refuses_as_at_it(monkeypatch):
    # A restricted-growth string over t chores opens at most t blocks, so any
    # k >= t, up to MAX_BLOCKS, gives the share at k = t padded with empty
    # blocks, and the node budget, not k, refuses a search it cannot finish.
    rng = random.Random(8)
    values = [Fraction(0)] + [Fraction(rng.randint(0, 9)) for _ in range((1 << 8) - 1)]
    inst = Instance(n=1, m=8, costs=(TableCost(m=8, values=tuple(values)),))
    assert not inst.costs[0].monotone
    at_t = mms_share(inst, 0, 8)
    for k in (9, 14, mms.MAX_BLOCKS):
        share = mms_share(inst, 0, k)
        assert share.value == at_t.value
        assert share.witness == at_t.witness + (frozenset(),) * (k - 8)
    monkeypatch.setattr(mms, "MMS_NODE_BUDGET", 1_000)
    refusal = "^size-guard-exceeded: partition enumeration exceeded its budget of 1000 nodes$"
    for k in (6, 8, 14, mms.MAX_BLOCKS):
        with pytest.raises(SizeGuardError, match=refusal):
            mms_share(inst, 0, k)


def _unpruned_partitions(fn, elems, k):
    """The plain restricted-growth scan: every leaf's largest block cost, and
    the first strictly cheapest leaf in depth-first order, padded to k blocks."""
    t = len(elems)
    best_val, best_blocks = None, []
    blocks = [0] * k

    def dfs(idx, used):
        nonlocal best_val, best_blocks
        if idx == t:
            val = max((fn.int_eval(blocks[b]) for b in range(used)), default=0)
            if best_val is None or val < best_val:
                best_val, best_blocks = val, blocks[:used]
            return
        for b in range(min(used + 1, k)):
            old = blocks[b]
            blocks[b] = old | 1 << elems[idx]
            dfs(idx + 1, used + 1 if b == used else used)
            blocks[b] = old

    dfs(0, 0)
    witness = tuple(map(set_of, best_blocks)) + (frozenset(),) * (k - len(best_blocks))
    return MmsResult(value=Fraction(best_val, fn.denominator()), witness=witness)


@pytest.mark.parametrize("kind", VARIANTS + ("monotone_table",))
def test_pruned_enumeration_returns_the_unpruned_value_and_witness(kind):
    rng = random.Random(f"enumerate-{kind}")
    pruned = 0
    for _ in range(200):
        m = rng.randint(0, 8)
        if kind == "monotone_table":
            fn = _random_monotone_table(m, rng)
        else:
            fn = _random_cost(kind, m, rng)[0]
        pruned += fn.monotone
        elems = tuple(sorted(rng.sample(range(m), rng.randint(0, m))))
        k = rng.randint(1, 5)
        assert _enumerate_partitions(fn, elems, k) == _unpruned_partitions(fn, elems, k), (kind, fn, elems, k)
    # Random tables take both paths, every other kind the pruned one.
    assert (0 < pruned < 200) if kind == "table" else pruned == 200


def test_table_monotone_flag_matches_check_monotone():
    rng = random.Random(5)
    verdicts = []
    for _ in range(300):
        m = rng.randint(0, 6)
        if rng.random() < 0.4:
            fn = _random_monotone_table(m, rng)
            if m and rng.random() < 0.5:
                # One lowered entry may break monotonicity.
                values = list(fn.values)
                mask = rng.randrange(1, 1 << m)
                values[mask] = max(Fraction(0), values[mask] - rng.randint(1, 3))
                fn = TableCost(m=m, values=tuple(values))
        else:
            fn = _random_cost("table", m, rng)[0]
        verdicts.append(fn.monotone)
        assert fn.monotone == check_monotone(fn, m), fn
    assert 60 < sum(verdicts) < 240


def test_table_past_the_monotone_check_guard_is_searched_in_full(monkeypatch):
    # A table past MONOTONE_CHECK_MAX chores is not scanned: it counts as
    # non-monotone, and the unpruned scan gives the same answer.
    fn = _random_monotone_table(3, random.Random(3))
    monkeypatch.setattr(model, "MONOTONE_CHECK_MAX", 2)
    assert not fn.monotone
    assert _enumerate_partitions(fn, (0, 1, 2), 2) == _unpruned_partitions(fn, (0, 1, 2), 2)


def test_monotone_table_at_the_enumeration_guards_is_answered():
    # 14 chores into 6 blocks: the full scan stops at the node budget, the
    # pruned one finishes well inside it.
    rng = random.Random(14)
    weights = [rng.randint(1, 20) for _ in range(14)]
    cap = sum(weights) * 2 // 3
    values = [min(cap, sum(w for e, w in enumerate(weights) if s >> e & 1)) for s in range(1 << 14)]
    inst = Instance(n=1, m=14, costs=(TableCost(m=14, values=tuple(Fraction(v) for v in values)),))
    result = mms_share(inst, 0, 6)
    assert len(result.witness) == 6
    assert frozenset().union(*result.witness) == frozenset(range(14))
    assert max(inst.cost(0, block) for block in result.witness) <= result.value
    assert result.value >= Fraction(sum(weights), 6)


def _first_strict_split(fn, elems):
    """The k=2 split scan's reference: the splits s = 1, 3, 5, ... of the local
    table in order, keeping the first strict minimum; and how many splits tie it."""
    t = len(elems)
    table = fn.int_table(elems)
    full = (1 << t) - 1
    best, best_s, ties = None, None, 0
    for s in range(1, 1 << t, 2):
        val = max(table[s], table[full ^ s])
        if best is None or val < best:
            best, best_s, ties = val, s, 1
        elif val == best:
            ties += 1
    side = frozenset(e for i, e in enumerate(elems) if best_s >> i & 1)
    return Fraction(best, fn.denominator()), (side, frozenset(elems) - side), ties


@pytest.mark.parametrize("kind", VARIANTS)
def test_k2_mms_value_matches_enumeration_on_every_variant(kind):
    rng = random.Random(f"k2-{kind}")
    tied = 0
    for i in range(300):
        m = rng.randint(1, 6 if kind == "table" else 10)
        if kind == "table" and i % 3 == 0:
            # Entries in {0, 1, 2}, so that several splits often tie at the optimum.
            fn = TableCost(m=m, values=(Fraction(0), *(Fraction(rng.randint(0, 2)) for _ in range((1 << m) - 1))))
        else:
            fn = _random_cost(kind, m, rng)[0]
        inst = Instance(n=1, m=m, costs=(fn,))
        elems = tuple(e for e in range(m) if rng.random() < 0.85)
        result = mms_value(inst, 0, 2, elems)
        assert result.value == _enumerate_partitions(inst.costs[0], elems, 2).value, (kind, inst, elems)
        assert frozenset().union(*result.witness) == frozenset(elems)
        assert max(inst.cost(0, block) for block in result.witness) == result.value
        if kind == "table" and elems:
            value, witness, ties = _first_strict_split(fn, elems)
            assert (result.value, result.witness) == (value, witness), (inst, elems)
            tied += ties > 1
    if kind == "table":
        assert tied > 20  # 54 of the 289 nonempty draws tie


def _frozenset_sum_groups(fn, elems):
    """The groups of a grouped cost as (frozenset of chores, weight), read from its public data."""
    den = fn.denominator()
    if isinstance(fn, RowCoverage):
        chosen = frozenset(elems)
        hit = ((chosen.intersection(row), w * den) for row, w in zip(fn.rows, fn.weights))
        return [(members, int(w)) for members, w in hit if members], None
    if isinstance(fn, CappedCardinality):
        return [(frozenset((e,)), 1) for e in elems], fn.cap
    groups = [(frozenset((e,)), int(fn.values[e] * den)) for e in elems]
    return groups, (int(fn.cap * den) if hasattr(fn, "cap") else None)


def _frozenset_grouped_min_max(groups, cap, den, k):
    """The reference grouped route over frozenset groups, sorted on (-weight, least chore)."""
    g = math.gcd(den, *(w for _, w in groups))
    order = sorted(groups, key=lambda group: (-group[1], min(group[0])))
    items = [w // g for _, w in order]
    parts = [[] for _ in range(min(k, len(items)))]
    best, assign = _min_max_partition(items, len(parts))
    for (members, _), b in zip(order, assign):
        parts[b].append(members)
    blocks = [frozenset().union(*part) for part in parts]
    best *= g
    return Fraction(best if cap is None else min(best, cap), den), blocks


@pytest.mark.parametrize("kind", ("additive", "capped_additive", "capped_cardinality", "row_coverage"))
def test_grouped_route_matches_the_frozenset_reference(kind):
    # Groups are sorted chore tuples; value and witness must be those of the
    # same groups as frozensets, on every grouped variant, for empty chore
    # sets, coverage rows cut down to a subset, and k above the group count.
    rng = random.Random(f"grouped-{kind}")
    above = 0
    for _ in range(400):
        m = rng.randint(1, 10)
        fn = _random_cost(kind, m, rng)[0]
        inst = Instance(n=1, m=m, costs=(fn,))
        elems = tuple(e for e in range(m) if rng.random() < 0.7)
        groups, cap = fn.sum_groups(elems)
        assert all(members and list(members) == sorted(members) for members, _ in groups)
        reference = _frozenset_sum_groups(fn, elems)
        assert ([(frozenset(members), w) for members, w in groups], cap) == reference
        k = rng.randint(1, min(len(groups) + 2, 8))
        above += k > len(groups)
        result = mms_value(inst, 0, k, elems)
        if elems:
            value, blocks = _frozenset_grouped_min_max(*reference, fn.denominator(), k)
            assert result == MmsResult(value, mms._pad(blocks, k)), (kind, fn, elems, k)
        else:
            assert result == MmsResult(Fraction(0), (frozenset(),) * k)
    assert above > 50


def test_two_block_lpt_is_the_general_rule():
    def general(items, k):
        loads = [0] * k
        assign = [0] * len(items)
        for i, v in enumerate(items):
            j = loads.index(min(loads))
            loads[j] += v
            assign[i] = j
        return (max(loads) if items else 0), assign

    for items in [[], *_descending_lists(5000, seed=31)]:
        assert _lpt(items, 2) == general(items, 2), items


def _answer(query):
    """A query's (value, witness), or its error's (type, message)."""
    try:
        result = query()
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return type(exc), str(exc)
    return result.value, result.witness


_RANGES = (
    range(7), range(2, 5), range(6, 7), range(3, 3), range(7, 7), range(5, 2), range(0, -2), range(9, 9),
    range(-3, -1), range(-1, 3), range(2, 8), range(6, 9), range(0, 7, 2), range(6, -1, -1), range(100),
)


@pytest.mark.parametrize("chores", _RANGES, ids=repr)
def test_a_range_of_chores_answers_as_the_same_chores_in_a_list(ref_instance, chores, monkeypatch):
    # A step-1 range inside [0, m) skips the per-chore check; every other
    # range takes it, with the same errors and results as a list.
    for agent, k in ((0, 2), (2, 3)):
        assert _answer(lambda: mms_value(ref_instance, agent, k, chores)) == _answer(
            lambda: mms_value(ref_instance, agent, k, list(chores))
        )
    checked = []
    check = Instance.check_chores
    monkeypatch.setattr(Instance, "check_chores", lambda inst, c: checked.append(c) or check(inst, c))
    _answer(lambda: mms_value(ref_instance, 0, 2, chores))
    fast = chores.step == 1 and chores.start >= 0 and chores.stop <= ref_instance.m
    assert checked == ([] if fast else [chores])


def _eager_grouped(groups, cap, den):
    """A grouped k=2 answer built eagerly: ``_grouped_partition`` over the weights divided by their gcd with den."""
    g = math.gcd(den, *(w for _, w in groups))
    best, witness = mms._grouped_partition(groups, [w // g for _, w in groups], 2)
    best *= g
    return MmsResult(Fraction(best if cap is None else min(best, cap), den), witness)


def _eager_two_way(fn, elems):
    """The grouped route's k=2 answer as built before any value-first route."""
    return _eager_grouped(*fn.sum_groups(elems), fn.denominator())


def _deferred(result: MmsResult) -> bool:
    return "witness" not in vars(result)


def _two_way_cases():
    """(cost, chores) pairs on every grouped variant: random, zeros, one group, caps around the optimum, a gcd."""
    rng = random.Random("value-first")
    for kind in ("additive", "capped_additive", "capped_cardinality", "row_coverage"):
        for _ in range(150):
            m = rng.randint(1, 12)
            yield _random_cost(kind, m, rng)[0], tuple(e for e in range(m) if rng.random() < 0.8) or (0,)
    yield Additive((0, 3, 0, 5, 0)), range(5)
    yield Additive((0, 0, 0)), range(3)
    yield model.CappedAdditive((0, 0, 0), 1), range(3)
    yield RowCoverage(((0, 1, 2),), (Fraction(7, 3),)), range(3)
    yield RowCoverage(((0, 2), (1, 3)), (0, 0)), range(4)
    yield Additive((Fraction(9, 2),)), (0,)
    values = (5, 4, 3, 3, 2, 1)  # uncapped optimum 9
    for cap in (Fraction(17, 2), 9, 10):
        yield model.CappedAdditive(values, cap), range(6)
    for cap in (2, 3, 4):  # uncapped optimum 3
        yield CappedCardinality(cap), range(5)
    yield Additive((Fraction(1, 2), Fraction(1, 3), Fraction(1, 3), Fraction(2, 3))), (1, 2, 3)


def test_value_first_two_way_shares_match_the_eager_route():
    cases = list(_two_way_cases())
    deferred = 0
    caps = {-1: 0, 0: 0, 1: 0}  # caps below, at and above the uncapped optimum
    for fn, elems in cases:
        inst = Instance(n=1, m=fn.ground_size() or max(elems) + 1, costs=(fn,))
        result = mms_value(inst, 0, 2, elems)
        deferred += _deferred(result)
        eager = _eager_two_way(fn, tuple(elems))
        groups, cap = fn.sum_groups(tuple(elems))
        if cap is not None:
            uncapped = _eager_grouped(groups, None, fn.denominator()).value * fn.denominator()
            caps[(cap > uncapped) - (cap < uncapped)] += 1
        assert result.value == eager.value, (fn, elems)
        assert result.witness == eager.witness and result == eager, (fn, elems)
        assert not _deferred(result)
    assert deferred == len(cases)  # every case is within the bit budget
    assert min(caps.values()) >= 2, caps
    # The gcd case: weights 2, 2, 4 over 6 divide by 2 before the bitset is built.
    fn = Additive((Fraction(1, 2), Fraction(1, 3), Fraction(1, 3), Fraction(2, 3)))
    assert math.gcd(fn.denominator(), *(w for _, w in fn.sum_groups((1, 2, 3))[0])) == 2
    assert mms_value(Instance(n=1, m=4, costs=(fn,)), 0, 2, (1, 2, 3)).value == Fraction(2, 3)


def test_value_first_route_stops_at_the_bit_budget(monkeypatch):
    # 16 weights summing to 2^20 sit exactly at TWO_WAY_REACH_BITS; one more
    # unit passes it and the eager route answers with its witness at once.
    for total, expect_deferred in ((1 << 20, True), ((1 << 20) + 1, False)):
        items = [total // 16] * 15 + [total - 15 * (total // 16)]
        inst = Instance(n=1, m=16, costs=(Additive(tuple(items)),))
        assert 16 * total - mms.TWO_WAY_REACH_BITS == (0 if expect_deferred else 16)
        result = mms_value(inst, 0, 2)
        assert _deferred(result) == expect_deferred
        assert result == _eager_two_way(inst.costs[0], tuple(range(16)))
    # Past the budget the branch-and-bound's refusal stands: under a lowered
    # node budget it refuses this list one bit past the bit budget, and
    # exactly at it both the value and the witness come from the bitsets.
    rng = random.Random(2)
    values = tuple(rng.randint(1000, 10_000) for _ in range(24))
    inst = Instance(n=1, m=24, costs=(Additive(values),))
    monkeypatch.setattr(mms, "MMS_NODE_BUDGET", 2_000)
    monkeypatch.setattr(mms, "TWO_WAY_REACH_BITS", 24 * sum(values) - 1)
    with pytest.raises(SizeGuardError, match="budget of 2000 nodes"):
        mms_value(inst, 0, 2)
    monkeypatch.setattr(mms, "TWO_WAY_REACH_BITS", 24 * sum(values))
    result = mms_value(inst, 0, 2)
    assert _deferred(result) and result.value == -(-sum(values) // 2)  # a perfect split
    assert result == _eager_two_way(inst.costs[0], tuple(range(24)))
    assert max(sum(values[e] for e in block) for block in result.witness) == result.value


def test_share_readers_build_no_witness(monkeypatch):
    def no_witness(*args):
        raise AssertionError("a witness was built for a value reader")

    instances = [random_instance(2, 7, "additive", seed=seed) for seed in range(6)]
    expected = [_eager_two_way(inst.costs[0], tuple(range(inst.m))).value for inst in instances]
    monkeypatch.setattr(mms, "_grouped_partition", no_witness)
    for inst, share in zip(instances, expected):
        ctx = InstanceContext(inst)
        assert ctx.share(0, 2, (1 << inst.m) - 1)[1] == share
        assert ctx.share(1, 2, 0b1011)[0] >= 0
        assert pmms32_two_agent(inst).allocation is not None
        for crit in (Criterion.MMS, Criterion.PMMS):
            assert best_fair_allocation(inst, crit, Fraction(1)).witness is not None
    with pytest.raises(AssertionError, match="value reader"):
        mms_value(random_instance(2, 5, "additive", seed=0), 0, 2).witness

    # Eager results keep their dataclass behaviour, and a deferred one pickles
    # to an equal eager one.
    monkeypatch.undo()
    value, witness = Fraction(3, 2), (frozenset({0}), frozenset({1, 2}))
    positional, keyword = MmsResult(value, witness), MmsResult(value=value, witness=witness)
    assert positional == keyword and hash(positional) == hash(keyword) == hash((value, witness))
    assert repr(keyword) == "MmsResult(value=Fraction(3, 2), witness=(frozenset({0}), frozenset({1, 2})))"
    inst = Instance(n=1, m=3, costs=(Additive((1, Fraction(1, 2), Fraction(3, 2))),))
    lazy = mms_value(inst, 0, 2)
    assert _deferred(lazy)
    copy = pickle.loads(pickle.dumps(lazy))
    assert set(vars(lazy)) == set(vars(copy)) == {"value", "witness"}  # the builder is let go once read
    assert copy == lazy == MmsResult(value, (frozenset({2}), frozenset({0, 1})))
    with pytest.raises(AttributeError, match="no attribute 'blocks'"):
        lazy.blocks


def test_a_witness_built_by_two_readers_at_once_is_kept_once():
    # Two threads can both find the builder before either stores the witness.
    # Here the builder reads the witness itself, so a second read runs inside
    # the first and both build.
    inst = Instance(n=1, m=3, costs=(Additive((1, Fraction(1, 2), Fraction(3, 2))),))
    lazy = mms_value(inst, 0, 2)
    build, builds = vars(lazy)["_build"], []

    def nested():
        builds.append(1)
        if len(builds) == 1:
            assert lazy.witness == build()
        return build()

    object.__setattr__(lazy, "_build", nested)
    assert lazy.witness == (frozenset({2}), frozenset({0, 1})) and len(builds) == 2
    assert set(vars(lazy)) == {"value", "witness"}

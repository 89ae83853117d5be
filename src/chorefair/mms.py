"""Exact maximin-share computation.

Each public query checks its arguments once (``_query``, or the bundle
checks of ``pairwise_mms``) and then calls one route. Each route is one
exact function that returns an ``MmsResult`` and owns its refusals:

* ``mms_share`` -- ``_enumerate_partitions``, the reference: enumeration of
                   set partitions as restricted-growth strings, for any cost
                   oracle and k. At k=1 it reads c(S) with no table, at any
                   chore count; past k=1 it takes up to 14 chores. Monotone
                   costs (every formula variant, and each table whose entries
                   are monotone) are pruned against a greedy bound, with the
                   full scan's witness.
* ``mms_value`` -- ``_solve``, the only code that picks a route, from the
                   cost's form and k alone: a min-max partition of the group
                   weights for a capped sum over groups (additive costs
                   included), the two-way split scan of other costs for k=2
                   (up to 20 chores), and enumeration otherwise.
                   ``pairwise_mms`` is ``_solve`` with k=2 over two disjoint
                   bundles.

The min-max partition builds subset-sum reachability bitsets
(``reach |= reach << w``) while t * total stays within ``TWO_WAY_REACH_BITS``
(2^24 bits). For k=2 they give the optimum v exactly, and for every k a room
bound that keeps the witness; larger lists take the plain branch-and-bound.
One branch-and-bound builds every min-max witness. It starts from LPT's
assignment and, where it can, from a lower bound h + 1 with no witness: for
k=2 within the bit limit h = v, where the room bound is exact, so the search
never dead-ends and visits at most 3t + 1 nodes; otherwise h is LPT's max
improved by at most k rounds of moves and swaps off a heaviest block. Any
start bound above the optimum reaches the same first optimal leaf, so the
witness is unchanged, and no node is added to the search from LPT's value.
A grouped k=2 share within the bit limit reads its value off one forward
bitset and builds its witness only when the witness is first read
(``MmsResult``), as most callers read the value alone. Every route accepts k
up to ``MAX_BLOCKS`` (10^6), and the enumeration and the branch-and-bound
each stop with ``SizeGuardError`` past ``MMS_NODE_BUDGET`` nodes, the
branch-and-bound past ``MMS_LOAD_BUDGET`` // k nodes if fewer.

All routes work on integers over the cost's ``denominator()`` and read a
cost only through ``CostFunction.sum_groups`` (the grouped route),
``int_table`` (enumeration and two-way splits, by local mask),
``monotone`` (enumeration's pruning) and ``value`` (enumeration at k=1),
so a new variant needs nothing here: the grouped route if ``sum_groups``
gives groups, else the split scan at k=2 and enumeration at any other k.

``_solve`` is cross-checked against the enumeration route in the test
suite on every variant.
"""

from __future__ import annotations

import bisect
import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

from .errors import ArgumentError, SizeGuardError
from .model import CostFunction, Instance

__all__ = ["MmsResult", "mms_share", "pairwise_mms", "mms_value"]

ENUM_MAX_CHORES = 14
PAIRWISE_MAX_CHORES = 20
# Largest k of any route: a witness holds k blocks, padded with empty ones.
MAX_BLOCKS = 10**6
# Largest t * total for which a min-max partition builds subset-sum bitsets (the
# k=2 optimum, the room bound): the t bitsets then hold at most 2 MiB.
TWO_WAY_REACH_BITS = 1 << 24
# Most nodes one partition enumeration or one branch-and-bound may visit; past
# it the search raises SizeGuardError rather than run for minutes.
MMS_NODE_BUDGET = 250_000
MMS_LOAD_BUDGET = 2_000_000  # most loads a branch-and-bound may sort and keep, k per node


@dataclass(frozen=True)
class MmsResult:
    """Optimal min-max value together with one witnessing k-partition.

    A result made by ``_deferred`` holds only its value until the witness is
    first read; that read builds it once, by the same code an eager result
    runs, so the two are alike in every way. ``==``, ``hash`` and ``repr``
    read the witness, and a pickle or copy is an eager result.
    """

    value: Fraction
    witness: tuple[frozenset[int], ...]

    @classmethod
    def _deferred(cls, value: Fraction, build: Callable[[], tuple[frozenset[int], ...]]) -> MmsResult:
        result = object.__new__(cls)
        object.__setattr__(result, "value", value)
        object.__setattr__(result, "_build", build)
        return result

    def __getattr__(self, name: str):
        # Reached only for a missing attribute: the witness of a deferred result.
        build = self.__dict__.get("_build") if name == "witness" else None
        if build is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        witness = build()
        object.__setattr__(self, "witness", witness)
        # Two threads may both build; the witnesses are equal and either pop is harmless.
        self.__dict__.pop("_build", None)
        return witness

    def __reduce__(self):
        return MmsResult, (self.value, self.witness)


def _query(inst: Instance, agent: int, k: int, chores: Iterable[int] | None) -> tuple[int, ...]:
    """Check an MMS query (agent, then k, then chores); return its sorted chores, all of them for None."""
    inst.check_agent(agent)
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise ArgumentError(f"partition size k must be an integer >= 1, got {k!r}")
    if k > MAX_BLOCKS:
        raise SizeGuardError(f"partition size k limited to {MAX_BLOCKS}, got {k}")
    if chores is None:
        return tuple(range(inst.m))
    if type(chores) is range and chores.step == 1 and chores.start >= 0 and chores.stop <= inst.m:
        return tuple(chores)  # already sorted, distinct and in bounds
    return tuple(sorted(inst.check_chores(chores)))


def _pad(blocks: Sequence[frozenset[int]], k: int) -> tuple[frozenset[int], ...]:
    padded = list(blocks) + [frozenset()] * (k - len(blocks))
    return tuple(padded)


# ---------------------------------------------------------------------------
# Enumeration over restricted-growth strings
# ---------------------------------------------------------------------------


def mms_share(inst: Instance, agent: int, k: int, chores: Iterable[int] | None = None) -> MmsResult:
    """Exact MMS over all partitions of ``chores`` into at most k blocks.

    Enumerates restricted-growth strings, so each set partition is visited
    once; ties break toward the lexicographically smallest string. Empty
    blocks never change the optimum for monotone costs, and no string opens
    more blocks than there are chores, which makes any k up to 10^6 harmless.
    k=1 is answered at any chore count, any other k up to 14 chores.
    """
    elems = _query(inst, agent, k, chores)
    return _enumerate_partitions(inst.costs[agent], elems, k)


def _enumerate_partitions(fn: CostFunction, elems: tuple[int, ...], k: int) -> MmsResult:
    """First optimal leaf, in depth-first order, of the restricted-growth strings.

    A greedy placement first puts each chore, in order, on the block of
    min(k, t) that costs least with the chore added (ties to the lowest
    index). Its largest block cost G is the value of one leaf, so G is at
    least the optimum, and the search starts from the bound G + 1 rather than
    from a leaf. A leaf replaces the incumbent only when strictly cheaper,
    and every leaf before the first optimal one costs more than the optimum,
    so that leaf is returned with or without the bound: the tie-break is the
    full scan's. For monotone costs a branch is cut once a block reaches the
    incumbent, since blocks only grow; such a branch holds no strictly
    cheaper leaf. Every leaf takes the max over its final blocks. Blocks are
    local masks into ``fn.int_table(elems)``, bit i standing for ``elems[i]``;
    the witness's masks are mapped back to chores and padded to k blocks at
    the end. At k=1 the one leaf is the whole set, read with ``fn.value`` and
    no table at any chore count; any other k is refused past ``ENUM_MAX_CHORES``.
    """
    if k == 1:
        return MmsResult(value=fn.value(elems), witness=(frozenset(elems),))
    t = len(elems)
    if t > ENUM_MAX_CHORES:
        raise SizeGuardError(f"partition enumeration limited to {ENUM_MAX_CHORES} chores, got {t} chores")
    table = fn.int_table(elems)
    prune = fn.monotone
    greedy = [0] * min(k, t)
    for i in range(t):
        j = min(range(len(greedy)), key=lambda b: table[greedy[b] | 1 << i])
        greedy[j] |= 1 << i
    best_val = max(map(table.__getitem__, greedy), default=0) + 1
    best_blocks: list[int] = []
    blocks = [0] * len(greedy)  # a restricted-growth string opens at most t blocks
    nodes = 0

    def dfs(idx: int, used: int) -> None:
        nonlocal best_val, best_blocks, nodes
        nodes += 1
        if nodes > MMS_NODE_BUDGET:
            raise SizeGuardError(f"partition enumeration exceeded its budget of {MMS_NODE_BUDGET} nodes")
        if idx == t:
            val = 0
            for b in range(used):
                c = table[blocks[b]]
                if c > val:
                    val = c
            if val < best_val:
                best_val = val
                best_blocks = blocks[:used]
            return
        bit = 1 << idx
        for b in range(min(used + 1, k)):
            old = blocks[b]
            new = old | bit
            # For monotone costs a block at or above the incumbent can only
            # grow, so the whole branch is dominated.
            if prune and table[new] >= best_val:
                continue
            blocks[b] = new
            dfs(idx + 1, used + 1 if b == used else used)
            blocks[b] = old

    dfs(0, 0)
    witness = [frozenset(elems[i] for i in range(t) if mask >> i & 1) for mask in best_blocks]
    return MmsResult(value=Fraction(best_val, fn.denominator()), witness=_pad(witness, k))


# ---------------------------------------------------------------------------
# Min-max partition of integer weights
# ---------------------------------------------------------------------------


def _waterfill(loads: Sequence[int], v: int, r: int) -> tuple[int, list[int]]:
    """Optimally place r identical items of size v onto fixed loads.

    Putting each item on the least loaded block finds the optimal max load,
    since the items are identical, and takes the tops load + c * v (c >= 1)
    in increasing order. That level is read off the loads in O(k log k): it
    is max(loads) when the blocks take r items up to it; else each span of
    v above max(loads) holds one top of every block, so the d items left
    end on the ((d - 1) % k)-th smallest top, counted from 0, of span
    (d - 1) // k. The counts then fill the blocks in index order up to that
    level.
    """
    if v == 0:
        return max(loads), [r] + [0] * (len(loads) - 1)
    high = max(loads)
    d = r - sum([(high - load) // v for load in loads])
    best = high
    if d > 0:
        span, nth = divmod(d - 1, len(loads))
        best += span * v + sorted([v - (high - load) % v for load in loads])[nth]
    counts = []
    left = r
    for load in loads:
        counts.append(min((best - load) // v, left))
        left -= counts[-1]
    return best, counts


def _lpt(items: Sequence[int], k: int) -> tuple[int, list[int]]:
    """Each item in turn onto the first least loaded of k blocks: (max load, block of each item)."""
    assign = [0] * len(items)
    heap = [(0, j) for j in range(k)]  # (load, block): pops the first least loaded block
    for i, v in enumerate(items):
        load, assign[i] = heap[0]
        heapq.heapreplace(heap, (load + v, assign[i]))
    return max(heap)[0], assign


def _suffix_reach(items: Sequence[int]) -> list[int]:
    """Subset-sum bitsets: bit s of entry i is set when some subset of ``items[i:]`` sums to s."""
    reach = [1] * (len(items) + 1)
    for i in range(len(items) - 1, -1, -1):
        reach[i] = reach[i + 1] | reach[i + 1] << items[i]
    return reach


def _reach_fits(t: int, total: int) -> bool:
    """Whether the subset-sum bitsets of t items summing to ``total`` stay within ``TWO_WAY_REACH_BITS``."""
    return t * total <= TWO_WAY_REACH_BITS


def _two_way_optimum(reach: int, total: int) -> int:
    """The k=2 min-max value of items summing to ``total`` whose subset sums are the set bits of ``reach``.

    The lighter block of a best split is the largest reachable sum at most
    total // 2, and the heavier block holds the rest.
    """
    return total - ((reach & ((2 << total // 2) - 1)).bit_length() - 1)


def _improved_max(items: Sequence[int], k: int, assign: Sequence[int]) -> int:
    """The largest block load once an assignment (LPT's) is improved by moves and swaps.

    At most k rounds. Each takes the first heaviest block H and the first
    lightest block L, with gap = load(H) - load(L), and moves one item of H
    to L, or swaps one item of H for a lighter one of L, so as to transfer
    the d with 0 < d < gap closest to gap / 2: both new loads are then below
    load(H). One two-pointer pass over the items of H and of L, both sorted
    (a move is a swap for an item 0), finds that d, so a round costs O(t)
    and all of them O(t * k). The rounds stop once no such d exists or the
    largest load is the lower bound. Only the value is kept.
    """
    blocks: list[list[int]] = [[] for _ in range(k)]
    for w, b in zip(items, assign):
        blocks[b].append(w)
    for block in blocks:
        block.reverse()  # ascending
    loads = list(map(sum, blocks))
    floor = max(items[0], -(-sum(loads) // k))
    for _ in range(k):
        high, low = max(loads), min(loads)
        if high == floor:
            break
        gap = high - low
        h, l = loads.index(high), loads.index(low)
        xs, ys = blocks[h], blocks[l]
        ws = [0] + ys
        # ws[q] is the first y with x - y < gap / 2, so the d closest to
        # gap / 2 is x - ws[q - 1] or x - ws[q]; q only grows with x.
        best_err, pick = gap, None
        q, end = 0, len(ws)
        for x in xs:
            while q < end and 2 * (x - ws[q]) >= gap:
                q += 1
            if q and x - ws[q - 1] < gap and 2 * (x - ws[q - 1]) - gap < best_err:
                best_err, pick = 2 * (x - ws[q - 1]) - gap, (x, q - 1)
            if q < end and x > ws[q] and gap - 2 * (x - ws[q]) < best_err:
                best_err, pick = gap - 2 * (x - ws[q]), (x, q)
        if pick is None:
            break
        x, c = pick
        y = ws[c]
        xs.remove(x)
        if c:
            ys.remove(y)
            bisect.insort(xs, y)
        bisect.insort(ys, x)
        loads[h] -= x - y
        loads[l] += x - y
    return max(loads)


def _min_max_partition(items: Sequence[int], k: int) -> tuple[int, tuple[int, ...]]:
    """Exact min-max partition of descending nonnegative ints into k blocks.

    Returns LPT's assignment when it is optimal, else the first optimal leaf
    of the branch-and-bound's depth-first order. With t * total at most
    ``TWO_WAY_REACH_BITS``, subset-sum bitsets of the suffixes give a room
    bound (bin completion, Korf 2009): a block of load L can still take at
    most the largest sum of the remaining items below best_val - L, and a
    node whose loads plus these fits sum to less than ``total`` is cut. Each
    cut (``lb``, the room bound, ``seen``) drops only subtrees with no leaf
    below the incumbent, so the first optimal leaf is never cut. A state cut
    by the room bound is not added to ``seen``, and an equal one met later
    is cut again, as ``best_val`` only falls: ``seen`` skips the same
    subtrees as before, and the witness is unchanged.

    The search starts below LPT's value where it can (a better incumbent,
    Korf 1998): from a bound h + 1 with no witness, as
    ``search.cheapest_accepted`` starts from its seed's G + 1. For k=2 with
    the bitsets, h is the optimum v that ``_two_way_optimum`` reads off
    them, and v is also the lower bound. Otherwise, when t * k is within
    ``MMS_LOAD_BUDGET``, h is the max load of LPT's assignment as
    ``_improved_max`` improves it, if below LPT's value. The answer is the
    same. h < LPT means LPT is not optimal, so the answer was already the
    first optimal leaf. A start bound B with opt < B <= LPT reaches that
    same leaf, because every cut drops only subtrees with no leaf below the
    incumbent. At each step the incumbent is at most the one the search from
    LPT's value holds, so every node visited is one that search visits too,
    and no share it answers is refused.

    For k=2 the room bound is exact. A subset of ``items[i:]`` sums to X
    exactly when its complement sums to rest - X, so the fits of loads L0
    and L1 below v + 1 make up the rest exactly when some reachable X lies
    in [rest - (v - L1), v - L0]: every node that opens has a completion at
    v. Before the first optimal leaf at most two children are entered per
    depth; after it ``lb`` cuts every node entered, and unwinding enters at
    most one more per depth: at most 3t + 1 nodes. Positive weights within
    the bit budget number at most 2^12 (a tail of zeros is one close), so
    no k=2 search within it is refused.

    The search is one loop over per-depth state (item i is placed at depth
    i): the next block to try and the loads already tried there, as the same
    load on another block gives the same subtree. It keeps its own stack, so
    its node budget (``MMS_NODE_BUDGET``, or ``MMS_LOAD_BUDGET`` // k if
    fewer, as each node sorts and keeps k loads) is its only refusal, at any
    depth of the caller.
    """
    t = len(items)
    total = sum(items)
    best_val, best_assign = _lpt(items, k)
    global_lb = max(items[0], -(-total // k))
    if best_val == global_lb:
        return best_val, tuple(best_assign)
    reach = _suffix_reach(items) if _reach_fits(t, total) else None
    if k == 2 and reach is not None:
        global_lb = _two_way_optimum(reach[0], total)
        if best_val == global_lb:
            return best_val, tuple(best_assign)
        best_val, best_assign = global_lb + 1, None
    elif t * k <= MMS_LOAD_BUDGET:
        improved = _improved_max(items, k, best_assign)
        if improved < best_val:
            best_val, best_assign = improved + 1, None
    loads = [0] * k
    assign = [0] * t
    seen: set[tuple[int, tuple[int, ...]]] = set()
    no_blocks: Iterator[int] = iter(())
    blocks = [no_blocks] * t  # at each depth, an iterator over the blocks left to try
    tried: list[set[int]] = [set()] * t  # each node that opens gets its own set
    last = items[-1]
    nodes, budget = 0, min(MMS_NODE_BUDGET, MMS_LOAD_BUDGET // k)
    i = 0
    while True:
        # Enter the node at depth i: close it, cut it, or open it.
        nodes += 1
        if nodes > budget:
            raise SizeGuardError(f"min-max branch-and-bound exceeded its budget of {budget} nodes")
        w = items[i]
        blocks[i] = no_blocks  # no child to try unless the node opens
        if w == last:
            # All remaining items are equal: close the node exactly. This
            # holds at i = t - 1, so no node has depth t.
            val, counts = _waterfill(loads, w, t - i)
            if val < best_val:
                pos = i
                for j in range(k):
                    for _ in range(counts[j]):
                        assign[pos] = j
                        pos += 1
                best_val = val
                best_assign = assign.copy()
        elif max(max(loads), global_lb, min(loads) + w) < best_val:  # lb, a bound on every leaf below
            state = (i, tuple(sorted(loads)))
            if state not in seen:
                # The room bound: the loads plus what each block can still
                # take below best_val must make up the total.
                short = 0
                if reach is not None:
                    r, short = reach[i], total
                    for load in loads:
                        short -= load + (r & ((1 << (best_val - load)) - 1)).bit_length() - 1
                if short <= 0:
                    seen.add(state)
                    blocks[i] = iter(range(k))
                    tried[i] = set()
        # Step to the next child of the deepest node that has one, backing up
        # past every node whose children are all tried.
        while True:
            w = items[i]
            done = tried[i]
            for j in blocks[i]:
                old = loads[j]
                if old in done:
                    continue
                done.add(old)
                if old + w < best_val:
                    loads[j] = old + w
                    assign[i] = j
                    break
            else:
                if i == 0:
                    return best_val, tuple(best_assign)
                i -= 1
                loads[assign[i]] -= items[i]
                continue
            break
        i += 1


def _grouped_min_max(groups: Sequence[tuple[tuple[int, ...], int]], cap: int | None, den: int, k: int) -> MmsResult:
    """Exact MMS of a capped sum over groups (``CostFunction.sum_groups``).

    Concentrating a group in one block never raises the max, so the optimum
    keeps groups whole: a min-max partition of the group weights into at
    most k blocks, of which no more than one per group is ever used. Every
    partition's max block sum is >= the uncapped optimum, so the capped
    optimum is exactly min(cap, uncapped optimum) and any uncapped witness
    attains it. Weights are divided once by g, their gcd with ``den``, which
    puts them over the lcm of the denominators of the weights in play and
    keeps the search's lower bound, a ceiling of total / k, as tight as it
    gets. For k=2 within ``_reach_fits`` one forward subset-sum bitset gives
    the optimum (a split's value does not depend on the item order), and
    ``_grouped_partition`` builds the witness from the same scaled weights
    on its first read; every other share builds it at once.
    """
    g = math.gcd(den, *(w for _, w in groups))
    weights = [w // g for _, w in groups]
    total = sum(weights)
    if k == 2 and _reach_fits(len(weights), total):
        reach = 1
        for w in weights:
            reach |= reach << w
        best = _two_way_optimum(reach, total) * g
        value = Fraction(best if cap is None else min(best, cap), den)
        return MmsResult._deferred(value, lambda: _grouped_partition(groups, weights, 2)[1])
    best, witness = _grouped_partition(groups, weights, k)
    best *= g
    return MmsResult(value=Fraction(best if cap is None else min(best, cap), den), witness=witness)


def _grouped_partition(
    groups: Sequence[tuple[tuple[int, ...], int]], weights: Sequence[int], k: int
) -> tuple[int, tuple[frozenset[int], ...]]:
    """The min-max value of the scaled ``weights`` of ``groups`` and its witness, padded to k blocks.

    Groups are ordered by descending weight, then by first chore; as they
    are disjoint, no two tie on both, so the chore tuples are never compared.
    """
    order = sorted([(-w, members[0], members) for (members, _), w in zip(groups, weights)])
    items = [-neg for neg, _, _ in order]
    parts: list[list[int]] = [[] for _ in range(min(k, len(items)))]
    best, assign = _min_max_partition(items, len(parts))
    for (_, _, members), b in zip(order, assign):
        parts[b] += members
    return best, _pad([frozenset(part) for part in parts], k)


# ---------------------------------------------------------------------------
# Two-way split scan
# ---------------------------------------------------------------------------


def _two_partition_scan(fn: CostFunction, elems: tuple[int, ...]) -> MmsResult:
    """Exact k=2 MMS of a nonempty chore set, by a scan of every two-way split, up to ``PAIRWISE_MAX_CHORES`` chores."""
    t = len(elems)
    if t > PAIRWISE_MAX_CHORES:
        raise SizeGuardError(f"two-way split scan limited to {PAIRWISE_MAX_CHORES} chores, got {t} chores")
    table = fn.int_table(elems)
    full = (1 << t) - 1
    best = None
    best_mask = 1
    # Element 0 pinned to the first side: each unordered split visited once.
    for x in range(1 << (t - 1)):
        s = (x << 1) | 1
        a, b = table[s], table[full ^ s]
        val = a if a > b else b
        if best is None or val < best:
            best = val
            best_mask = s
    side_a = frozenset(elems[i] for i in range(t) if best_mask >> i & 1)
    side_b = frozenset(elems) - side_a
    return MmsResult(value=Fraction(best, fn.denominator()), witness=(side_a, side_b))


# ---------------------------------------------------------------------------
# Exact dispatcher and the pairwise share
# ---------------------------------------------------------------------------


def _solve(fn: CostFunction, elems: tuple[int, ...], k: int) -> MmsResult:
    """Exact MMS of sorted, checked chores: the one place that picks a route, from the cost's form and k alone."""
    if not elems:
        return MmsResult(value=Fraction(0), witness=_pad([], k))
    grouped = fn.sum_groups(elems)
    if grouped is not None:
        return _grouped_min_max(*grouped, fn.denominator(), k)
    if k == 2:
        return _two_partition_scan(fn, elems)
    return _enumerate_partitions(fn, elems, k)


def mms_value(inst: Instance, agent: int, k: int, chores: Iterable[int] | None = None) -> MmsResult:
    """Exact MMS via the cheapest route available for the agent's cost (``_solve``).

    Capped sums over groups (additive, capped-additive, capped-cardinality and
    coverage costs) use the min-max partition of group weights, whose node
    and load budgets are its only refusal; for k=2 within
    ``TWO_WAY_REACH_BITS`` the value comes first and that partition is
    built as the witness on its first read. Costs without that form, such
    as tables, take the two-way split scan for k=2 up to
    ``PAIRWISE_MAX_CHORES`` chores and enumeration otherwise: k=1 at any
    chore count, any other k up to ``ENUM_MAX_CHORES``.
    """
    elems = _query(inst, agent, k, chores)
    return _solve(inst.costs[agent], elems, k)


def pairwise_mms(inst: Instance, agent: int, a: Iterable[int], b: Iterable[int]) -> MmsResult:
    """The pairwise share MMS_i(2, a | b): ``_solve`` with k=2 over two disjoint bundles."""
    inst.check_agent(agent)
    set_a, set_b = inst.check_chores(a), inst.check_chores(b)
    if set_a & set_b:
        raise ArgumentError(f"bundles overlap on chores {sorted(set_a & set_b)}")
    return _solve(inst.costs[agent], tuple(sorted(set_a | set_b)), 2)

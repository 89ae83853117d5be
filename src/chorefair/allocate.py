"""Constructive allocation procedures.

All allocators return an ``AllocatorOutcome`` carrying the allocation, its
exact social cost, and an ordered trace of the decisions taken. The two
two-agent procedures assert their fairness and price postconditions at
runtime; a violation would be an internal bug, not a user error. Each builds
one criteria-kernel context per call and checks its output on it, against the
optimum it already holds. On additive instances every allocator reads costs
as the integer table of ``search.unit_costs``, whose rows are each cost's
``Additive.int_singles``, and sorts, sums and compares those integers: the
two-agent procedures order chores by an exact integer key for each cost
ratio, and check their price bound as an integer product. A ``Fraction`` is
built only for a reported value (a social cost or a trace entry's cost),
and for the optimum only in the message of a violated price bound. An
allocation given as each chore's agent is built by
``Allocation.from_assignment``, which keeps its masks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterator, Sequence

from .criteria import Criterion, InstanceContext, context_for
from .errors import ArgumentError, InternalError, PreconditionError, SizeGuardError
from .mms import mms_value
from .model import Allocation, Instance, mask_of, normalize, rational_str
from .search import cheapest_accepted, cheapest_agents, unit_costs

__all__ = [
    "AllocatorOutcome",
    "social_cost",
    "optimal_allocation",
    "round_robin",
    "best_round_robin_order",
    "alg1_two_agent_ef1",
    "pmms32_two_agent",
]

BEST_ORDER_MAX_AGENTS = 8
#: Largest n! * m the best-order search takes: every order makes m picks.
BEST_ORDER_MAX_PICKS = 10_000_000
#: What each two-agent procedure asserts on its output: (criterion, fairness level, price bound p, q).
_EF1_GUARANTEE = (Criterion.EF1, Fraction(1), 5, 4)
_PMMS32_GUARANTEE = (Criterion.PMMS, Fraction(3, 2), 7, 6)


@dataclass(frozen=True)
class AllocatorOutcome:
    allocation: Allocation
    social_cost: Fraction
    trace: tuple[dict, ...]


def social_cost(inst: Instance, alloc: Allocation) -> Fraction:
    return sum((inst.cost(agent, bundle) for agent, bundle in enumerate(alloc.bundles)), Fraction(0))


def _outcome(scale: int, unit: list[list[int]], alloc: Allocation, trace: list[dict]) -> AllocatorOutcome:
    total = sum(unit[agent][d] for agent, bundle in enumerate(alloc.bundles) for d in bundle)
    return AllocatorOutcome(allocation=alloc, social_cost=Fraction(total, scale), trace=tuple(trace))


def optimal_allocation(inst: Instance) -> AllocatorOutcome:
    """Minimum social cost allocation.

    Additive costs decompose per chore, so each chore goes to an agent with
    minimal cost for it (ties to the lowest agent index). Other cost
    functions are handled by the guarded exact search of
    ``search.cheapest_accepted``, which prunes subtrees that cannot beat the
    cheapest allocation found so far by a bound read from each cost's groups
    (``sum_groups``); of several optima it returns the
    first in lexicographic order of the assignment vector. On monotone
    costs the search starts from its seed's cost (``cheapest_accepted``),
    so it prunes from the first leaf on.
    """
    if inst.is_additive():
        scale, unit = unit_costs(inst)
        assignment = cheapest_agents(unit)
        trace = [
            {"op": "assign", "chore": d, "agent": a, "cost": rational_str(Fraction(unit[a][d], scale))}
            for d, a in enumerate(assignment)
        ]
        return _outcome(scale, unit, Allocation.from_assignment(assignment, inst.n), trace)

    opt, _, masks = cheapest_accepted(inst, lambda masks: True)
    assert masks is not None
    alloc = Allocation._of_masks(masks)
    trace = (
        {"op": "enumerate", "candidates": inst.n**inst.m},
        {"op": "select", "assignment": list(alloc.assignment(inst.m))},
    )
    return AllocatorOutcome(allocation=alloc, social_cost=opt, trace=trace)


def _ranked(unit: list[list[int]]) -> list[list[int]]:
    """Each agent's chores by (cost, index)."""
    return [sorted(range(len(row)), key=row.__getitem__) for row in unit]


def _picks(order: Sequence[int], ranked: list[list[int]]) -> Iterator[tuple[int, int]]:
    """(agent, chore) per turn: each agent takes the first untaken chore of its ``_ranked`` list."""
    taken = [False] * len(ranked[0])
    untaken = [itertools.filterfalse(taken.__getitem__, row) for row in ranked]
    for agent in itertools.islice(itertools.cycle(order), len(taken)):
        chore = next(untaken[agent])
        taken[chore] = True
        yield agent, chore


def round_robin(inst: Instance, order: Sequence[int] | None = None) -> AllocatorOutcome:
    """Agents pick, in rotation, a cheapest remaining chore.

    Ties break toward the lowest chore index. Additive costs only: that is
    the setting in which the result is guaranteed EF1.
    """
    if not inst.is_additive():
        raise PreconditionError("round robin requires additive cost functions")
    order = tuple(order if order is not None else range(inst.n))
    if any(not isinstance(a, int) or isinstance(a, bool) for a in order) or sorted(order) != list(range(inst.n)):
        raise ArgumentError(f"order must be a permutation of 0..{inst.n - 1}, got {order}")
    scale, unit = unit_costs(inst)
    masks = [0] * inst.n
    trace: list[dict] = [{"op": "order", "order": list(order)}]
    for agent, chore in _picks(order, _ranked(unit)):
        masks[agent] |= 1 << chore
        cost = rational_str(Fraction(unit[agent][chore], scale))
        trace.append({"op": "pick", "agent": agent, "chore": chore, "cost": cost})
    return _outcome(scale, unit, Allocation._of_masks(masks), trace)


def best_round_robin_order(inst: Instance) -> AllocatorOutcome:
    """Cheapest round-robin outcome over all agent orders.

    For a normalized instance the average social cost over the n! orders is
    at most 1, so the best order is too; this is asserted on the result.
    """
    if not inst.is_additive():
        raise PreconditionError("round robin requires additive cost functions")
    if not inst.normalized:
        raise PreconditionError("best-order search requires a normalized instance")
    if inst.n > BEST_ORDER_MAX_AGENTS:
        raise SizeGuardError(f"order search limited to n <= {BEST_ORDER_MAX_AGENTS}, got {inst.n}")
    picks = math.factorial(inst.n) * inst.m
    if picks > BEST_ORDER_MAX_PICKS:
        raise SizeGuardError(f"order search limited to n! * m <= {BEST_ORDER_MAX_PICKS}, got {picks}")
    _, unit = unit_costs(inst)
    ranked = _ranked(unit)
    # min() keeps the first of several cheapest orders.
    best_order = min(
        itertools.permutations(range(inst.n)),
        key=lambda order: sum(unit[a][d] for a, d in _picks(order, ranked)),
    )
    best = round_robin(inst, best_order)
    if best.social_cost > 1:
        raise InternalError(f"best round-robin order exceeded social cost 1: {best.social_cost}")
    return replace(best, trace=({"op": "best_order", "order": list(best_order)},) + best.trace[1:])


# ---------------------------------------------------------------------------
# Two-agent EF1 at price <= 5/4
# ---------------------------------------------------------------------------


def _two_agent_input(
    inst: Instance, normalize_input: bool, what: str
) -> tuple[Instance, InstanceContext, int, list[list[int]], int]:
    """(instance, context, scale, unit costs, optimum over scale) of a checked two-agent input, normalized if asked."""
    if inst.n != 2:
        raise PreconditionError(f"{what} requires exactly 2 agents, got n={inst.n}")
    if not inst.is_additive():
        raise PreconditionError(f"{what} requires additive cost functions")
    if not inst.normalized:
        if not normalize_input:
            raise PreconditionError(
                f"{what} requires a normalized instance (pass normalize_input=True to rescale)"
            )
        inst = normalize(inst)
    scale, c = unit_costs(inst)
    return inst, context_for(inst), scale, c, sum(map(min, c[0], c[1]))


def _ratio_key(a: int, b: int, scale: int) -> int:
    """floor(a * T / b), T = scale**2, for b > 0: an exact integer sort key for the cost ratio a/b.

    Here a and b are one chore's costs over the instance's ``unit_costs``
    scale. On a normalized instance each agent's costs sum to scale, so
    b, d <= scale, and two different ratios a/b and c/d differ by
    |ad - bc| / bd >= 1/T: times T they are at least 1 apart, and their floors
    keep their order. Equal ratios get equal keys.
    """
    return a * scale * scale // b


def _split(m: int, agent: int, own: int) -> Allocation:
    """The chores of mask ``own`` to ``agent``, every other chore to the other agent."""
    rest = ((1 << m) - 1) ^ own
    return Allocation._of_masks((own, rest) if agent == 0 else (rest, own))


def _checked(ctx: InstanceContext, out: AllocatorOutcome, guarantee: tuple, scale: int, opt: int) -> AllocatorOutcome:
    """``out``, asserted alpha-``crit`` and within p/q of the optimum ``opt`` / ``scale``, for
    ``guarantee`` = (crit, alpha, p, q)."""
    crit, alpha, p, q = guarantee
    found, _, _ = ctx.min_alpha_masks(out.allocation.masks(), crit)
    if found > alpha:
        raise InternalError(f"output is {rational_str(found)}-{crit.value}, not {alpha}-{crit.value}")
    cost = out.social_cost
    if q * scale * cost.numerator > p * opt * cost.denominator:
        raise InternalError(f"price bound violated: SC={cost} vs OPT={Fraction(opt, scale)}")
    return out


def alg1_two_agent_ef1(inst: Instance, normalize_input: bool = False) -> AllocatorOutcome:
    """Two-agent EF1 allocation with social cost at most 5/4 of the optimum.

    Chores are ordered by the agents' cost ratio; the prefix/suffix split at
    the sign-change index is the optimal allocation, and when that is not
    already EF1 the split point is shifted to the largest index that keeps
    the suffix heavier for agent 2.
    """
    inst, ctx, scale, c, opt = _two_agent_input(inst, normalize_input, "the two-agent EF1 algorithm")

    cheap_1 = [e for e in range(inst.m) if c[0][e] < c[1][e]]
    cheap_2 = [e for e in range(inst.m) if c[0][e] > c[1][e]]
    swapped = sum(c[0][e] for e in cheap_1) > sum(c[1][e] for e in cheap_2)
    lo, hi = (1, 0) if swapped else (0, 1)
    c1, c2 = c[lo], c[hi]

    # Ascending c1/c2; zero-c1 chores (and all-zero chores) first, zero-c2
    # chores last, ties by chore index.
    def sort_key(e: int):
        if c1[e] == 0:
            return (0, 0, e)
        if c2[e] == 0:
            return (2, 0, e)
        return (1, _ratio_key(c1[e], c2[e], scale), e)

    ordered = sorted(range(inst.m), key=sort_key)
    trace: list[dict] = [
        {"op": "partition", "cheap_for_agent1": cheap_1, "cheap_for_agent2": cheap_2, "swapped": swapped},
        {"op": "sort", "order": ordered},
    ]

    s = max((pos for pos, e in enumerate(ordered, start=1) if c1[e] < c2[e]), default=0)
    trace.append({"op": "index", "name": "s", "value": s})
    if s >= inst.m and inst.m > 0:
        raise InternalError("split index reached m on a normalized instance")

    if s == 0:
        trace.append({"op": "branch", "case": "round_robin"})
        rr = round_robin(inst, (lo, hi))
        alloc, trace = rr.allocation, trace + list(rr.trace)
    else:
        alloc = _split(inst.m, lo, mask_of(ordered[:s]))
        if ctx.min_alpha_masks(alloc.masks(), Criterion.EF1)[0] == 1:
            trace.append({"op": "branch", "case": "optimal_split_is_ef1"})
        else:
            # Largest f >= s keeping the suffix R(f+2) strictly heavier for
            # agent 2 than the prefix L(f); the proof guarantees it exists here.
            suffix_cost = 0  # c2 of ordered[f+1:]
            prefix_cost = sum(c2[e] for e in ordered[: inst.m - 1])
            for f in range(inst.m - 2, s - 1, -1):
                suffix_cost += c2[ordered[f + 1]]
                prefix_cost -= c2[ordered[f]]
                if suffix_cost > prefix_cost:
                    break
            else:
                raise InternalError("shift index is undefined although the optimal split is not EF1")
            trace.append({"op": "index", "name": "f", "value": f})
            trace.append({"op": "branch", "case": "shifted_split"})
            alloc = _split(inst.m, lo, mask_of(ordered[: f + 1]))
    return _checked(ctx, _outcome(scale, c, alloc, trace), _EF1_GUARANTEE, scale, opt)


# ---------------------------------------------------------------------------
# Two-agent 3/2-PMMS at price <= 7/6
# ---------------------------------------------------------------------------


def pmms32_two_agent(inst: Instance, normalize_input: bool = False) -> AllocatorOutcome:
    """Two-agent 3/2-PMMS allocation with social cost at most 7/6 of the optimum.

    Starts from the per-chore-minimum optimum (ties to agent 0); when one
    agent exceeds 3/2 of their half-split share, chores are moved off that
    bundle in descending cost-ratio order following a three-case repair.
    """
    inst, ctx, scale, c, opt = _two_agent_input(inst, normalize_input, "the two-agent 3/2-PMMS constructor")
    assignment = [1 if c[1][e] < c[0][e] else 0 for e in range(inst.m)]
    start = Allocation.from_assignment(assignment, 2)
    bundles = start.bundles
    totals = [sum(c[i][e] for e in bundles[i]) for i in range(2)]
    shares = [mms_value(inst, i, 2).value for i in range(2)]
    trace: list[dict] = [
        {"op": "optimal", "assignment": assignment},
        {"op": "half_split_shares", "values": [rational_str(v) for v in shares]},
    ]

    def violates(i: int, cost: int) -> bool:  # cost / scale > 3/2 * shares[i]
        return 2 * cost * shares[i].denominator > 3 * scale * shares[i].numerator

    violators = [i for i in range(2) if violates(i, totals[i])]
    # Normalized costs make a double violation impossible: each violator's
    # bundle would cost more than 3/4, while the optimum costs at most 1.
    if len(violators) > 1:
        raise InternalError("both agents violate 3/2-PMMS in an optimal allocation")

    if not violators:
        trace.append({"op": "case", "label": "optimal_already_fair"})
        return _checked(ctx, _outcome(scale, c, start, trace), _PMMS32_GUARANTEE, scale, opt)

    v = violators[0]
    cv, co = c[v], c[1 - v]

    # Descending cv/co over the violator's bundle, chores free for the violator
    # last; the bundle holds no chore with cv > co, so co > 0 wherever cv > 0.
    def sort_key(e: int):
        if cv[e] == 0:
            return (0, 0, e)
        return (-1, -_ratio_key(cv[e], co[e], scale), e)

    ordered = sorted(bundles[v], key=sort_key)
    own_total = totals[v]
    prefix_cost = 0  # cv of ordered[:s]
    for s, e_s in enumerate(ordered, start=1):
        prefix_cost += cv[e_s]
        if not violates(v, own_total - prefix_cost):
            break
    else:
        raise InternalError("prefix index undefined for a 3/2-PMMS violator")
    trace.append({"op": "index", "name": "s", "value": s, "violator": v})

    if 2 * prefix_cost <= own_total:
        trace.append({"op": "case", "label": "move_prefix"})
        new_v = start.masks()[v] ^ mask_of(ordered[:s])
    elif 8 * (co[e_s] - cv[e_s]) <= scale:
        # In an optimal allocation the violator is weakly cheaper on each of
        # its own chores, so this difference is nonnegative.
        if co[e_s] < cv[e_s]:
            raise InternalError("optimal bundle holds a chore the other agent values less")
        trace.append({"op": "case", "label": "move_boundary_chore"})
        new_v = start.masks()[v] ^ (1 << e_s)
    else:
        trace.append({"op": "case", "label": "isolate_boundary_chore"})
        new_v = 1 << e_s
    outcome = _outcome(scale, c, _split(inst.m, v, new_v), trace)
    return _checked(ctx, outcome, _PMMS32_GUARANTEE, scale, opt)

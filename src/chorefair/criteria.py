"""Fairness criteria: minimal approximation factors and implied guarantees.

``min_alpha`` returns the smallest alpha in ``[1, inf]`` for which a given
allocation satisfies a criterion. Ratio conventions make it total: a
comparison with zero on the left contributes 1, and a positive left side
against a zero right side contributes infinity.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

from .errors import ArgumentError, NotInTableError, SizeGuardError
from .mms import mms_value
from .model import (
    INFINITY,
    Additive,
    Allocation,
    ExtendedRational,
    Instance,
    check_partition,
    mask_evaluator,
    parse_rational,
    set_of,
)

__all__ = [
    "Criterion",
    "FairnessReport",
    "Guarantee",
    "min_alpha",
    "fairness_report",
    "satisfies",
    "implied_guarantee",
    "DEFAULT_CRITERIA",
    "SETTINGS",
]


class Criterion(Enum):
    EF = "EF"
    EF1 = "EF1"
    EFX = "EFX"
    EFX_STRONG = "EFX_STRONG"
    MMS = "MMS"
    PMMS = "PMMS"

    @classmethod
    def parse(cls, name: str) -> "Criterion":
        try:
            return cls[name.strip().upper()]
        except KeyError:
            raise ArgumentError(f"unknown criterion {name!r}") from None


DEFAULT_CRITERIA = (Criterion.EF, Criterion.EFX, Criterion.EF1, Criterion.MMS, Criterion.PMMS)
SETTINGS = ("additive", "submodular")


@dataclass(frozen=True)
class FairnessReport:
    """Per-criterion minimal alpha with the pair attaining it."""

    alphas: Mapping[Criterion, ExtendedRational]
    witnesses: Mapping[Criterion, dict | None]
    mms_values: Mapping[Criterion, dict]

    def alpha_str(self) -> dict[str, str]:
        from .model import rational_str

        return {c.value: rational_str(a) for c, a in self.alphas.items()}


_ONE = Fraction(1)
#: Where each removal criterion's (left cost, chore) pair sits in ``InstanceContext.removals``.
_REMOVAL_SLOT = {Criterion.EF1: 0, Criterion.EFX: 2, Criterion.EFX_STRONG: 4}


class InstanceContext:
    """Caches bundle costs and MMS shares across many allocations of one instance.

    The exhaustive search layer reuses one context for a whole enumeration,
    which is where the memoization pays off. Every memo holds agent i's
    values as integers over its own ``denominator()`` d_i: d_i * c_i(S) from
    ``mask_evaluator``, and d_i times an MMS share, which is c_i of a block.
    One share memo per agent, keyed by (k, chore mask), serves MMS (k = n
    over every chore) and PMMS (k = 2 over a pairwise union), so with two
    agents both read one entry. It keeps each share's ``Fraction`` beside
    its integer, so a report reuses one ``Fraction`` per share.

    It keeps each additive agent's row, d_i * c_i({e}) per chore e, as its
    cost stores it (``int_singles``), and reads single-chore costs from it,
    not from m one-bit memo entries. A non-additive agent has no row: one
    would take m evaluations, where a removal scan reads only the chores of
    one bundle, so its single-chore costs go through the memo.
    """

    def __init__(self, inst: Instance) -> None:
        self.inst = inst
        self._every = (1 << inst.m) - 1
        self._eval = [mask_evaluator(fn) for fn in inst.costs]
        self._den = [fn.denominator() for fn in inst.costs]
        self._row = [fn.int_singles() if isinstance(fn, Additive) else None for fn in inst.costs]
        self._bundle: list[dict[int, int]] = [dict() for _ in range(inst.n)]
        self._shares: list[dict[tuple[int, int], tuple[int, Fraction]]] = [dict() for _ in range(inst.n)]
        self._removal: list[dict[int, tuple]] = [dict() for _ in range(inst.n)]

    def bundle_cost(self, agent: int, mask: int) -> int:
        memo = self._bundle[agent]
        c = memo.get(mask)
        if c is None:
            c = self._eval[agent](mask)
            memo[mask] = c
        return c

    def share(self, agent: int, k: int, mask: int) -> tuple[int, Fraction]:
        """(d_i times agent i's k-way share of the chores in ``mask``, the share)."""
        memo = self._shares[agent]
        value = memo.get((k, mask))
        if value is None:
            chores = range(self.inst.m) if mask == self._every else set_of(mask)
            share = mms_value(self.inst, agent, k, chores).value
            value = memo[(k, mask)] = share.numerator * self._den[agent] // share.denominator, share
        return value

    def share_cap(self, crit: Criterion, alpha: ExtendedRational) -> Callable[[int], int | None] | None:
        """Agent i -> the largest x = d_i * c_i(S_i) of a bundle S_i that can pass alpha-``crit``.

        Every cap is known before the search's first leaf. Alpha-MMS asks
        x <= alpha * d_i * MMS, and with two agents the pairwise union is
        every chore, so PMMS asks the same. Both compute the memoized share
        (n, every chore), which the kernel then reuses. A share the solver
        refuses with ``SizeGuardError`` gives None, no cap; the kernel raises
        that error if, and only if, a leaf needs the share.

        Closed-form caps, additive instances only, with alpha = p/q, C = d_i *
        c_i(all chores) and t = d_i * (largest single-chore cost), the
        maximum of the agent's row. Alpha-EF1
        asks x - t <= alpha * d_i * c_i(S_j) for each j != i; the other
        bundles cost C - x together, so x * (q(n-1) + p) <= p*C + q(n-1)*t.
        EFX and strong EFX imply EF1 (a positive-cost additive bundle holds a
        positive-cost chore); EF is the case t = 0. List scheduling gives
        2 * MMS_2(T) <= c_i(T) + t (Graham 1969), so alpha-PMMS asks
        2q*x <= p * (x + d_i * c_i(S_j) + t) for each j != i, and summing,
        x * (2q(n-1) - p(n-2)) <= p * (C + (n-1)*t): a cap for n >= 3 when
        2q(n-1) > p(n-2). Any other case gets no function.
        """
        if alpha == INFINITY:
            return None
        n, p, q = self.inst.n, alpha.numerator, alpha.denominator
        if crit is Criterion.MMS or (crit is Criterion.PMMS and n == 2):

            def cap(agent: int) -> int | None:
                try:
                    return p * self.share(agent, n, self._every)[0] // q
                except SizeGuardError:
                    return None

            return cap
        if crit is Criterion.PMMS:  # x * div <= p*C + top_k*t
            top_k, div = p * (n - 1), 2 * q * (n - 1) - p * (n - 2)
        else:
            top_k, div = (0 if crit is Criterion.EF else q * (n - 1)), q * (n - 1) + p
        if div <= 0 or None in self._row:
            return None

        def closed_cap(agent: int) -> int:
            top = max(self._row[agent], default=0) if top_k else 0
            return (p * self.bundle_cost(agent, self._every) + top_k * top) // div

        return closed_cap

    def removals(self, agent: int, mask: int) -> tuple:
        """One scan of the costs of ``mask`` less each of its chores.

        Returns (best, its chore, worst over positive-cost chores, its chore,
        worst, its chore). Chores are scanned in ascending order and replace
        a value only when strictly better, so on ties the first chore stays.
        An additive agent reads c({e}) from its row and its cost less chore
        e as own - c({e}), so no bundle less a chore and no single chore is
        evaluated; a non-additive agent evaluates both through the memo.
        """
        memo = self._removal[agent]
        hit = memo.get(mask)
        if hit is None:
            best = best_chore = worst_pos = worst_pos_chore = worst = worst_chore = None
            row = self._row[agent]
            own = None if row is None else self.bundle_cost(agent, mask)
            rest = mask
            while rest:
                low = rest & -rest
                rest ^= low
                e = low.bit_length() - 1
                if row is None:
                    single = self.bundle_cost(agent, low)
                    left = self.bundle_cost(agent, mask ^ low)
                else:
                    single = row[e]
                    left = own - single
                if best is None or left < best:
                    best, best_chore = left, e
                if worst is None or left > worst:
                    worst, worst_chore = left, e
                if single > 0 and (worst_pos is None or left > worst_pos):
                    worst_pos, worst_pos_chore = left, e
            hit = memo[mask] = (best, best_chore, worst_pos, worst_pos_chore, worst, worst_chore)
        return hit

    # -- minimal alpha -----------------------------------------------------

    def min_alpha_masks(self, masks: Sequence[int], crit: Criterion):
        """Returns (alpha, witness dict or None, mms values used).

        Each ratio left/right pairs two integers of one agent. The maximum is
        kept as (num, den), den 0 meaning infinity, and a ratio replaces it
        only when strictly larger, so the first witness is kept.
        """
        n = self.inst.n
        bundle_cost = self.bundle_cost
        best_num, best_den = 1, 1
        found = None  # (agent, against, chore) of the maximum
        mms_used: dict = {}
        for i in range(n):
            own = bundle_cost(i, masks[i])
            if own == 0:
                continue  # contributes 1 to every criterion
            left, chore = own, None
            if crit is Criterion.MMS:
                right, mms_used[i] = self.share(i, n, self._every)
                rights = ((None, right),)
            elif crit is Criterion.PMMS:
                rights = []
                for j in range(n):
                    if j != i:
                        right, mms_used[(i, j)] = self.share(i, 2, masks[i] | masks[j])
                        rights.append((j, right))
            else:
                if crit is not Criterion.EF:
                    slot = _REMOVAL_SLOT.get(crit)
                    if slot is None:
                        raise ArgumentError(f"unknown criterion {crit!r}")
                    left, chore = self.removals(i, masks[i])[slot : slot + 2]
                    if left is None:
                        continue  # EFX with no positive-cost chore to remove: vacuous
                rights = [(j, bundle_cost(i, masks[j])) for j in range(n) if j != i]
            for j, right in rights:
                # left <= right counts as 1, left > right == 0 as infinity
                if left > right and best_den and (right == 0 or left * best_den > best_num * right):
                    best_num, best_den = (left, right) if right else (1, 0)
                    found = (i, j, chore)
        witness = None if found is None else {"agent": found[0], "against": found[1], "chore": found[2]}
        if best_den == 0:
            return INFINITY, witness, mms_used
        return (_ONE if best_num == best_den else Fraction(best_num, best_den)), witness, mms_used


def context_for(inst: Instance) -> InstanceContext:
    """A fresh memoizing context for one query on ``inst``.

    Each ``min_alpha``, ``fairness_report`` and ``best_fair_allocation`` call
    owns its context, so no memo outlives the query or keeps its instance alive.
    """
    return InstanceContext(inst)


def min_alpha(inst: Instance, alloc: Allocation, crit: Criterion) -> ExtendedRational:
    """Smallest alpha in [1, inf] for which ``alloc`` is alpha-``crit``."""
    return fairness_report(inst, alloc, (crit,)).alphas[crit]


def fairness_report(
    inst: Instance, alloc: Allocation, criteria: Iterable[Criterion] = DEFAULT_CRITERIA
) -> FairnessReport:
    check_partition(inst, alloc)
    ctx = context_for(inst)
    masks = alloc.masks()
    alphas: dict[Criterion, ExtendedRational] = {}
    witnesses: dict[Criterion, dict | None] = {}
    mms_used: dict[Criterion, dict] = {}
    for crit in criteria:
        value, wit, shares = ctx.min_alpha_masks(masks, crit)
        alphas[crit] = value
        witnesses[crit] = wit
        mms_used[crit] = shares
    return FairnessReport(alphas=alphas, witnesses=witnesses, mms_values=mms_used)


def parse_alpha(alpha) -> ExtendedRational:
    """A fairness level: an exact rational >= 1, or ``INFINITY``."""
    if isinstance(alpha, float):
        if alpha != INFINITY:
            raise ArgumentError(f"alpha must be an exact rational or infinity, got {alpha!r}")
        return alpha
    alpha = parse_rational(alpha)
    if alpha < 1:
        raise ArgumentError(f"alpha must be >= 1, got {alpha}")
    return alpha


def satisfies(inst: Instance, alloc: Allocation, crit: Criterion, alpha) -> bool:
    alpha = parse_alpha(alpha)
    return min_alpha(inst, alloc, crit) <= alpha


# ---------------------------------------------------------------------------
# Implied guarantees between criteria
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Guarantee:
    """Outcome of an implied-guarantee lookup.

    kind is one of:
      * "bound"        -- any alpha-src allocation is value-dst;
      * "unbounded"    -- no finite guarantee exists;
      * "trivial_only" -- nothing beyond the universal subadditive guarantee
                          (2 for PMMS, n for MMS), carried in ``value``.
    """

    kind: str
    value: Fraction | None = None


def _any(a: Fraction, n: int) -> bool:
    return True


def _n_at_least_3(a: Fraction, n: int) -> bool:
    return n >= 3


def _two(a: Fraction, n: int) -> Fraction:
    return Fraction(2)


# Rows (applies(a, n), kind, value(a, n) or None); the first row that applies answers.
_BOUND_ALPHA = ((_any, "bound", lambda a, n: a),)
_UNBOUNDED = ((_any, "unbounded", None),)
_TRIVIAL_MMS = ((_any, "trivial_only", lambda a, n: Fraction(n)),)
_TRIVIAL_PMMS = ((_any, "trivial_only", _two),)
_MMS_TO_PMMS = ((_n_at_least_3, "trivial_only", _two),)
_MMS_TO_ENVY = ((_n_at_least_3, "unbounded", None),)
_PMMS_TO_ENVY = (
    (lambda a, n: a == 1, "bound", lambda a, n: Fraction(1)),
    (lambda a, n: 1 < a <= 2, "unbounded", None),
)

_EF, _EF1, _EFX, _MMS, _PMMS = Criterion.EF, Criterion.EF1, Criterion.EFX, Criterion.MMS, Criterion.PMMS

#: The paper's two guarantee tables, keyed by (setting, src, dst).
_GUARANTEES = {
    ("additive", _EF, _EF1): _BOUND_ALPHA,
    ("additive", _EF, _EFX): _BOUND_ALPHA,
    ("additive", _EF, _MMS): ((_any, "bound", lambda a, n: n * a / (n - 1 + a)),),
    ("additive", _EF, _PMMS): ((_any, "bound", lambda a, n: 2 * a / (a + 1)),),
    ("additive", _EFX, _EF1): _BOUND_ALPHA,
    ("additive", _EFX, _MMS): (
        (_any, "bound", lambda a, n: min(2 * n * a / (n - 1 + 2 * a), (n * a + n - 1) / (n - 1 + a))),
    ),
    ("additive", _EFX, _PMMS): ((_any, "bound", lambda a, n: 4 * a / (2 * a + 1)),),
    ("additive", _EF1, _EFX): _UNBOUNDED,
    ("additive", _EF1, _MMS): ((_any, "bound", lambda a, n: (n * a + n - 1) / (n - 1 + a)),),
    ("additive", _EF1, _PMMS): ((_any, "bound", lambda a, n: (2 * a + 1) / (a + 1)),),
    ("additive", _PMMS, _EF1): _PMMS_TO_ENVY,
    ("additive", _PMMS, _EFX): _PMMS_TO_ENVY,
    ("additive", _PMMS, _MMS): (
        (lambda a, n: a == 1 and n == 3, "bound", lambda a, n: Fraction(4, 3)),
        (lambda a, n: a == 1 and n >= 4, "bound", lambda a, n: Fraction(2 * n, n + 1)),
        (
            lambda a, n: 1 < a < Fraction(3, 2) and n >= 3,
            "bound",
            lambda a, n: n * a / (a + (n - 1) * (1 - a / 2)),
        ),
    ),
    ("additive", _MMS, _PMMS): _MMS_TO_PMMS,
    ("additive", _MMS, _EF1): _MMS_TO_ENVY,
    ("additive", _MMS, _EFX): _MMS_TO_ENVY,
    ("submodular", _EF, _EF1): _BOUND_ALPHA,
    ("submodular", _EF, _EFX): _BOUND_ALPHA,
    ("submodular", _EF, _MMS): _TRIVIAL_MMS,
    ("submodular", _EF, _PMMS): _TRIVIAL_PMMS,
    ("submodular", _EFX, _EF1): _BOUND_ALPHA,
    ("submodular", _EFX, _MMS): _TRIVIAL_MMS,
    ("submodular", _EFX, _PMMS): _TRIVIAL_PMMS,
    ("submodular", _EF1, _EFX): _UNBOUNDED,
    ("submodular", _EF1, _MMS): _TRIVIAL_MMS,
    ("submodular", _EF1, _PMMS): _TRIVIAL_PMMS,
    ("submodular", _PMMS, _EF1): _UNBOUNDED,
    ("submodular", _PMMS, _EFX): _UNBOUNDED,
    ("submodular", _PMMS, _MMS): (
        (lambda a, n: 1 <= a <= 2, "bound", lambda a, n: min(Fraction(n), a * ((n + 1) // 2))),
    ),
    ("submodular", _MMS, _PMMS): _MMS_TO_PMMS,
    ("submodular", _MMS, _EF1): _MMS_TO_ENVY,
    ("submodular", _MMS, _EFX): _MMS_TO_ENVY,
}


def implied_guarantee(
    src: Criterion, alpha, dst: Criterion, n: int, setting: str = "additive"
) -> Guarantee:
    """Best known guarantee of an alpha-src allocation for criterion dst.

    Only encoded statements are answered; anything outside their validity
    ranges raises ``NotInTableError`` rather than guessing.
    """
    alpha = parse_rational(alpha)
    if alpha < 1:
        raise ArgumentError(f"alpha must be >= 1, got {alpha}")
    if not isinstance(n, int) or n < 2:
        raise ArgumentError(f"agent count must be an integer >= 2, got {n!r}")
    if setting not in SETTINGS:
        raise ArgumentError(f"setting must be one of {SETTINGS}, got {setting!r}")
    if src is Criterion.EFX_STRONG or dst is Criterion.EFX_STRONG:
        raise NotInTableError("no encoded guarantees involve the strong EFX variant")
    for applies, kind, value in _GUARANTEES.get((setting, src, dst), ()):
        if applies(alpha, n):
            return Guarantee(kind, None if value is None else value(alpha, n))
    raise NotInTableError(
        f"no encoded guarantee for {alpha}-{src.value} -> {dst.value} "
        f"with n={n} in the {setting} setting"
    )

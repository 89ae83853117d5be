"""Parametric instance families with reference allocations and exact expectations.

Each family packages one extremal construction: an instance, the allocation
exhibiting the extreme behaviour, and the closed-form values it attains.
Connection families pin minimal alphas for several criteria at once. The
first is the family's ``source``: the criterion and alpha its reference
allocation is built to meet, whose implied guarantees bound the others.
Price families pin the optimal social cost, the cheapest fair cost, and
their ratio. Every expectation is exact at the given parameters and is
re-derived by the search layer in tests.

Adding a family takes one builder decorated with ``@_family(id, setting,
kind)``. Its parameter names are read from its signature (``n``, ``m`` and
``p`` are integers, ``alpha`` and ``epsilon`` exact rationals). Before the
call, ``make_family`` converts them and checks the domain that every family
shares for a name (``_SHARED``). A builder whose size depends on its
parameters checks its agent and chore counts with ``_sized`` before it
builds any list. It checks only its narrower constraints, such as n >= 3 or
epsilon < 1/8, with ``_require`` and returns plain data: ``costs`` (one cost
function per agent), ``bundles`` (the reference partition) and its
expectations, a price family's checks as (criterion, alpha, fair cost)
triples. ``make_family`` builds the ``Instance`` and the ``Allocation`` from
them and gives each check its price with ``price_ratio``. The reference
bundles partition every chore, so n is their count and m the number of
chores they hold; ``Instance`` then checks the cost count and each cost's
ground size. Registration order is the order of ``FAMILY_IDS``.
"""

from __future__ import annotations

import inspect
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .criteria import Criterion
from .errors import ArgumentError, SizeGuardError
from .model import (
    INFINITY,
    MAX_CHORES,
    Additive,
    Allocation,
    CappedAdditive,
    CappedCardinality,
    CostFunction,
    ExtendedRational,
    Instance,
    RowCoverage,
    TableCost,
    allocation_to_json,
    check_partition,
    instance_to_json,
    parse_rational,
    price_ratio,
    rational_str,
)

__all__ = ["PriceCheck", "FamilyBundle", "FAMILY_IDS", "make_family", "family_to_json", "valid_params"]


@dataclass(frozen=True)
class PriceCheck:
    criterion: Criterion
    alpha: Fraction
    fair_cost: Fraction
    price: Fraction


@dataclass(frozen=True)
class FamilyBundle:
    family_id: str
    params: tuple[tuple[str, object], ...]
    setting: str
    kind: str  # "connection" | "price"
    instance: Instance
    reference_allocation: Allocation
    expected_alphas: tuple[tuple[Criterion, ExtendedRational], ...] = ()
    expected_values: tuple[tuple[str, Fraction], ...] = ()
    opt_cost: Fraction | None = None
    price_checks: tuple[PriceCheck, ...] = ()

    @property
    def params_dict(self) -> dict:
        return dict(self.params)

    @property
    def source(self) -> tuple[Criterion, ExtendedRational] | None:
        """The (criterion, alpha) a connection family starts from: its first expected alpha."""
        return self.expected_alphas[0] if self.expected_alphas else None

    @property
    def alphas_dict(self) -> dict[Criterion, ExtendedRational]:
        return dict(self.expected_alphas)


def _int_param(name: str, value) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ArgumentError(f"parameter {name} must be an integer, got {value!r}")
    return value


#: How ``make_family`` converts each parameter name a builder may take.
_CONVERT: dict[str, Callable[[str, object], object]] = {
    "n": _int_param,
    "m": _int_param,
    "p": _int_param,
    "alpha": lambda _, value: parse_rational(value),
    "epsilon": lambda _, value: parse_rational(value),
}

#: The domain every family shares for a parameter name, checked after conversion.
_SHARED: dict[str, tuple[str, Callable[[object], bool]]] = {
    "n": ("n >= 2", lambda n: n >= 2),
    "p": ("p >= 1", lambda p: p >= 1),
    "alpha": ("alpha >= 1", lambda alpha: alpha >= 1),
    "epsilon": ("epsilon > 0", lambda epsilon: epsilon > 0),
}


@dataclass(frozen=True)
class _Family:
    build: Callable[..., dict]
    params: tuple[str, ...]
    setting: str
    kind: str


_FAMILIES: dict[str, _Family] = {}


def _family(family_id: str, setting: str, kind: str) -> Callable:
    """Register the decorated builder as catalog family ``family_id``."""

    def register(build: Callable[..., dict]) -> Callable[..., dict]:
        params = tuple(inspect.signature(build).parameters)
        assert set(params) <= set(_CONVERT), (family_id, params)
        _FAMILIES[family_id] = _Family(build, params, setting, kind)
        return build

    return register


def _identical_additive(n: int, values: list[Fraction]) -> list[CostFunction]:
    return [Additive(tuple(values))] * n


def _indicator_costs(bundles: list[frozenset[int]], m: int) -> list[CostFunction]:
    """One additive function per bundle: 0 on the bundle, 1 elsewhere."""
    return [Additive(tuple(Fraction(0) if e in bundle else Fraction(1) for e in range(m))) for bundle in bundles]


def _blocks(sizes: list[int]) -> list[frozenset[int]]:
    starts = itertools.accumulate(sizes, initial=0)
    return [frozenset(range(start, start + size)) for start, size in zip(starts, sizes)]


def _sized(n: int, m: int) -> int:
    """``m``, once ``n`` agents and ``m`` chores are both within ``MAX_CHORES``.

    Builders call it before any per-agent or per-chore list exists.
    """
    for what, count in (("agent", n), ("chore", m)):
        if count > MAX_CHORES:
            raise SizeGuardError(f"family {what} count {count} exceeds the guard {MAX_CHORES}")
    return m


def _require(cond: bool, constraint: str) -> None:
    if not cond:
        raise ArgumentError(f"family parameters violate: {constraint}")


# ---------------------------------------------------------------------------
# Connection families (additive)
# ---------------------------------------------------------------------------


@_family("EF_MMS_TIGHT", "additive", "connection")
def _ef_mms_tight(n: int, alpha: Fraction) -> dict:
    m = _sized(n, n * n)
    values = [alpha] * n + [Fraction(1)] * (m - n)
    share = n - 1 + alpha
    return dict(
        costs=_identical_additive(n, values),
        bundles=_blocks([n] * n),
        expected_alphas=((Criterion.EF, alpha), (Criterion.MMS, n * alpha / share)),
        expected_values=(("whole_set_share_agent0", share),),
    )


@_family("EF_PMMS_TIGHT", "additive", "connection")
def _ef_pmms_tight(n: int, alpha: Fraction) -> dict:
    m = _sized(n, 2 * n)
    values = [alpha, alpha] + [Fraction(1)] * (m - 2)
    return dict(
        costs=_identical_additive(n, values),
        bundles=_blocks([2] * n),
        expected_alphas=((Criterion.EF, alpha), (Criterion.PMMS, 2 * alpha / (1 + alpha))),
        expected_values=(("pair_share_agent0", 1 + alpha),),
    )


@_family("EF1_NOT_EFX", "additive", "connection")
def _ef1_not_efx(n: int, p: int) -> dict:
    m = _sized(n, 2 * n)
    _require(p >= 2, "p >= 2")
    values = [Fraction(p)] + [Fraction(1)] * (m - 1)
    return dict(
        costs=_identical_additive(n, values),
        bundles=_blocks([2] * n),
        expected_alphas=((Criterion.EF1, Fraction(1)), (Criterion.EFX, Fraction(p, 2))),
    )


@_family("EF1_MMS_TIGHT", "additive", "connection")
def _ef1_mms_tight(n: int, alpha: Fraction) -> dict:
    m = _sized(n, n * n - n + 1)
    values = [alpha + n - 1] + [alpha] * (n - 1) + [Fraction(1)] * ((n - 1) ** 2)
    share = alpha + n - 1
    return dict(
        costs=_identical_additive(n, values),
        bundles=_blocks([n] + [n - 1] * (n - 1)),
        expected_alphas=((Criterion.EF1, alpha), (Criterion.MMS, (n * alpha + n - 1) / share)),
        expected_values=(("whole_set_share_agent0", share),),
    )


@_family("EFX_MMS_LB_A", "additive", "connection")
def _efx_mms_lb_a(n: int) -> dict:
    m = _sized(n, 2 * n)
    values = [Fraction(t // 2 + 1) for t in range(m)]
    bundles = [frozenset({2 * n - 2, 2 * n - 1})]
    bundles += [frozenset({i - 2, 2 * n - i - 1}) for i in range(2, n + 1)]
    return dict(
        costs=_identical_additive(n, values),
        bundles=bundles,
        expected_alphas=((Criterion.EFX, Fraction(1)), (Criterion.MMS, Fraction(2 * n, n + 1))),
        expected_values=(("whole_set_share_agent0", Fraction(n + 1)),),
    )


@_family("EFX_MMS_LB_B", "additive", "connection")
def _efx_mms_lb_b(n: int, alpha: Fraction) -> dict:
    m = _sized(n, 2 * n * n - 2 * n)
    bundles = [frozenset(range(n)), frozenset(range(n, 3 * n - 2))]
    start = 3 * n - 2
    for _ in range(n - 2):
        bundles.append(frozenset(range(start, start + 2 * n - 1)))
        start += 2 * n - 1
    agent0 = Additive(tuple([2 * alpha] * n + [Fraction(1)] * (m - n)))
    share = 2 * alpha + 2 * n - 3
    return dict(
        costs=[agent0] + _indicator_costs(bundles[1:], m),
        bundles=bundles,
        expected_alphas=((Criterion.EFX, alpha), (Criterion.MMS, 2 * n * alpha / share)),
        expected_values=(("whole_set_share_agent0", share),),
    )


@_family("EFX_PMMS_TIGHT", "additive", "connection")
def _efx_pmms_tight(n: int, alpha: Fraction) -> dict:
    m = _sized(n, 2 * n)
    values = [2 * alpha, 2 * alpha] + [Fraction(1)] * (m - 2)
    return dict(
        costs=_identical_additive(n, values),
        bundles=_blocks([2] * n),
        expected_alphas=((Criterion.EFX, alpha), (Criterion.PMMS, 4 * alpha / (2 * alpha + 1))),
        expected_values=(("pair_share_agent0", 2 * alpha + 1),),
    )


@_family("EF1_PMMS_TIGHT", "additive", "connection")
def _ef1_pmms_tight(n: int, alpha: Fraction) -> dict:
    _sized(n, n + 1)
    values = [alpha + 1, alpha] + [Fraction(1)] * (n - 1)
    bundles = [frozenset({0, 1})] + [frozenset({j}) for j in range(2, n + 1)]
    return dict(
        costs=_identical_additive(n, values),
        bundles=bundles,
        expected_alphas=((Criterion.EF1, alpha), (Criterion.PMMS, (2 * alpha + 1) / (alpha + 1))),
        expected_values=(("pair_share_agent0", alpha + 1),),
    )


@_family("PMMS_NOT_EF1", "additive", "connection")
def _pmms_not_ef1(n: int, alpha: Fraction, epsilon: Fraction) -> dict:
    _sized(n, n + 1)
    _require(1 < alpha < 2, "1 < alpha < 2")
    _require(epsilon <= 1, "epsilon <= 1")
    big = Fraction(1) / (alpha - 1)
    _require(big >= 1 + epsilon, "1/(alpha-1) >= 1 + epsilon")
    values = [big, Fraction(1)] + [epsilon] * (n - 1)
    bundles = [frozenset({0, 1})] + [frozenset({j}) for j in range(2, n + 1)]
    return dict(
        costs=_identical_additive(n, values),
        bundles=bundles,
        expected_alphas=((Criterion.PMMS, alpha), (Criterion.EF1, 1 / epsilon)),
        expected_values=(("pair_share_agent0", big),),
    )


@_family("PMMS_MMS_N3_TIGHT", "additive", "connection")
def _pmms_mms_n3_tight() -> dict:
    values = [Fraction(2)] * 3 + [Fraction(1)] * 3
    return dict(
        costs=_identical_additive(3, values),
        bundles=(frozenset({0, 1}), frozenset({2}), frozenset({3, 4, 5})),
        expected_alphas=((Criterion.PMMS, Fraction(1)), (Criterion.MMS, Fraction(4, 3))),
        expected_values=(("whole_set_share_agent0", Fraction(3)),),
    )


@_family("PMMS_MMS_LB", "additive", "connection")
def _pmms_mms_lb(n: int) -> dict:
    m = _sized(n, 2 * n)
    _require(n >= 3 and n % 2 == 1, "n odd and >= 3")
    big = Fraction(n + 1, 2)
    bundles = [frozenset({0, 1})]
    bundles += [frozenset({j}) for j in range(2, n)]
    bundles.append(frozenset(range(n, 2 * n)))
    agent0 = Additive(tuple([big] * n + [Fraction(1)] * n))
    return dict(
        costs=[agent0] + _indicator_costs(bundles[1:], m),
        bundles=bundles,
        expected_alphas=(
            (Criterion.PMMS, Fraction(1)),
            (Criterion.MMS, Fraction(2 * n + 2, n + 3)),
        ),
        expected_values=(("whole_set_share_agent0", Fraction(n + 3, 2)),),
    )


@_family("APMMS_MMS_LB", "additive", "connection")
def _apmms_mms_lb(n: int, alpha: Fraction) -> dict:
    m = _sized(n, n * n)
    _require(n % 2 == 0, "n even")
    _require(1 < alpha < Fraction(3, 2), "1 < alpha < 3/2")
    values = [alpha] * n + [2 - alpha] * (m - n)
    share = alpha + (n - 1) * (2 - alpha)
    return dict(
        costs=_identical_additive(n, values),
        bundles=_blocks([n] * n),
        expected_alphas=((Criterion.PMMS, alpha), (Criterion.MMS, n * alpha / share)),
        expected_values=(("whole_set_share_agent0", share), ("pair_share_agent0", Fraction(n))),
    )


def _mms_not_pmms_instance(n: int, p: int) -> dict:
    """The costs and reference bundles that MMS_NOT_PMMS and MMS_NOT_EF1 share."""
    _require(n >= 4, "n >= 4 (a singleton bundle must exist next to the unit block)")
    m = _sized(n, p + 2 * n - 1)
    bundles = [frozenset(range(p + 1))]
    bundles += [frozenset({p + i - 1}) for i in range(2, n - 1)]
    bundles.append(frozenset({n + p - 2, n + p - 1}))
    bundles.append(frozenset(range(n + p, 2 * n + p - 1)))
    agent0 = Additive(tuple([Fraction(1)] * (n + p) + [Fraction(p)] * (n - 1)))
    return dict(costs=[agent0] + _indicator_costs(bundles[1:], m), bundles=bundles)


@_family("MMS_NOT_PMMS", "additive", "connection")
def _mms_not_pmms(n: int, p: int) -> dict:
    return dict(
        **_mms_not_pmms_instance(n, p),
        expected_alphas=(
            (Criterion.MMS, Fraction(1)),
            (Criterion.PMMS, Fraction(p + 1) / Fraction(math.ceil(Fraction(p + 2, 2)))),
        ),
        expected_values=(("whole_set_share_agent0", Fraction(p + 1)),),
    )


@_family("MMS_NOT_EF1", "additive", "connection")
def _mms_not_ef1(n: int, p: int) -> dict:
    return dict(
        **_mms_not_pmms_instance(n, p),
        expected_alphas=((Criterion.MMS, Fraction(1)), (Criterion.EF1, Fraction(p))),
        expected_values=(("whole_set_share_agent0", Fraction(p + 1)),),
    )


# ---------------------------------------------------------------------------
# Connection families (submodular)
# ---------------------------------------------------------------------------


@_family("SUB_EF_COVERAGE", "submodular", "connection")
def _sub_ef_coverage(n: int) -> dict:
    m = _sized(n, n * n)
    _require(n % 2 == 0, "n even")
    rows = tuple(tuple(range(i * n, (i + 1) * n)) for i in range(n))
    fn = RowCoverage(rows=rows, weights=tuple(Fraction(1) for _ in range(n)))
    columns = [frozenset(range(j, m, n)) for j in range(n)]
    return dict(
        costs=[fn] * n,
        bundles=columns,
        expected_alphas=(
            (Criterion.EF, Fraction(1)),
            (Criterion.MMS, Fraction(n)),
            (Criterion.PMMS, Fraction(2)),
        ),
        expected_values=(("whole_set_share_agent0", Fraction(1)),),
    )


@_family("SUB_PMMS_CAPPED", "submodular", "connection")
def _sub_pmms_capped() -> dict:
    fn = CappedCardinality(cap=2)
    return dict(
        costs=(fn, fn),
        bundles=(frozenset({0, 1, 2}), frozenset()),
        expected_alphas=(
            (Criterion.PMMS, Fraction(1)),
            (Criterion.MMS, Fraction(1)),
            (Criterion.EF1, INFINITY),
            (Criterion.EFX, INFINITY),
        ),
        expected_values=(("pair_share_agent0", Fraction(2)),),
    )


@_family("SUB_PMMS_MMS_TIGHT", "submodular", "connection")
def _sub_pmms_mms_tight(n: int, alpha: Fraction) -> dict:
    cols = n + 1
    m = _sized(n, n * cols)
    _require(n % 2 == 0, "n even")
    _require(alpha < 2, "alpha < 2")
    half = alpha * n / 2
    floor_part = math.floor(half)
    delta = half - floor_part

    def cell(row: int, col: int) -> int:
        return row * cols + col

    columns = [frozenset(cell(r, j) for r in range(n)) for j in range(cols)]
    weights = [Fraction(1)] * (n - 1) + [delta, 1 - delta]
    agent0 = RowCoverage(rows=tuple(tuple(sorted(c)) for c in columns), weights=tuple(weights))

    tail_cols = list(range(floor_part, n - 1)) + [n]
    bundles = [frozenset().union(*[columns[j] for j in list(range(floor_part)) + [n - 1]])]
    for r in range(1, n - 1):
        bundles.append(frozenset(cell(r, j) for j in tail_cols))
    bundles.append(frozenset(cell(n - 1, j) for j in tail_cols) | frozenset(cell(0, j) for j in tail_cols))
    return dict(
        costs=[agent0] + _indicator_costs(bundles[1:], m),
        bundles=bundles,
        expected_alphas=((Criterion.PMMS, alpha), (Criterion.MMS, half)),
        expected_values=(("whole_set_share_agent0", Fraction(1)),),
    )


# ---------------------------------------------------------------------------
# Price-of-fairness families
# ---------------------------------------------------------------------------


@_family("POF_EF1_N2", "additive", "price")
def _pof_ef1_n2(epsilon: Fraction) -> dict:
    _require(epsilon < Fraction(1, 12), "epsilon < 1/12")
    c1 = Additive((Fraction(0), Fraction(1, 2), Fraction(1, 2)))
    c2 = Additive((Fraction(1, 3) - 2 * epsilon, Fraction(1, 3) + epsilon, Fraction(1, 3) + epsilon))
    opt = Fraction(2, 3) + 2 * epsilon
    fair = Fraction(5, 6) + epsilon
    return dict(
        costs=(c1, c2),
        bundles=(frozenset({0, 1}), frozenset({2})),
        opt_cost=opt,
        price_checks=((Criterion.EF1, Fraction(1), fair),),
    )


@_family("POF_PMMS32_N2", "additive", "price")
def _pof_pmms32_n2(epsilon: Fraction) -> dict:
    _require(epsilon < Fraction(1, 10), "epsilon < 1/10")
    c1 = Additive((Fraction(3, 8), Fraction(3, 8) + epsilon, Fraction(1, 8) - epsilon, Fraction(1, 8)))
    c2 = Additive((Fraction(1, 2), Fraction(1, 2), Fraction(0), Fraction(0)))
    opt = Fraction(3, 4) + epsilon
    fair = Fraction(7, 8)
    return dict(
        costs=(c1, c2),
        bundles=(frozenset({0}), frozenset({1, 2, 3})),
        opt_cost=opt,
        price_checks=((Criterion.PMMS, Fraction(3, 2), fair),),
    )


@_family("POF_PMMS_N2", "additive", "price")
def _pof_pmms_n2(epsilon: Fraction) -> dict:
    _require(epsilon < Fraction(1, 8), "epsilon < 1/8")
    c1 = Additive((Fraction(1, 2), Fraction(1, 2) - epsilon, epsilon))
    c2 = Additive((Fraction(1, 2), epsilon, Fraction(1, 2) - epsilon))
    return dict(
        costs=(c1, c2),
        bundles=(frozenset({0}), frozenset({1, 2})),
        opt_cost=Fraction(1, 2) + 2 * epsilon,
        price_checks=tuple((crit, Fraction(1), Fraction(1)) for crit in (Criterion.PMMS, Criterion.MMS, Criterion.EFX)),
    )


@_family("POF_N3_UNBOUNDED", "additive", "price")
def _pof_n3_unbounded(n: int, m: int, epsilon: Fraction) -> dict:
    _sized(n, m)
    _require(n >= 3, "n >= 3")
    _require(m >= 5, "m >= 5")
    # The bound keeps the cheapest fair allocation fair even against the
    # empty bundles that appear for n >= 4.
    _require(epsilon < Fraction(1, 3 * m), "epsilon < 1/(3m)")
    inv_m = Fraction(1, m)
    c1 = [Fraction(1) - 4 * epsilon] + [Fraction(0)] * (m - 5) + [epsilon] * 4
    c2 = [1 - 4 * inv_m] + [Fraction(0)] * (m - 5) + [inv_m] * 4
    c3 = [epsilon] + [inv_m] * (m - 2) + [inv_m - epsilon]
    costs: list[CostFunction] = [Additive(tuple(c1)), Additive(tuple(c2)), Additive(tuple(c3))]
    for _ in range(n - 3):
        costs.append(Additive(tuple([inv_m] * m)))
    bundles = [frozenset(range(m - 4, m - 1)), frozenset(range(1, m - 4)), frozenset({0, m - 1})]
    bundles += [frozenset() for _ in range(n - 3)]
    opt = 5 * epsilon
    fair = inv_m + 3 * epsilon
    return dict(
        costs=costs,
        bundles=bundles,
        opt_cost=opt,
        price_checks=((Criterion.PMMS, Fraction(3, 2), fair),),
    )


@_family("POF_MMS_LB", "additive", "price")
def _pof_mms_lb(n: int, epsilon: Fraction) -> dict:
    m = _sized(n, n + 1)
    _require(n >= 3, "n >= 3")
    _require(epsilon < Fraction(1, 2 * n), "epsilon < 1/(2n)")
    inv_n = Fraction(1, n)
    c1 = [inv_n, epsilon, inv_n - epsilon] + [inv_n] * (m - 3)
    rest = [Fraction(1, 2), Fraction(1, 2)] + [Fraction(0)] * (m - 2)
    costs = [Additive(tuple(c1))] + [Additive(tuple(rest))] * (n - 1)
    bundles = [frozenset({1}), frozenset({0, 2}) | frozenset(range(3, m))]
    bundles += [frozenset() for _ in range(n - 2)]
    opt = inv_n + epsilon
    fair = Fraction(1, 2) + epsilon
    return dict(
        costs=costs,
        bundles=bundles,
        opt_cost=opt,
        price_checks=((Criterion.MMS, Fraction(1), fair),),
    )


@_family("POF_2MMS_LB", "additive", "price")
def _pof_2mms_lb(n: int, epsilon: Fraction) -> dict:
    m = _sized(n, n + 3)
    _require(n >= 3, "n >= 3")
    _require(epsilon < Fraction(1, 4 * n), "epsilon < 1/(4n)")
    inv_n = Fraction(1, n)
    c1 = [inv_n - epsilon, inv_n - epsilon, 3 * epsilon, epsilon, epsilon, inv_n - 3 * epsilon]
    c1 += [inv_n] * (m - 6)
    rest = [Fraction(1, 3)] * 3 + [Fraction(0)] * (m - 3)
    costs = [Additive(tuple(c1))] + [Additive(tuple(rest))] * (n - 1)
    bundles = [frozenset({1, 2}), frozenset({0}) | frozenset(range(3, m))]
    bundles += [frozenset() for _ in range(n - 2)]
    opt = 2 * inv_n + epsilon
    fair = Fraction(1, 3) + inv_n + 2 * epsilon
    return dict(
        costs=costs,
        bundles=bundles,
        opt_cost=opt,
        price_checks=((Criterion.MMS, Fraction(2), fair),),
    )


@_family("SUB_POF_EFX", "submodular", "price")
def _sub_pof_efx(epsilon: Fraction) -> dict:
    _require(epsilon < Fraction(1, 8), "epsilon < 1/8")
    c1 = Additive((Fraction(1, 2), Fraction(1, 2) - epsilon, epsilon))
    c2 = CappedAdditive((1 - epsilon, 3 * epsilon, 1 - 2 * epsilon), Fraction(1))
    opt = Fraction(1, 2) + 4 * epsilon
    fair = Fraction(3, 2) - epsilon
    return dict(
        costs=(c1, c2),
        bundles=(frozenset({1, 2}), frozenset({0})),
        opt_cost=opt,
        price_checks=((Criterion.EFX, Fraction(1), fair),),
    )


@_family("SUB_POF_EF1", "submodular", "price")
def _sub_pof_ef1(epsilon: Fraction) -> dict:
    _require(epsilon < Fraction(1, 12), "epsilon < 1/12")
    c1 = Additive((Fraction(1, 3) + epsilon, Fraction(1, 3), Fraction(1, 3) - epsilon))
    c2 = CappedAdditive((1 - epsilon, 1 - epsilon, epsilon), Fraction(1))
    opt = Fraction(2, 3) + 2 * epsilon
    fair = Fraction(4, 3)
    return dict(
        costs=(c1, c2),
        bundles=(frozenset({1}), frozenset({0, 2})),
        opt_cost=opt,
        price_checks=((Criterion.EF1, Fraction(1), fair),),
    )


@_family("SUB_POF_PMMS", "submodular", "price")
def _sub_pof_pmms(epsilon: Fraction) -> dict:
    _require(epsilon < Fraction(1, 22), "epsilon < 1/22")
    c1 = Additive((Fraction(1, 2), Fraction(1, 2) - epsilon, epsilon))
    c2 = TableCost.from_subsets(
        3,
        {
            frozenset(): Fraction(0),
            frozenset({0}): 1 - 2 * epsilon,
            frozenset({1}): 10 * epsilon,
            frozenset({2}): 1 - 3 * epsilon,
            frozenset({0, 1}): Fraction(1),
            frozenset({0, 2}): Fraction(1),
            frozenset({1, 2}): 1 - epsilon,
            frozenset({0, 1, 2}): Fraction(1),
        },
    )
    fair = Fraction(3, 2) - 2 * epsilon
    return dict(
        costs=(c1, c2),
        bundles=(frozenset({1, 2}), frozenset({0})),
        opt_cost=Fraction(1, 2) + 11 * epsilon,
        price_checks=tuple((crit, Fraction(1), fair) for crit in (Criterion.PMMS, Criterion.MMS)),
    )


@_family("SUB_POF_PMMS32", "submodular", "price")
def _sub_pof_pmms32(epsilon: Fraction) -> dict:
    _require(epsilon < Fraction(1, 16), "epsilon < 1/16")
    c1 = Additive((Fraction(3, 8), Fraction(3, 8) + epsilon, Fraction(1, 8) - epsilon, Fraction(1, 8)))
    c2 = CappedAdditive((1 - epsilon, 1 - epsilon, epsilon, epsilon), Fraction(1))
    opt = Fraction(3, 4) + 3 * epsilon
    fair = Fraction(1)
    return dict(
        costs=(c1, c2),
        bundles=(frozenset(), frozenset({0, 1, 2, 3})),
        opt_cost=opt,
        price_checks=((Criterion.PMMS, Fraction(3, 2), fair),),
    )


FAMILY_IDS = tuple(_FAMILIES)


def make_family(family_id: str, **params) -> FamilyBundle:
    """Instantiate a catalog family; invalid parameters raise with the constraint."""
    if family_id not in _FAMILIES:
        raise ArgumentError(f"unknown family {family_id!r}; known ids: {', '.join(FAMILY_IDS)}")
    family = _FAMILIES[family_id]
    names = family.params
    unknown = set(params) - set(names)
    if unknown:
        raise ArgumentError(f"family {family_id} takes parameters {names}, not {sorted(unknown)}")
    missing = [name for name in names if name not in params]
    if missing:
        raise ArgumentError(f"family {family_id} requires parameters {missing}")
    values = {name: _CONVERT[name](name, params[name]) for name in names}
    for name, (rule, holds) in _SHARED.items():
        if name in values:
            _require(holds(values[name]), rule)
    data = family.build(**values)
    # The reference allocation partitions every chore, so it fixes n and m.
    alloc = Allocation(tuple(data.pop("bundles")))
    inst = Instance(n=len(alloc.bundles), m=sum(map(len, alloc.bundles)), costs=tuple(data.pop("costs")))
    check_partition(inst, alloc)
    opt = data.get("opt_cost")
    checks = tuple(PriceCheck(c, a, fair, price_ratio(fair, opt)) for c, a, fair in data.pop("price_checks", ()))
    return FamilyBundle(
        family_id=family_id,
        params=tuple(values.items()),
        setting=family.setting,
        kind=family.kind,
        instance=inst,
        reference_allocation=alloc,
        price_checks=checks,
        **data,
    )


def family_params(family_id: str) -> tuple[str, ...]:
    if family_id not in _FAMILIES:
        raise ArgumentError(f"unknown family {family_id!r}")
    return _FAMILIES[family_id].params


def family_kind(family_id: str) -> str:
    """"connection" or "price"; ``family_id`` is one of ``FAMILY_IDS``."""
    return _FAMILIES[family_id].kind


def valid_params(family_id: str, **params) -> bool:
    try:
        make_family(family_id, **params)
        return True
    except ArgumentError:
        return False


def family_to_json(bundle: FamilyBundle) -> dict:
    expected: dict[str, object] = {}
    if bundle.source is not None:
        expected["source_criterion"] = bundle.source[0].value
        expected["source_alpha"] = rational_str(bundle.source[1])
    for crit, value in bundle.expected_alphas:
        expected[f"min_alpha_{crit.value}"] = rational_str(value)
    for name, value in bundle.expected_values:
        expected[name] = rational_str(value)
    if bundle.opt_cost is not None:
        expected["opt_cost"] = rational_str(bundle.opt_cost)
    for check in bundle.price_checks:
        tag = f"{check.criterion.value}@{check.alpha}"
        expected[f"fair_cost[{tag}]"] = rational_str(check.fair_cost)
        expected[f"price[{tag}]"] = rational_str(check.price)
    return {
        "family_id": bundle.family_id,
        "params": {k: (v if isinstance(v, int) else rational_str(v)) for k, v in bundle.params},
        "setting": bundle.setting,
        "kind": bundle.kind,
        "instance": instance_to_json(bundle.instance),
        "reference_allocation": allocation_to_json(bundle.reference_allocation),
        "expected": expected,
    }

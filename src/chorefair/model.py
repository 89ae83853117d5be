"""Domain types: exact rationals, cost-function oracles, instances, allocations.

All arithmetic is exact (``fractions.Fraction``); floats never enter the core.
Chore sets are plain ``frozenset[int]`` over ``range(m)``; hot paths elsewhere
use integer bitmasks, which this module's evaluator factory supports.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence, Union

from .errors import (
    BoundsError,
    NormalizationError,
    ParseError,
    SizeGuardError,
    UnsupportedVariantError,
    ValidationError,
)

__all__ = [
    "INFINITY",
    "Rational",
    "ExtendedRational",
    "parse_rational",
    "rational_str",
    "Additive",
    "CappedAdditive",
    "CappedCardinality",
    "RowCoverage",
    "TableCost",
    "CostFunction",
    "cost",
    "scale_cost",
    "check_monotone",
    "check_submodular",
    "Instance",
    "Allocation",
    "normalize",
    "check_partition",
    "mask_of",
    "set_of",
    "mask_evaluator",
    "instance_to_json",
    "instance_from_json",
    "allocation_to_json",
    "allocation_from_json",
    "instance_digest",
]

Rational = Fraction
INFINITY = float("inf")
# Finite values are exact Fractions; INFINITY only ever participates in
# comparisons, never in arithmetic.
ExtendedRational = Union[Fraction, float]

MONOTONE_CHECK_MAX = 20
SUBMODULAR_CHECK_MAX = 16


def parse_rational(value: int | str | Fraction) -> Fraction:
    """Parse an exact rational from an int, Fraction, or "p/q" / "p" string."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ParseError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if "." in value or "e" in value or "E" in value:
            raise ParseError(f"decimal notation is not exact: {value!r}")
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"not a rational: {value!r}") from exc
    raise ParseError(f"not a rational: {value!r} (floats are rejected)")


def rational_str(value: ExtendedRational) -> str:
    """Serialize a value as "p/q", "p", or "inf"."""
    if value == INFINITY:
        return "inf"
    return str(Fraction(value))


def _as_chore_set(chores: Iterable[int]) -> frozenset[int]:
    s = frozenset(chores)
    for e in s:
        if not isinstance(e, int) or isinstance(e, bool):
            raise ValidationError(f"chore index must be an int, got {e!r}")
    return s


def mask_of(chores: Iterable[int]) -> int:
    mask = 0
    for e in chores:
        mask |= 1 << e
    return mask


def set_of(mask: int) -> frozenset[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return frozenset(out)


# ---------------------------------------------------------------------------
# Cost-function variants
# ---------------------------------------------------------------------------


class CostFunction:
    """A monotone set-cost oracle over chores ``0 .. m-1`` (where bound)."""

    #: False only for table functions, whose entries are arbitrary.
    monotone_by_construction = True

    def value(self, chores: frozenset[int]) -> Fraction:
        raise NotImplementedError

    def denominator(self) -> int:
        """A positive integer d such that d * c(S) is an integer for every S."""
        raise NotImplementedError

    def ground_size(self) -> int | None:
        """Number of chores this function intrinsically knows about, if any."""
        return None

    def validate_for(self, m: int) -> None:
        size = self.ground_size()
        if size is not None and size != m:
            raise ValidationError(
                f"cost function covers {size} chores, instance has {m}"
            )

    def full_set_value(self, m: int) -> Fraction:
        return self.value(frozenset(range(m)))


def _check_nonnegative(values: Sequence[Fraction], what: str) -> None:
    for v in values:
        if v < 0:
            raise ValidationError(f"{what} must be >= 0, got {v}")


@dataclass(frozen=True)
class Additive(CostFunction):
    """c(S) = sum of per-chore values."""

    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(parse_rational(v) for v in self.values))
        _check_nonnegative(self.values, "additive values")

    def value(self, chores: frozenset[int]) -> Fraction:
        total = Fraction(0)
        for e in chores:
            total += self.values[e]
        return total

    def denominator(self) -> int:
        return _common_denominator(self.values)

    def ground_size(self) -> int | None:
        return len(self.values)


@dataclass(frozen=True)
class CappedAdditive(CostFunction):
    """c(S) = min(sum of per-chore values, cap)."""

    values: tuple[Fraction, ...]
    cap: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(parse_rational(v) for v in self.values))
        object.__setattr__(self, "cap", parse_rational(self.cap))
        _check_nonnegative(self.values, "capped-additive values")
        if self.cap <= 0:
            raise ValidationError(f"cap must be > 0, got {self.cap}")

    def value(self, chores: frozenset[int]) -> Fraction:
        total = Fraction(0)
        for e in chores:
            total += self.values[e]
        return min(total, self.cap)

    def denominator(self) -> int:
        return _common_denominator(self.values + (self.cap,))

    def ground_size(self) -> int | None:
        return len(self.values)


@dataclass(frozen=True)
class CappedCardinality(CostFunction):
    """c(S) = min(|S|, cap)."""

    cap: int

    def __post_init__(self) -> None:
        if not isinstance(self.cap, int) or isinstance(self.cap, bool) or self.cap < 1:
            raise ValidationError(f"cap must be a positive integer, got {self.cap!r}")

    def value(self, chores: frozenset[int]) -> Fraction:
        return Fraction(min(len(chores), self.cap))

    def denominator(self) -> int:
        return 1


@dataclass(frozen=True)
class RowCoverage(CostFunction):
    """Weighted coverage: c(S) = sum over groups g of weight[g] * [S hits g].

    ``rows`` must partition the ground set; each group contributes its full
    weight as soon as S contains at least one of its chores.
    """

    rows: tuple[tuple[int, ...], ...]
    weights: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(sorted(set(r))) for r in self.rows)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "weights", tuple(parse_rational(w) for w in self.weights))
        if len(self.rows) != len(self.weights):
            raise ValidationError("rows and weights must have equal length")
        _check_nonnegative(self.weights, "coverage weights")
        seen: set[int] = set()
        for row in rows:
            for e in row:
                if e in seen:
                    raise ValidationError(f"chore {e} appears in two coverage groups")
                seen.add(e)
        m = len(seen)
        if seen != set(range(m)):
            raise ValidationError("coverage groups must partition 0..m-1")

    def value(self, chores: frozenset[int]) -> Fraction:
        total = Fraction(0)
        for row, w in zip(self.rows, self.weights):
            if any(e in chores for e in row):
                total += w
        return total

    def denominator(self) -> int:
        return _common_denominator(self.weights)

    def ground_size(self) -> int | None:
        return sum(len(r) for r in self.rows)


@dataclass(frozen=True)
class TableCost(CostFunction):
    """Explicit value per subset, for adversarial tests; excluded from normalization.

    ``values[mask]`` is the cost of the subset encoded by ``mask``.
    """

    m: int
    values: tuple[Fraction, ...]

    monotone_by_construction = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(parse_rational(v) for v in self.values))
        if not isinstance(self.m, int) or isinstance(self.m, bool) or self.m < 0:
            raise ValidationError(f"table m must be an integer >= 0, got {self.m!r}")
        size = len(self.values)
        # Compares bit lengths rather than computing 1 << m, which for a huge
        # m from JSON would build a huge integer.
        if size & (size - 1) or size.bit_length() != self.m + 1:
            raise ValidationError(
                f"table must have 2^{self.m} entries, got {len(self.values)}"
            )
        if self.values[0] != 0:
            raise ValidationError("table cost of the empty set must be 0")
        _check_nonnegative(self.values, "table values")

    @classmethod
    def from_subsets(cls, m: int, table: Mapping[frozenset[int], int | str | Fraction]) -> "TableCost":
        values: list[Fraction | None] = [None] * (1 << m)
        values[0] = Fraction(0)
        for subset, v in table.items():
            values[mask_of(subset)] = parse_rational(v)
        missing = sum(1 for v in values if v is None)
        if missing:
            raise ValidationError(f"table is missing {missing} subset entries")
        return cls(m=m, values=tuple(values))

    def value(self, chores: frozenset[int]) -> Fraction:
        return self.values[mask_of(chores)]

    def denominator(self) -> int:
        return _common_denominator(self.values)

    def ground_size(self) -> int | None:
        return self.m


def cost(fn: CostFunction, chores: Iterable[int]) -> Fraction:
    """Exact cost of a chore set; empty set always costs 0."""
    s = _as_chore_set(chores)
    if not s:
        return Fraction(0)
    lo, hi = min(s), max(s)
    if lo < 0:
        raise BoundsError(f"chore index {lo} out of range")
    size = fn.ground_size()
    if size is not None and hi >= size:
        raise BoundsError(f"chore index {hi} out of range for m={size}")
    return fn.value(s)


def mask_evaluator(fn: CostFunction, m: int) -> Callable[[int], Fraction]:
    """Build a fast bitmask -> Fraction evaluator for one cost function."""
    if isinstance(fn, Additive):
        nums, den = _integer_values(fn.values)

        def eval_additive(mask: int) -> Fraction:
            total = 0
            while mask:
                low = mask & -mask
                total += nums[low.bit_length() - 1]
                mask ^= low
            return Fraction(total, den)

        return eval_additive
    if isinstance(fn, CappedAdditive):
        nums, den = _integer_values(tuple(fn.values) + (fn.cap,))
        cap_num = nums[-1]
        nums = nums[:-1]

        def eval_capped(mask: int) -> Fraction:
            total = 0
            while mask:
                low = mask & -mask
                total += nums[low.bit_length() - 1]
                mask ^= low
            return Fraction(min(total, cap_num), den)

        return eval_capped
    if isinstance(fn, CappedCardinality):
        cap = fn.cap
        return lambda mask: Fraction(min(mask.bit_count(), cap))
    if isinstance(fn, RowCoverage):
        wnums, den = _integer_values(fn.weights)
        groups = [(mask_of(row), w) for row, w in zip(fn.rows, wnums)]

        def eval_coverage(mask: int) -> Fraction:
            total = 0
            for gmask, w in groups:
                if mask & gmask:
                    total += w
            return Fraction(total, den)

        return eval_coverage
    if isinstance(fn, TableCost):
        table = fn.values
        return lambda mask: table[mask]
    raise UnsupportedVariantError(f"unknown cost-function variant {type(fn).__name__}")


def _common_denominator(values: Iterable[Fraction]) -> int:
    return math.lcm(*(v.denominator for v in values))


def _integer_values(values: Sequence[Fraction]) -> tuple[list[int], int]:
    den = _common_denominator(values)
    return [int(v * den) for v in values], den


def scale_cost(fn: CostFunction, factor: Fraction) -> CostFunction:
    """Scale a cost function by a positive rational, staying in its variant."""
    factor = parse_rational(factor)
    if factor <= 0:
        raise ValidationError(f"scale factor must be > 0, got {factor}")
    if factor == 1:
        return fn
    if isinstance(fn, Additive):
        return Additive(tuple(v * factor for v in fn.values))
    if isinstance(fn, CappedAdditive):
        return CappedAdditive(tuple(v * factor for v in fn.values), fn.cap * factor)
    if isinstance(fn, RowCoverage):
        return RowCoverage(fn.rows, tuple(w * factor for w in fn.weights))
    if isinstance(fn, CappedCardinality):
        # min(|S|, cap) has a unit coefficient on |S|; a scaled copy leaves
        # the variant family.
        raise UnsupportedVariantError("capped-cardinality costs cannot be rescaled")
    raise UnsupportedVariantError(f"{type(fn).__name__} costs cannot be rescaled")


def check_monotone(fn: CostFunction, m: int) -> bool:
    """Brute-force check that c(S) <= c(S + e) for every S and e outside S."""
    if m > MONOTONE_CHECK_MAX:
        raise SizeGuardError(f"monotonicity check limited to m <= {MONOTONE_CHECK_MAX}, got {m}")
    fn.validate_for(m)
    ev = mask_evaluator(fn, m)
    table = [ev(mask) for mask in range(1 << m)]
    for mask in range(1 << m):
        base = table[mask]
        for e in range(m):
            bit = 1 << e
            if mask & bit:
                continue
            if table[mask | bit] < base:
                return False
    return True


def check_submodular(fn: CostFunction, m: int) -> bool:
    """Brute-force check of decreasing marginals.

    Uses the local exchange form: for all S and distinct e, f outside S,
    c(S+e+f) - c(S+f) <= c(S+e) - c(S), which is equivalent to the
    union/intersection inequality on a finite ground set.
    """
    if m > SUBMODULAR_CHECK_MAX:
        raise SizeGuardError(f"submodularity check limited to m <= {SUBMODULAR_CHECK_MAX}, got {m}")
    fn.validate_for(m)
    ev = mask_evaluator(fn, m)
    table = [ev(mask) for mask in range(1 << m)]
    for mask in range(1 << m):
        for e in range(m):
            ebit = 1 << e
            if mask & ebit:
                continue
            gain_e = table[mask | ebit] - table[mask]
            for f in range(e + 1, m):
                fbit = 1 << f
                if mask & fbit:
                    continue
                if table[mask | ebit | fbit] - table[mask | fbit] > gain_e:
                    return False
                if table[mask | ebit | fbit] - table[mask | ebit] > table[mask | fbit] - table[mask]:
                    return False
    return True


# ---------------------------------------------------------------------------
# Instances and allocations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Instance:
    """n agents, m chores, one cost oracle per agent.

    ``normalized`` is derived at construction: true iff every agent's cost of
    the full chore set is exactly 1.
    """

    n: int
    m: int
    costs: tuple[CostFunction, ...]
    normalized: bool = field(init=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 1:
            raise ValidationError(f"agent count must be >= 1, got {self.n!r}")
        if not isinstance(self.m, int) or isinstance(self.m, bool) or self.m < 0:
            raise ValidationError(f"chore count must be >= 0, got {self.m!r}")
        object.__setattr__(self, "costs", tuple(self.costs))
        if len(self.costs) != self.n:
            raise ValidationError(
                f"expected {self.n} cost functions, got {len(self.costs)}"
            )
        for fn in self.costs:
            fn.validate_for(self.m)
        one = Fraction(1)
        object.__setattr__(
            self,
            "normalized",
            all(fn.full_set_value(self.m) == one for fn in self.costs),
        )

    def all_chores(self) -> frozenset[int]:
        return frozenset(range(self.m))

    def cost(self, agent: int, chores: Iterable[int]) -> Fraction:
        self.check_agent(agent)
        s = _as_chore_set(chores)
        if s and (min(s) < 0 or max(s) >= self.m):
            raise BoundsError(f"chore index out of range for m={self.m}")
        return self.costs[agent].value(s)

    def check_agent(self, agent: int) -> None:
        if not isinstance(agent, int) or not 0 <= agent < self.n:
            raise BoundsError(f"agent index {agent!r} out of range for n={self.n}")

    def is_additive(self) -> bool:
        return all(isinstance(fn, Additive) for fn in self.costs)


@dataclass(frozen=True)
class Allocation:
    """An ordered partition of the chores into one bundle per agent."""

    bundles: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        bundles = tuple(_as_chore_set(b) for b in self.bundles)
        object.__setattr__(self, "bundles", bundles)
        # Sets, not bitmasks: a huge chore index must not build a huge mask
        # before check_partition has compared it with m.
        union = frozenset().union(*bundles)
        if len(union) != sum(len(b) for b in bundles):
            raise ValidationError("bundles overlap")
        if union and min(union) < 0:
            raise BoundsError(f"chore index {min(union)} out of range")

    @classmethod
    def from_assignment(cls, assignment: Sequence[int], n: int) -> "Allocation":
        bundles: list[set[int]] = [set() for _ in range(n)]
        for chore, agent in enumerate(assignment):
            bundles[agent].add(chore)
        return cls(tuple(frozenset(b) for b in bundles))

    def assignment(self, m: int) -> tuple[int, ...]:
        owner = [-1] * m
        for agent, bundle in enumerate(self.bundles):
            for e in bundle:
                owner[e] = agent
        return tuple(owner)

    def masks(self) -> tuple[int, ...]:
        return tuple(mask_of(b) for b in self.bundles)


def check_partition(inst: Instance, alloc: Allocation) -> None:
    """Raise unless ``alloc`` is a valid n-partition of the instance's chores."""
    if len(alloc.bundles) != inst.n:
        raise ValidationError(
            f"allocation has {len(alloc.bundles)} bundles, instance has {inst.n} agents"
        )
    union = frozenset().union(*alloc.bundles)
    extra = sorted(e for e in union if e >= inst.m)
    if extra:
        raise ValidationError(f"allocation uses unknown chores {extra}")
    if len(union) != inst.m:
        missing = sorted(frozenset(range(inst.m)) - union)
        raise ValidationError(f"allocation misses chores {missing}")


def normalize(inst: Instance) -> Instance:
    """Rescale every agent so the full chore set costs exactly 1.

    Minimal-alpha queries are invariant under this per-agent scaling; social
    costs are not. Table costs and capped-cardinality costs that are not
    already normalized cannot be rescaled within their variant.
    """
    new_costs: list[CostFunction] = []
    for agent, fn in enumerate(inst.costs):
        total = fn.full_set_value(inst.m)
        if total == 0:
            raise NormalizationError(f"agent {agent} has zero cost on the full chore set")
        if total == 1:
            new_costs.append(fn)
            continue
        if isinstance(fn, TableCost):
            raise UnsupportedVariantError("table costs are excluded from normalization")
        new_costs.append(scale_cost(fn, Fraction(1) / total))
    return Instance(n=inst.n, m=inst.m, costs=tuple(new_costs))


# ---------------------------------------------------------------------------
# JSON schemas
# ---------------------------------------------------------------------------


def _cost_to_json(fn: CostFunction) -> dict:
    if isinstance(fn, Additive):
        return {"type": "additive", "values": [rational_str(v) for v in fn.values]}
    if isinstance(fn, CappedAdditive):
        return {
            "type": "capped_additive",
            "values": [rational_str(v) for v in fn.values],
            "cap": rational_str(fn.cap),
        }
    if isinstance(fn, CappedCardinality):
        return {"type": "capped_cardinality", "cap": fn.cap}
    if isinstance(fn, RowCoverage):
        return {
            "type": "row_coverage",
            "rows": [list(r) for r in fn.rows],
            "weights": [rational_str(w) for w in fn.weights],
        }
    if isinstance(fn, TableCost):
        return {"type": "table", "m": fn.m, "values": [rational_str(v) for v in fn.values]}
    raise UnsupportedVariantError(f"cannot serialize {type(fn).__name__}")


def _cost_from_json(obj: dict, m: int) -> CostFunction:
    if not isinstance(obj, dict) or "type" not in obj:
        raise ParseError("cost must be an object with a 'type' field")
    kind = obj["type"]
    try:
        if kind == "additive":
            return Additive(tuple(parse_rational(v) for v in obj["values"]))
        if kind == "capped_additive":
            return CappedAdditive(
                tuple(parse_rational(v) for v in obj["values"]),
                parse_rational(obj["cap"]),
            )
        if kind == "capped_cardinality":
            cap = obj["cap"]
            if not isinstance(cap, int):
                raise ParseError("capped_cardinality cap must be an integer")
            return CappedCardinality(cap)
        if kind == "row_coverage":
            return RowCoverage(
                tuple(tuple(r) for r in obj["rows"]),
                tuple(parse_rational(w) for w in obj["weights"]),
            )
        if kind == "table":
            return TableCost(m=obj.get("m", m), values=tuple(parse_rational(v) for v in obj["values"]))
    except KeyError as exc:
        raise ParseError(f"cost object missing field {exc}") from exc
    raise ParseError(f"unknown cost type {kind!r}")


def instance_to_json(inst: Instance) -> dict:
    return {
        "n": inst.n,
        "m": inst.m,
        "agents": [{"cost": _cost_to_json(fn)} for fn in inst.costs],
    }


def instance_from_json(obj: dict) -> Instance:
    if not isinstance(obj, dict):
        raise ParseError("instance must be a JSON object")
    try:
        n, m, agents = obj["n"], obj["m"], obj["agents"]
    except KeyError as exc:
        raise ParseError(f"instance missing field {exc}") from exc
    if not isinstance(n, int) or not isinstance(m, int):
        raise ParseError("instance n and m must be integers")
    if not isinstance(agents, list) or len(agents) != n:
        raise ParseError(f"expected {n} agent entries, got {len(agents) if isinstance(agents, list) else agents!r}")
    costs = []
    for i, entry in enumerate(agents):
        if not isinstance(entry, dict) or "cost" not in entry:
            raise ParseError(f"agent {i} entry must be an object with a 'cost' field")
        costs.append(_cost_from_json(entry["cost"], m))
    return Instance(n=n, m=m, costs=tuple(costs))


def allocation_to_json(alloc: Allocation) -> dict:
    return {"bundles": [sorted(b) for b in alloc.bundles]}


def allocation_from_json(obj: dict) -> Allocation:
    if not isinstance(obj, dict) or "bundles" not in obj:
        raise ParseError("allocation must be an object with a 'bundles' field")
    bundles = obj["bundles"]
    if not isinstance(bundles, list) or not all(
        isinstance(b, list) and all(isinstance(e, int) for e in b) for b in bundles
    ):
        raise ParseError("'bundles' must be a list of chore-index lists")
    return Allocation(tuple(frozenset(b) for b in bundles))


def instance_digest(inst: Instance) -> str:
    import hashlib

    blob = json.dumps(instance_to_json(inst), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]

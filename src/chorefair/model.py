"""Domain types: exact rationals, cost-function oracles, instances, allocations.

Every number is exact; floats never enter the core. A cost variant keeps its
rational data as integers over one denominator ``_den``, the lcm of their
reduced denominators, and builds its ``Fraction``s (``values``, ``cap``,
``weights``) only when they are read. Chore sets are plain ``frozenset[int]``
over ``range(m)``, and the groups of ``sum_groups`` sorted tuples; hot paths
elsewhere use integer bitmasks.

Each cost variant is one ``CostFunction`` class, the only place that knows
its formula. A new variant sets ``kind`` (its JSON ``type``) and ``_den``
(its ``denominator()``), implements ``int_eval``, ``to_json`` and the
``from_json`` classmethod, and is added to ``_VARIANTS``; it overrides
``scaled``, ``sum_groups`` and ``ground_size`` where the defaults do not
fit. ``value()``, ``mask_evaluator``, ``scale_cost``, the JSON schema and
the structure checks derive from those methods. The single-chore row
``int_singles`` is None but for ``Additive``'s stored integers; it alone
marks a cost additive, so its readers name no variant.

The structure checks (``check_monotone``, ``check_submodular`` and a table's
``monotone`` flag) compare exact integers of the 2^m subset table, a chore
at a time, over slices of it, so no Python step runs per mask. No variant
overrides the one table build, ``CostFunction.int_table``: it sums a
variant's ``sum_groups`` and reads ``int_eval`` only where there are none.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field
from functools import cached_property
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
    "ExtendedRational",
    "parse_rational",
    "rational_str",
    "price_ratio",
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

INFINITY = float("inf")
# Finite values are exact Fractions; INFINITY only ever participates in
# comparisons, never in arithmetic.
ExtendedRational = Union[Fraction, float]

MONOTONE_CHECK_MAX = 20
SUBMODULAR_CHECK_MAX = 16
#: Chore count guard: only a capped-cardinality cost leaves m unbounded by its data.
MAX_CHORES = 100_000
# _BYTE_BITS[v]: the set bits of the byte value v, in ascending order.
_BYTE_BITS = tuple(tuple(b for b in range(8) if v >> b & 1) for v in range(256))


def parse_rational(value: int | str | Fraction) -> Fraction:
    """Parse an exact rational from an int, Fraction, or "p/q" / "p" string, as ``_parse_scaled`` reads one."""
    if isinstance(value, Fraction):
        return value
    (p,), q = _parse_scaled((value,))
    return Fraction(p, q)


def _ratio(value) -> tuple[int, int]:
    """``value`` as a reduced (p, q), q > 0, by the general rules of ``parse_rational``.

    ``_parse_scaled`` reads the common spellings itself and sends the rest here: a
    string goes through ``Fraction(str)``, so the accepted inputs and the messages are its own.
    """
    if isinstance(value, bool):
        raise ParseError(f"not a rational: {value!r}")
    if isinstance(value, (int, Fraction)):
        return value.numerator, value.denominator
    if isinstance(value, str):
        if "." in value or "e" in value or "E" in value:
            raise ParseError(f"decimal notation is not exact: {value!r}")
        try:
            exact = Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"not a rational: {value!r}") from exc
        return exact.numerator, exact.denominator
    hint = " (floats are rejected)" if isinstance(value, float) else ""
    raise ParseError(f"not a rational: {value!r}{hint}")


def rational_str(value: ExtendedRational) -> str:
    """Serialize a value as "p/q", "p", or "inf"."""
    if isinstance(value, Fraction):
        return str(value)
    if value == INFINITY:
        return "inf"
    return str(Fraction(value))


def price_ratio(fair: Fraction, opt: Fraction) -> ExtendedRational:
    """The price of a fair cost against the optimal cost: 1 when both are 0, infinity when only opt is."""
    if opt == 0:
        return Fraction(1) if fair == 0 else INFINITY
    return fair / opt


def _as_chore_set(chores: Iterable[int]) -> frozenset[int]:
    """The chores as a frozenset, each checked to be an int; a frozenset is kept, not rebuilt."""
    if type(chores) is not frozenset:
        chores = tuple(chores)  # checked before hashing: a nested list is unhashable
    for e in chores:
        if not isinstance(e, int) or isinstance(e, bool):
            raise ValidationError(f"chore index must be an int, got {e!r}")
    return chores if type(chores) is frozenset else frozenset(chores)


def mask_of(chores: Iterable[int]) -> int:
    """The mask with bit e set for each chore e.

    Each step copies the mask, so the cost grows with the chores times the
    largest chore: every chore below ``MAX_CHORES`` takes about 0.07 s on
    one Xeon core under Python 3.11.
    """
    mask = 0
    for e in chores:
        mask |= 1 << e
    return mask


def set_of(mask: int) -> frozenset[int]:
    """The chores of a mask >= 0, read a byte at a time in time linear in its bit length."""
    out = []
    base = 0
    for byte in mask.to_bytes((mask.bit_length() + 7) >> 3, "little"):
        for b in _BYTE_BITS[byte]:
            out.append(base + b)
        base += 8
    return frozenset(out)


# ---------------------------------------------------------------------------
# Cost-function variants
# ---------------------------------------------------------------------------


class CostFunction:
    """A monotone set-cost oracle over chores ``0 .. m-1`` (where bound).

    What a variant subclass must provide is listed in the module docstring.
    """

    #: Whether c(S) <= c(T) for all S within T; a table reads it from its entries.
    monotone = True

    def denominator(self) -> int:
        """A positive integer d such that d * c(S) is an integer for every S."""
        return self._den

    def int_eval(self, mask: int) -> int:
        """d * c(S) for the chore set S encoded by ``mask``, d = ``denominator()``."""
        raise NotImplementedError

    def int_table(self, elems: Sequence[int]) -> list[int]:
        """``int_eval`` of every subset of ``elems``; local submask s + 2^i is s with ``elems[i]`` added.

        A ``sum_groups`` form doubles its group-weight sums once per group and caps them once; unless
        group i is ``(elems[i],)`` for each i, a local submask reads the sum at the mask of its groups.
        A cost without that form reads each subset's mask with ``int_eval``, the empty set's entry 0.
        """
        grouped = self.sum_groups(elems)
        if grouped is None:
            read, bits = self.int_eval, [1 << e for e in elems]
        else:
            groups, cap = grouped
            table = [0]
            for _, w in groups:
                table += [x + w for x in table]
            if cap is not None and table[-1] > cap:  # the full set's sum is the largest
                table = [x if x < cap else cap for x in table]
            if all(members == (e,) for (members, _), e in zip(groups, elems)):
                return table
            group_of = {e: g for g, (members, _) in enumerate(groups) for e in members}
            read, bits = table.__getitem__, [1 << group_of[e] for e in elems]
        keys = [0]
        for bit in bits:
            keys += [k | bit for k in keys]
        return [0, *map(read, keys[1:])]

    def int_singles(self) -> tuple[int, ...] | None:
        """d * c({e}) for each chore e where the variant stores them as an additive row; else None."""
        return None

    def value(self, chores: Iterable[int]) -> Fraction:
        return Fraction(self.int_eval(mask_of(chores)), self.denominator())

    def scaled(self, factor: Fraction) -> "CostFunction":
        """factor * c as a cost of the same variant, for a rational factor > 0."""
        raise UnsupportedVariantError(f"{type(self).__name__} costs cannot be rescaled")

    def sum_groups(self, elems: Sequence[int]) -> tuple[list[tuple[tuple[int, ...], int]], int | None] | None:
        """c on subsets of ``elems`` as a capped sum over groups, if it is one.

        Returns (groups, cap), where the groups (chores, weight) partition
        ``elems`` and c(S) = min(cap, sum of the weights of the groups that S
        meets); each group's chores are a nonempty sorted tuple, weights and
        cap are over ``denominator()``, and cap is None when there is none.
        Returns None for a cost without that form.
        """
        return None

    def to_json(self) -> dict:
        raise NotImplementedError

    @classmethod
    def from_json(cls, obj: dict, m: int) -> "CostFunction":
        """Build the variant from its JSON object; ``m`` is the instance's chore count."""
        raise NotImplementedError

    def ground_size(self) -> int | None:
        """Number of chores this function intrinsically knows about, if any."""
        return None

    def validate_for(self, m: int) -> None:
        size = self.ground_size()
        if size is not None and size != m:
            raise ValidationError(f"cost function covers {size} chores, instance has {m}")


def _set(obj: CostFunction, **attrs) -> None:
    """Assign attributes of a frozen dataclass from its own constructor."""
    for name, value in attrs.items():
        object.__setattr__(obj, name, value)


def _check_nonnegative(nums: Sequence[int], den: int, what: str) -> None:
    for p in nums:
        if p < 0:
            raise ValidationError(f"{what} must be >= 0, got {Fraction(p, den)}")


def _parse_scaled(values: Iterable) -> tuple[tuple[int, ...], int]:
    """(each value times d as an int, d), d the lcm of the values' reduced denominators.

    One pass reduces each value on its own: an ASCII ``-?digits[/digits]`` string
    by ``int()`` and a gcd, a ``Fraction`` by its terms, anything else by ``_ratio``.
    """
    nums, dens = [], []
    for value in values:
        q = 0
        if type(value) is Fraction:
            p, q = value.numerator, value.denominator
        elif type(value) is str and value.isascii():
            num, slash, den = value.partition("/")
            if num.removeprefix("-").isdigit() and (not slash or den.isdigit()):
                try:
                    p, q = int(num), (int(den) if slash else 1)
                except ValueError:  # past int()'s digit limit: left to _ratio
                    pass
                if q > 1:
                    g = math.gcd(p, q)
                    p, q = p // g, q // g
        if not q:
            p, q = _ratio(value)
        nums.append(p)
        dens.append(q)
    den = math.lcm(*dens)
    return tuple([p * (den // q) for p, q in zip(nums, dens)]), den


def _rational_strs(nums: Sequence[int], den: int) -> list[str]:
    """``rational_str`` of each p / den, formatted from the integers."""
    return [str(p // g) if g == den else f"{p // g}/{den // g}" for p in nums for g in (math.gcd(p, den),)]


def _fractions(cost: CostFunction) -> tuple[Fraction, ...]:
    """The cost's stored integers over its denominator, as Fractions."""
    den = cost._den
    return tuple([Fraction(p, den) for p in cost._nums])


class _Scaled(CostFunction):
    """A variant whose rational data are integers ``_nums`` over ``_den``, the lcm of their
    reduced denominators, so eq and hash follow the data; ``_store`` checks and keeps them."""

    @classmethod
    def _from_ints(cls, nums: Sequence[int], den: int, *rest) -> "_Scaled":
        """Build from integers p over ``den`` > 0, unparsed; den / gcd(den, every p) is the canonical ``_den``."""
        g = math.gcd(den, *nums)
        cost = object.__new__(cls)
        cost._store(tuple([p // g for p in nums]), den // g, *rest)
        return cost

    def _scaled_ints(self, nums: Sequence[int], factor: Fraction, *rest) -> "_Scaled":
        return self._from_ints([p * factor.numerator for p in nums], self._den * factor.denominator, *rest)


def _bit_sum(nums: Sequence[int], mask: int) -> int:
    """The sum of ``nums`` over the chores of a mask >= 0, read as ``set_of`` reads it."""
    total = 0
    base = 0
    for byte in mask.to_bytes((mask.bit_length() + 7) >> 3, "little"):
        for b in _BYTE_BITS[byte]:
            total += nums[base + b]
        base += 8
    return total


def _json_list(obj: dict, key: str) -> list:
    value = obj[key]
    if not isinstance(value, list):
        raise ParseError(f"cost field {key!r} must be a JSON list, got {type(value).__name__}")
    return value


@dataclass(frozen=True, init=False)
class Additive(_Scaled):
    """c(S) = sum of per-chore values."""

    _nums: tuple[int, ...]
    _den: int
    kind = "additive"
    values = cached_property(_fractions)

    def __init__(self, values: Iterable[int | str | Fraction]) -> None:
        self._store(*_parse_scaled(values))

    def _store(self, nums: tuple[int, ...], den: int) -> None:
        _check_nonnegative(nums, den, "additive values")
        _set(self, _nums=nums, _den=den)

    def int_eval(self, mask: int) -> int:
        return _bit_sum(self._nums, mask)

    def int_singles(self) -> tuple[int, ...]:
        """d * c({e}) for each chore e: the stored integers."""
        return self._nums

    def scaled(self, factor: Fraction) -> "Additive":
        return self._scaled_ints(self._nums, factor)

    def sum_groups(self, elems: Sequence[int]):
        return [((e,), self._nums[e]) for e in elems], None

    def ground_size(self) -> int | None:
        return len(self._nums)

    def to_json(self) -> dict:
        return {"type": self.kind, "values": _rational_strs(self._nums, self._den)}

    @classmethod
    def from_json(cls, obj: dict, m: int) -> "Additive":
        return cls(tuple(_json_list(obj, "values")))


@dataclass(frozen=True, init=False)
class CappedAdditive(_Scaled):
    """c(S) = min(sum of per-chore values, cap)."""

    _nums: tuple[int, ...]
    _cap: int
    _den: int
    kind = "capped_additive"
    values = cached_property(_fractions)
    cap = cached_property(lambda self: Fraction(self._cap, self._den))

    def __init__(self, values: Iterable[int | str | Fraction], cap: int | str | Fraction) -> None:
        self._store(*_parse_scaled((*values, cap)))

    def _store(self, nums: tuple[int, ...], den: int) -> None:
        """``nums`` holds the values and then the cap."""
        nums, cap = nums[:-1], nums[-1]
        _check_nonnegative(nums, den, "capped-additive values")
        if cap <= 0:
            raise ValidationError(f"cap must be > 0, got {Fraction(cap, den)}")
        _set(self, _nums=nums, _cap=cap, _den=den)

    def int_eval(self, mask: int) -> int:
        return min(_bit_sum(self._nums, mask), self._cap)

    def scaled(self, factor: Fraction) -> "CappedAdditive":
        return self._scaled_ints((*self._nums, self._cap), factor)

    def sum_groups(self, elems: Sequence[int]):
        return [((e,), self._nums[e]) for e in elems], self._cap

    def ground_size(self) -> int | None:
        return len(self._nums)

    def to_json(self) -> dict:
        *values, cap = _rational_strs((*self._nums, self._cap), self._den)
        return {"type": self.kind, "values": values, "cap": cap}

    @classmethod
    def from_json(cls, obj: dict, m: int) -> "CappedAdditive":
        return cls(tuple(_json_list(obj, "values")), obj["cap"])


@dataclass(frozen=True)
class CappedCardinality(CostFunction):
    """c(S) = min(|S|, cap)."""

    cap: int
    kind = "capped_cardinality"
    _den = 1

    def __post_init__(self) -> None:
        if not isinstance(self.cap, int) or isinstance(self.cap, bool) or self.cap < 1:
            raise ValidationError(f"cap must be a positive integer, got {self.cap!r}")

    def int_eval(self, mask: int) -> int:
        return min(mask.bit_count(), self.cap)

    def scaled(self, factor: Fraction) -> CostFunction:
        # min(|S|, cap) has a unit coefficient on |S|; a scaled copy leaves
        # the variant family.
        raise UnsupportedVariantError("capped-cardinality costs cannot be rescaled")

    def sum_groups(self, elems: Sequence[int]):
        return [((e,), 1) for e in elems], self.cap

    def to_json(self) -> dict:
        return {"type": self.kind, "cap": self.cap}

    @classmethod
    def from_json(cls, obj: dict, m: int) -> "CappedCardinality":
        cap = obj["cap"]
        if not isinstance(cap, int):
            raise ParseError("capped_cardinality cap must be an integer")
        return cls(cap)


@dataclass(frozen=True, init=False)
class RowCoverage(_Scaled):
    """Weighted coverage: c(S) = sum over groups g of weight[g] * [S hits g].

    ``rows`` must partition the ground set; each group contributes its full
    weight as soon as S contains at least one of its chores.
    """

    rows: tuple[tuple[int, ...], ...]
    _nums: tuple[int, ...]
    _den: int
    kind = "row_coverage"
    weights = cached_property(_fractions)

    def __init__(self, rows: Iterable[Iterable[int]], weights: Iterable[int | str | Fraction]) -> None:
        rows = tuple(tuple(sorted(_as_chore_set(r))) for r in rows)
        self._store(*_parse_scaled(weights), rows)

    def _store(self, nums: tuple[int, ...], den: int, rows: tuple[tuple[int, ...], ...]) -> None:
        """``rows`` are sorted tuples of chore indices."""
        if len(rows) != len(nums):
            raise ValidationError("rows and weights must have equal length")
        _check_nonnegative(nums, den, "coverage weights")
        seen: set[int] = set()
        for row in rows:
            for e in row:
                if e in seen:
                    raise ValidationError(f"chore {e} appears in two coverage groups")
                seen.add(e)
        if seen != set(range(len(seen))):
            raise ValidationError("coverage groups must partition 0..m-1")
        groups = tuple(zip(map(mask_of, rows), nums))
        _set(self, rows=rows, _nums=nums, _den=den, _groups=groups)

    def int_eval(self, mask: int) -> int:
        total = 0
        for gmask, w in self._groups:
            if mask & gmask:
                total += w
        return total

    def scaled(self, factor: Fraction) -> "RowCoverage":
        return self._scaled_ints(self._nums, factor, self.rows)

    def sum_groups(self, elems: Sequence[int]):
        chosen = frozenset(elems)
        hit = ((tuple([e for e in row if e in chosen]), w) for row, w in zip(self.rows, self._nums))
        return [(members, w) for members, w in hit if members], None

    def ground_size(self) -> int | None:
        return sum(len(r) for r in self.rows)

    def to_json(self) -> dict:
        return {
            "type": self.kind,
            "rows": [list(r) for r in self.rows],
            "weights": _rational_strs(self._nums, self._den),
        }

    @classmethod
    def from_json(cls, obj: dict, m: int) -> "RowCoverage":
        rows = _json_list(obj, "rows")
        if not all(isinstance(r, list) for r in rows):
            raise ParseError("cost field 'rows' must be a list of JSON lists")
        return cls(tuple(map(tuple, rows)), tuple(_json_list(obj, "weights")))


def _check_table_m(m) -> None:
    if not isinstance(m, int) or isinstance(m, bool) or m < 0:
        raise ValidationError(f"table m must be an integer >= 0, got {m!r}")


@dataclass(frozen=True, init=False)
class TableCost(CostFunction):
    """Explicit value per subset, for adversarial tests; excluded from normalization.

    ``values[mask]`` is the cost of the subset encoded by ``mask``.
    """

    m: int
    _nums: tuple[int, ...]
    _den: int
    kind = "table"
    values = cached_property(_fractions)

    def __init__(self, m: int, values: Iterable[int | str | Fraction]) -> None:
        nums, den = _parse_scaled(values)
        _check_table_m(m)
        size = len(nums)
        # Compares bit lengths rather than computing 1 << m, which for a huge
        # m from JSON would build a huge integer.
        if size & (size - 1) or size.bit_length() != m + 1:
            raise ValidationError(f"table must have 2^{m} entries, got {size}")
        if nums[0] != 0:
            raise ValidationError("table cost of the empty set must be 0")
        _check_nonnegative(nums, den, "table values")
        _set(self, m=m, _nums=nums, _den=den)

    @classmethod
    def from_subsets(cls, m: int, table: Mapping[frozenset[int], int | str | Fraction]) -> "TableCost":
        _check_table_m(m)
        by_mask = {}
        for subset, v in table.items():
            chores = _as_chore_set(subset)
            if chores and (min(chores) < 0 or max(chores) >= m):
                raise BoundsError(f"table subset {sorted(chores)} has a chore index out of range for m={m}")
            mask = mask_of(chores)
            if mask in by_mask:
                raise ValidationError(f"table names subset {sorted(chores)} more than once")
            by_mask[mask] = parse_rational(v)
        by_mask.setdefault(0, Fraction(0))
        # Every mask is below 2^m; bit lengths count them against 2^m without building 1 << m.
        if len(by_mask).bit_length() <= m:
            raise ValidationError(f"table gives {len(by_mask)} of the 2^{m} subsets, the empty set included")
        return cls(m=m, values=tuple(by_mask[mask] for mask in range(len(by_mask))))

    def int_eval(self, mask: int) -> int:
        return self._nums[mask]

    @cached_property
    def monotone(self) -> bool:
        """Whether the entries are monotone; computed on first use and kept.

        The first use scans the whole table, even when the caller works on a
        few of the chores: for each chore it copies the table into two
        halves by slices and compares them, m * 2^(m-1) integer comparisons
        in all, about 0.3 ms at m = 10 and 0.7 s at m = 20 on one Xeon core
        under Python 3.11; building the table has already parsed its 2^m
        entries. A table past ``MONOTONE_CHECK_MAX`` chores, which
        ``check_monotone`` refuses, counts as non-monotone without a scan, so
        it is searched in full, which is exact. Eq and hash ignore the kept
        value.
        """
        return self.m <= MONOTONE_CHECK_MAX and _monotone_table(self._nums, self.m)

    def scaled(self, factor: Fraction) -> CostFunction:
        raise UnsupportedVariantError("table costs are excluded from normalization")

    def ground_size(self) -> int | None:
        return self.m

    def to_json(self) -> dict:
        return {"type": self.kind, "m": self.m, "values": _rational_strs(self._nums, self._den)}

    @classmethod
    def from_json(cls, obj: dict, m: int) -> "TableCost":
        return cls(m=obj.get("m", m), values=tuple(_json_list(obj, "values")))


#: The variant class of each JSON cost ``type``.
_VARIANTS: dict[str, type[CostFunction]] = {
    cls.kind: cls for cls in (Additive, CappedAdditive, CappedCardinality, RowCoverage, TableCost)
}


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
    if hi >= MAX_CHORES:  # a capped-cardinality cost has no ground size
        raise BoundsError(f"chore index {hi} exceeds the guard {MAX_CHORES}")
    return fn.value(s)


def mask_evaluator(fn: CostFunction) -> Callable[[int], int]:
    """A bitmask -> d * c(S) evaluator (an int, d = ``fn.denominator()``) for
    one cost function; the criteria kernel gets its evaluators here."""
    return fn.int_eval


def scale_cost(fn: CostFunction, factor: Fraction) -> CostFunction:
    """Scale a cost function by a positive rational, staying in its variant."""
    factor = parse_rational(factor)
    if factor <= 0:
        raise ValidationError(f"scale factor must be > 0, got {factor}")
    if factor == 1:
        return fn
    return fn.scaled(factor)


def check_monotone(fn: CostFunction, m: int) -> bool:
    """Brute-force check that c(S) <= c(S + e) for every S and e outside S."""
    _check_chore_count(m)
    if m > MONOTONE_CHECK_MAX:
        raise SizeGuardError(f"monotonicity check limited to m <= {MONOTONE_CHECK_MAX}, got {m}")
    fn.validate_for(m)
    return _monotone_table(fn.int_table(range(m)), m)


def _split(table: Sequence[int], e: int) -> tuple[list[int], list[int]]:
    """(table[S], table[S + e]) over the masks S without chore e, in mask order with bit e dropped.

    Index q * 2^e + j holds mask q * 2^(e+1) + j for j < 2^e. The lists are
    filled by slices, 2^e strided ones or one block per q, whichever is fewer,
    so at most sqrt(len(table)) slices per call and no Python step per mask.
    """
    bit = 1 << e
    step = bit << 1
    half = len(table) >> 1
    lo = [0] * half
    hi = [0] * half
    if bit * bit <= half:
        for j in range(bit):
            lo[j::bit] = table[j::step]
            hi[j::bit] = table[j + bit :: step]
    else:
        for q in range(0, half, bit):
            lo[q : q + bit] = table[2 * q : 2 * q + bit]
            hi[q : q + bit] = table[2 * q + bit : 2 * q + step]
    return lo, hi


def _monotone_table(table: Sequence[int], m: int) -> bool:
    """Whether table[S] <= table[S + e] for every mask S over m chores and e outside S."""
    return not any(any(map(operator.gt, *_split(table, e))) for e in range(m))


def check_submodular(fn: CostFunction, m: int) -> bool:
    """Brute-force check of decreasing marginals.

    Uses the local exchange form: for all S and distinct e, f outside S,
    c(S+e+f) - c(S+f) <= c(S+e) - c(S), which is equivalent to the
    union/intersection inequality on a finite ground set. The form is
    symmetric in e and f, so for each e the gain table c(S+e) - c(S), over
    the S without e, is checked to be non-increasing in each chore f > e.
    """
    _check_chore_count(m)
    if m > SUBMODULAR_CHECK_MAX:
        raise SizeGuardError(f"submodularity check limited to m <= {SUBMODULAR_CHECK_MAX}, got {m}")
    fn.validate_for(m)
    table = fn.int_table(range(m))
    for e in range(m):
        lo, hi = _split(table, e)
        gain = list(map(operator.sub, hi, lo))
        # Chore f > e is bit f - 1 of the gain table's index.
        if any(any(map(operator.lt, *_split(gain, b))) for b in range(e, m - 1)):
            return False
    return True


# ---------------------------------------------------------------------------
# Instances and allocations
# ---------------------------------------------------------------------------


def _check_agent_count(n) -> None:
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValidationError(f"agent count must be >= 1, got {n!r}")


def _check_chore_count(m) -> None:
    if not isinstance(m, int) or isinstance(m, bool) or m < 0:
        raise ValidationError(f"chore count must be >= 0, got {m!r}")


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
        _check_agent_count(self.n)
        _check_chore_count(self.m)
        if self.m > MAX_CHORES:
            raise SizeGuardError(f"chore count {self.m} exceeds the guard {MAX_CHORES}")
        object.__setattr__(self, "costs", tuple(self.costs))
        if len(self.costs) != self.n:
            raise ValidationError(
                f"expected {self.n} cost functions, got {len(self.costs)}"
            )
        for fn in self.costs:
            fn.validate_for(self.m)
        full = (1 << self.m) - 1
        object.__setattr__(
            self, "normalized", all(fn.int_eval(full) == fn.denominator() for fn in self.costs)
        )

    def all_chores(self) -> frozenset[int]:
        return frozenset(range(self.m))

    def cost(self, agent: int, chores: Iterable[int]) -> Fraction:
        self.check_agent(agent)
        return self.costs[agent].value(self.check_chores(chores))

    def check_agent(self, agent: int) -> None:
        if not isinstance(agent, int) or isinstance(agent, bool) or not 0 <= agent < self.n:
            raise BoundsError(f"agent index {agent!r} out of range for n={self.n}")

    def check_chores(self, chores: Iterable[int]) -> frozenset[int]:
        """The chores as a set, each checked to be an int chore index below m."""
        s = _as_chore_set(chores)
        if s and (min(s) < 0 or max(s) >= self.m):
            raise BoundsError(f"chore index out of range for m={self.m}")
        return s

    def is_additive(self) -> bool:
        return all(fn.int_singles() is not None for fn in self.costs)


@dataclass(frozen=True)
class Allocation:
    """An ordered partition of the chores into one bundle per agent.

    An allocation keeps its bundle masks: one built from masks (``_of_masks``,
    which ``from_assignment`` and ``from_masks`` call) keeps those it was
    given, and one built from bundles computes them on the first ``masks()``
    call. Eq, hash, repr and pickles
    follow the bundles alone, so the kept masks never show.
    """

    bundles: tuple[frozenset[int], ...]

    @classmethod
    def _of_masks(cls, masks: Sequence[int]) -> "Allocation":
        """The allocation of bundle masks the library built itself, which it keeps.

        The masks are checked in one pass, each to be >= 0 and disjoint from
        the ones before it; their chores are not converted and checked again.
        """
        seen = 0
        for mask in masks:
            if mask < 0:
                raise ValidationError(f"bundle mask must be >= 0, got {mask}")
            if seen & mask:
                raise ValidationError("bundles overlap")
            seen |= mask
        alloc = object.__new__(cls)
        object.__setattr__(alloc, "bundles", tuple(map(set_of, masks)))
        object.__setattr__(alloc, "_masks", tuple(masks))
        return alloc

    def __getstate__(self) -> dict:
        return {"bundles": self.bundles}

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
        """The allocation giving chore e to agent ``assignment[e]``, built from its masks."""
        _check_agent_count(n)
        masks = [0] * n
        for chore, agent in enumerate(assignment):
            if not isinstance(agent, int) or isinstance(agent, bool) or not 0 <= agent < n:
                raise BoundsError(f"agent index {agent!r} of chore {chore} out of range for n={n}")
            masks[agent] |= 1 << chore
        return cls._of_masks(masks)

    @classmethod
    def from_masks(cls, masks: Iterable[int]) -> "Allocation":
        """The allocation of bundle masks; each must be an int >= 0, disjoint from the others."""
        masks = tuple(masks)
        for mask in masks:
            if not isinstance(mask, int) or isinstance(mask, bool):
                raise ValidationError(f"bundle mask must be an int, got {mask!r}")
        return cls._of_masks(masks)

    def assignment(self, m: int) -> tuple[int, ...]:
        owner = [-1] * m
        for agent, bundle in enumerate(self.bundles):
            for e in bundle:
                owner[e] = agent
        return tuple(owner)

    def masks(self) -> tuple[int, ...]:
        """Each bundle's mask, computed on the first call and kept."""
        try:
            return self._masks
        except AttributeError:
            masks = tuple(map(mask_of, self.bundles))
            object.__setattr__(self, "_masks", masks)
            return masks


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
        total = fn.value(range(inst.m))
        if total == 0:
            raise NormalizationError(f"agent {agent} has zero cost on the full chore set")
        new_costs.append(scale_cost(fn, Fraction(1) / total))
    return Instance(n=inst.n, m=inst.m, costs=tuple(new_costs))


# ---------------------------------------------------------------------------
# JSON schemas
# ---------------------------------------------------------------------------


def _cost_from_json(obj: dict, m: int) -> CostFunction:
    if not isinstance(obj, dict) or "type" not in obj:
        raise ParseError("cost must be an object with a 'type' field")
    kind = obj["type"]
    variant = _VARIANTS.get(kind) if isinstance(kind, str) else None
    if variant is None:
        raise ParseError(f"unknown cost type {kind!r}")
    try:
        return variant.from_json(obj, m)
    except KeyError as exc:
        raise ParseError(f"cost object missing field {exc}") from exc


def instance_to_json(inst: Instance) -> dict:
    return {
        "n": inst.n,
        "m": inst.m,
        "agents": [{"cost": fn.to_json()} for fn in inst.costs],
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

"""The integer cost oracle of each variant against plain Fraction formulas."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from chorefair import (
    Additive,
    CappedAdditive,
    CappedCardinality,
    Instance,
    RowCoverage,
    TableCost,
    mms_value,
)
from chorefair import mms
from chorefair.model import scale_cost

VARIANTS = ("additive", "capped_additive", "capped_cardinality", "row_coverage", "table")


def _fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(0, 12), rng.choice((1, 2, 3, 4, 6, 7)))


def _chores(mask: int) -> list[int]:
    return [e for e in range(mask.bit_length()) if mask >> e & 1]


def _random_cost(kind: str, m: int, rng: random.Random):
    """A random cost of ``kind`` over m chores and its reference formula."""
    if kind == "additive":
        values = [_fraction(rng) for _ in range(m)]
        return Additive(tuple(values)), lambda mask: sum((values[e] for e in _chores(mask)), Fraction(0))
    if kind == "capped_additive":
        values = [_fraction(rng) for _ in range(m)]
        cap = _fraction(rng) + Fraction(1, 5)
        return CappedAdditive(tuple(values), cap), lambda mask: min(
            sum((values[e] for e in _chores(mask)), Fraction(0)), cap
        )
    if kind == "capped_cardinality":
        cap = rng.randint(1, m + 1)
        return CappedCardinality(cap), lambda mask: Fraction(min(len(_chores(mask)), cap))
    if kind == "row_coverage":
        labels = [rng.randrange(m) for _ in range(m)]
        rows = [tuple(e for e in range(m) if labels[e] == g) for g in sorted(set(labels))]
        weights = [_fraction(rng) for _ in rows]
        return RowCoverage(tuple(rows), tuple(weights)), lambda mask: sum(
            (w for row, w in zip(rows, weights) if any(mask >> e & 1 for e in row)), Fraction(0)
        )
    table = [Fraction(0)] + [_fraction(rng) for _ in range((1 << m) - 1)]
    return TableCost(m=m, values=tuple(table)), lambda mask: table[mask]


def _random_monotone_table(m: int, rng: random.Random, draw=_fraction) -> TableCost:
    """A random table with each entry raised to the largest entry of its subsets."""
    table = [Fraction(0)] + [draw(rng) for _ in range((1 << m) - 1)]
    for mask in range(1, 1 << m):
        table[mask] = max(table[mask], *(table[mask ^ 1 << e] for e in range(m) if mask >> e & 1))
    return TableCost(m=m, values=tuple(table))


@pytest.mark.parametrize("kind", VARIANTS)
@pytest.mark.parametrize("m", range(1, 7))
def test_int_eval_is_denominator_times_reference(kind, m):
    rng = random.Random(f"{kind}-{m}")
    for _ in range(4):
        fn, reference = _random_cost(kind, m, rng)
        d = fn.denominator()
        assert isinstance(d, int) and d >= 1
        for mask in range(1 << m):
            value = fn.int_eval(mask)
            assert isinstance(value, int)
            assert value == d * reference(mask)
            assert fn.value(_chores(mask)) == reference(mask)


#: (cost, elems) edge cases of the table build: coverage groups out of ``elems``
#: order or holding several chores, which it must re-index, empty ``elems``,
#: zero weights and caps at and around the single values and m.
INT_TABLE_EDGES = {
    "coverage-singletons-reversed": (RowCoverage(((3,), (2,), (1,), (0,)), (1, 2, 4, 8)), (0, 1, 2, 3)),
    # Row (0, 2, 5) holds three of elems and leads with elems[0]; (1, 4) is cut to (1,), (3,) to nothing.
    "coverage-row-several-and-row-cut": (RowCoverage(((0, 2, 5), (1, 4), (3,)), (5, 3, 7)), (0, 1, 2, 5)),
    "coverage-zero-weight": (RowCoverage(((2, 3), (1,), (0,)), (0, 2, 1)), (0, 1, 2, 3)),
    "coverage-empty-elems": (RowCoverage(((1,), (0,)), (1, 2)), ()),
    "additive-zero-weight-out-of-order": (Additive((0, 3, 0, 2)), (3, 0, 2, 1)),
    "additive-empty-elems": (Additive((1, 2)), ()),
    "capped-additive-cap-below-a-value": (CappedAdditive((1, 5, 2, 0), 3), (0, 1, 2, 3)),
    "cardinality-cap-1": (CappedCardinality(1), (0, 1, 2, 3)),
    "cardinality-cap-m": (CappedCardinality(4), (0, 1, 2, 3)),
    "cardinality-cap-above-m": (CappedCardinality(9), (2, 0, 3)),
    "table-empty-elems": (TableCost(m=1, values=(0, 1)), ()),
}


def _random_int_table_cases(kind: str):
    rng = random.Random(kind)
    for _ in range(12):
        m = rng.randint(1, 7)
        fn, _ = _random_cost(kind, m, rng)
        yield fn, sorted(rng.sample(range(m), rng.randint(0, m)))


@pytest.mark.parametrize("kind", VARIANTS + tuple(INT_TABLE_EDGES))
def test_int_table_matches_int_eval_on_random_subsets(kind):
    cases = [INT_TABLE_EDGES[kind]] if kind in INT_TABLE_EDGES else _random_int_table_cases(kind)
    for fn, elems in cases:
        table = fn.int_table(elems)
        assert len(table) == 1 << len(elems)
        for local, value in enumerate(table):
            mask = sum(1 << e for i, e in enumerate(elems) if local >> i & 1)
            assert value == fn.int_eval(mask), (fn, elems, local)


@pytest.mark.parametrize("kind", VARIANTS)
def test_sum_groups_reproduce_int_eval(kind):
    rng = random.Random(f"groups-{kind}")
    for _ in range(12):
        m = rng.randint(1, 6)
        fn, _ = _random_cost(kind, m, rng)
        elems = sorted(rng.sample(range(m), rng.randint(0, m)))
        grouped = fn.sum_groups(elems)
        if kind == "table":
            assert grouped is None
            continue
        groups, cap = grouped
        assert sorted(e for members, _ in groups for e in members) == elems
        for local in range(1 << len(elems)):
            mask = sum(1 << e for i, e in enumerate(elems) if local >> i & 1)
            total = sum(w for members, w in groups if any(mask >> e & 1 for e in members))
            assert (total if cap is None else min(total, cap)) == fn.int_eval(mask)


@pytest.mark.parametrize("kind", ("additive", "capped_additive", "row_coverage"))
def test_scaled_multiplies_every_subset_cost(kind):
    rng = random.Random(f"scaled-{kind}")
    for _ in range(6):
        m = rng.randint(1, 6)
        fn, reference = _random_cost(kind, m, rng)
        factor = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        scaled = scale_cost(fn, factor)
        assert type(scaled) is type(fn)
        assert scaled == fn.scaled(factor)
        for mask in range(1 << m):
            assert scaled.value(_chores(mask)) == factor * reference(mask)


@pytest.mark.parametrize("kind", ("capped_additive", "capped_cardinality", "row_coverage"))
def test_grouped_mms_clamps_huge_k(kind, monkeypatch):
    rng = random.Random(f"huge-k-{kind}")
    m = 6
    fn, _ = _random_cost(kind, m, rng)
    inst = Instance(n=1, m=m, costs=(fn,))
    blocks_searched = []
    partition = mms._min_max_partition
    monkeypatch.setattr(
        mms, "_min_max_partition", lambda items, k: blocks_searched.append(k) or partition(items, k)
    )
    huge = mms_value(inst, 0, 10**6)
    assert blocks_searched and max(blocks_searched) <= m
    exact = mms_value(inst, 0, m)
    assert huge.value == exact.value
    assert len(huge.witness) == 10**6
    assert huge.witness[:m] == exact.witness
    assert not any(huge.witness[m:])

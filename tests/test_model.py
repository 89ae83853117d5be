"""Core model: cost oracles, structural checks, normalization, JSON."""

from __future__ import annotations

import copy
import math
import os
import pickle
import random
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chorefair import (
    Additive,
    Allocation,
    CappedAdditive,
    CappedCardinality,
    Instance,
    RowCoverage,
    TableCost,
    allocation_from_json,
    allocation_to_json,
    check_monotone,
    check_partition,
    check_submodular,
    cost,
    instance_from_json,
    instance_to_json,
    normalize,
    parse_rational,
    rational_str,
)
from chorefair.errors import (
    BoundsError,
    NormalizationError,
    ParseError,
    SizeGuardError,
    UnsupportedVariantError,
    ValidationError,
)
from chorefair.model import INFINITY, _bit_sum, _parse_scaled, mask_of, price_ratio, scale_cost, set_of


def test_parse_rational_accepts_ints_and_strings():
    assert parse_rational(3) == Fraction(3)
    assert parse_rational("7/5") == Fraction(7, 5)
    assert parse_rational("-2") == Fraction(-2)
    assert parse_rational(Fraction(1, 3)) == Fraction(1, 3)


@pytest.mark.parametrize("bad", [1.5, "0.5", "1e3", "x", None, True])
def test_parse_rational_rejects_inexact(bad):
    with pytest.raises(ParseError):
        parse_rational(bad)


def _reference_scaled(values):
    """(nums, den) from one ``Fraction`` per value."""
    fracs = [v if isinstance(v, Fraction) else Fraction(v) for v in values]
    den = math.lcm(*(f.denominator for f in fracs))
    return tuple(f.numerator * (den // f.denominator) for f in fracs), den


def _random_rational(rng):
    p = rng.randint(-(10 ** rng.randint(1, 30)), 10 ** rng.randint(1, 30))
    q = rng.randint(1, 10 ** rng.randint(1, 30))
    return rng.choice([
        str(p), f"{p}/{q}", f"{p * 6}/{q * 4}", f"{abs(p):07d}", f"-{abs(p)}/{q}",
        p, Fraction(p, q), f"{p}/1", f"0/{q}", "-0",
    ])


@pytest.mark.parametrize("seed", range(20))
def test_parse_scaled_matches_per_value_fractions(seed):
    rng = random.Random(seed)
    values = [_random_rational(rng) for _ in range(rng.randint(1, 12))]
    assert _parse_scaled(values) == _reference_scaled(values)
    for value in values:
        (p,), q = _parse_scaled([value])
        assert parse_rational(value) == Fraction(value) == Fraction(p, q)


_LONG = "7" * 5000  # past int()'s 4,300-digit limit
_REFUSED = [
    ("1.5", "decimal notation is not exact: '1.5'"),
    ("1e3", "decimal notation is not exact: '1e3'"),
    ("abc", "not a rational: 'abc'"),
    ("/3", "not a rational: '/3'"),
    ("3/", "not a rational: '3/'"),
    ("--1", "not a rational: '--1'"),
    ("1/0", "not a rational: '1/0'"),
    ("1/-2", "not a rational: '1/-2'"),
    ("²", "not a rational: '²'"),
    (_LONG, f"not a rational: {_LONG!r}"),
    ("1/" + _LONG, f"not a rational: {'1/' + _LONG!r}"),
    (True, "not a rational: True"),
    (1.5, "not a rational: 1.5 (floats are rejected)"),
    (None, "not a rational: None"),
]
_ACCEPTED = [
    (" 1", Fraction(1)), ("+1", Fraction(1)), ("007", Fraction(7)), ("-0", Fraction(0)), ("0/5", Fraction(0)),
    ("٣", Fraction(3)), (5, Fraction(5)), (-(10**40), Fraction(-(10**40))), (Fraction(6, 4), Fraction(3, 2)),
    (Fraction(-3, 9), Fraction(-1, 3)),
]


@pytest.mark.parametrize("value, message", _REFUSED, ids=lambda v: repr(v)[:12])
def test_reader_refuses_as_the_general_rules_do(value, message):
    for read in (parse_rational, lambda v: _parse_scaled(["1/2", v])):
        with pytest.raises(ParseError) as exc:
            read(value)
        assert type(exc.value) is ParseError and str(exc.value) == f"parse-error: {message}"


@pytest.mark.parametrize("value, expected", _ACCEPTED, ids=lambda v: repr(v)[:12])
def test_reader_accepts_as_the_general_rules_do(value, expected):
    assert parse_rational(value) == expected
    assert _parse_scaled([value, "1/2"]) == _reference_scaled([expected, Fraction(1, 2)])


@pytest.mark.parametrize("values, expected", [([], ((), 1)), ([0], ((0,), 1)), (["0", "-0", "0/7", 0], ((0,) * 4, 1))])
def test_parse_scaled_of_no_values_or_zeros(values, expected):
    assert _parse_scaled(values) == expected


def test_parse_scaled_reduces_each_value_before_the_common_denominator():
    # "p/p" over 4,000 distinct primes: reduced one at a time they are all 1/1,
    # while their unreduced lcm would be a 60,000-bit number times each value.
    sieve = bytearray([1]) * 60_000
    for i in range(2, 245):
        sieve[i * i :: i] = bytes(len(sieve[i * i :: i]))
    primes = [p for p in range(10_007, len(sieve)) if sieve[p]][:4000]
    assert len(primes) == 4000
    values = [f"{p}/{p}" for p in primes]
    tracemalloc.start()
    try:
        nums, den = _parse_scaled(values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (nums, den) == ((1,) * 4000, 1)
    assert peak < 2_000_000, peak


def test_rational_str_roundtrip():
    assert rational_str(Fraction(7, 5)) == "7/5"
    assert rational_str(Fraction(5)) == "5"
    assert rational_str(float("inf")) == "inf"


def test_cost_additive_reference_row(ref_instance):
    assert ref_instance.cost(0, {0, 3, 6}) == 3
    assert ref_instance.cost(0, set()) == 0


def test_cost_empty_set_is_zero_for_all_variants():
    fns = [
        Additive((1, 2)),
        CappedAdditive((1, 2), Fraction(2)),
        CappedCardinality(1),
        RowCoverage(((0,), (1,)), (Fraction(1), Fraction(2))),
    ]
    for fn in fns:
        assert cost(fn, set()) == 0


def test_cost_row_coverage_one_per_row():
    rows = tuple(tuple(range(4 * i, 4 * i + 4)) for i in range(4))
    fn = RowCoverage(rows, (Fraction(1),) * 4)
    assert cost(fn, {0, 4, 8, 12}) == 4
    assert cost(fn, {0, 1, 2, 3}) == 1


def test_cost_bounds_error():
    fn = Additive((1, 2, 3))
    with pytest.raises(BoundsError):
        cost(fn, {3})
    with pytest.raises(BoundsError):
        cost(fn, {-1})


def test_capped_cardinality_formula():
    fn = CappedCardinality(2)
    assert cost(fn, {0}) == 1
    assert cost(fn, {0, 1, 2}) == 2


def test_check_monotone_variants():
    assert check_monotone(Additive((1, 0, 3)), 3)
    assert check_monotone(CappedCardinality(2), 3)
    bad = TableCost.from_subsets(
        2, {frozenset(): 0, frozenset({0}): 1, frozenset({1}): 0, frozenset({0, 1}): 0}
    )
    assert not check_monotone(bad, 2)
    with pytest.raises(SizeGuardError):
        check_monotone(CappedCardinality(2), 21)


def test_check_submodular_variants():
    assert check_submodular(Additive((1, 2, 3)), 3)
    rows = ((0, 1), (2, 3))
    assert check_submodular(RowCoverage(rows, (Fraction(1), Fraction(2))), 4)
    bad = TableCost.from_subsets(
        2, {frozenset(): 0, frozenset({0}): 0, frozenset({1}): 0, frozenset({0, 1}): 1}
    )
    assert not check_submodular(bad, 2)
    with pytest.raises(SizeGuardError):
        check_submodular(Additive((1,) * 17), 17)


@pytest.mark.parametrize("check", [check_monotone, check_submodular])
@pytest.mark.parametrize("fn", [Additive((1, 2, 3)), CappedCardinality(2)], ids=["additive", "cardinality"])
@pytest.mark.parametrize("m", [-1, 2.5, None, True, 25.0])
def test_structure_checks_refuse_a_bad_chore_count_first(check, fn, m):
    # Refused before the size guard, and before validate_for, which would
    # name the additive cost's 3 chores.
    with pytest.raises(ValidationError) as info:
        check(fn, m)
    assert str(info.value) == f"validation-error: chore count must be >= 0, got {m!r}"


def _monotone_by_masks(table: list[int], m: int) -> bool:
    """c(S) <= c(S + e) for every mask S and chore e outside S, one mask at a time."""
    size = 1 << m
    for e in range(m):
        bit = 1 << e
        if any(table[s] > table[s | bit] for s in range(size) if not s & bit):
            return False
    return True


def _submodular_by_masks(table: list[int], m: int) -> bool:
    """c(S+e+f) - c(S+f) <= c(S+e) - c(S) for every mask S and chores e < f outside S, one at a time."""
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
    return True


def _random_table(rng: random.Random, m: int) -> list[int]:
    """A capped sum (submodular), maybe with one entry bumped or lowered, a flat table, or a random one."""
    kind = rng.randrange(6)
    if kind == 4:
        level = rng.randint(0, 3)
        return [0] + [level] * ((1 << m) - 1)
    if kind == 5:
        return [0] + [rng.randint(0, 6) for _ in range((1 << m) - 1)]
    weights = [rng.randint(0, 4) for _ in range(m)]
    cap = rng.randint(1, 12)
    table = [min(cap, sum(w for e, w in enumerate(weights) if s >> e & 1)) for s in range(1 << m)]
    if m and kind == 1:
        table[rng.randrange(1, 1 << m)] += rng.randint(1, 3)
    elif m and kind == 2:
        s = rng.randrange(1, 1 << m)
        table[s] = max(0, table[s] - rng.randint(1, 3))
    return table


def test_structure_checks_match_the_per_mask_loops_on_random_tables():
    rng = random.Random(37)
    monotone = submodular = 0
    for _ in range(2000):
        m = rng.randint(0, 8)
        table = _random_table(rng, m)
        fn = TableCost(m=m, values=table)
        monotone_verdict = _monotone_by_masks(table, m)
        assert check_monotone(fn, m) == monotone_verdict == fn.monotone, table
        submodular_verdict = _submodular_by_masks(table, m)
        assert check_submodular(fn, m) == submodular_verdict, table
        monotone += monotone_verdict
        submodular += submodular_verdict
    assert 1000 < monotone < 1900
    assert 700 < submodular < 1700
    # Coverage costs with multi-chore rows out of chore order: the checks read
    # int_table, which must re-index, and the loops read int_eval per mask.
    for rows, weights in [
        (((2, 5), (0, 3), (1, 4)), (2, 0, 3)),
        (((3, 1), (0,), (2, 4, 5)), (1, 4, 2)),
        (((1, 2, 4), (3,), (0,)), (5, 1, 1)),
    ]:
        fn = RowCoverage(rows, weights)
        m = fn.ground_size()
        table = [fn.int_eval(mask) for mask in range(1 << m)]
        assert fn.int_table(range(m)) == table, rows
        assert check_monotone(fn, m) == _monotone_by_masks(table, m), rows
        assert check_submodular(fn, m) == _submodular_by_masks(table, m), rows


def test_structure_checks_at_the_submodular_guard():
    m = 16
    capped = CappedAdditive(tuple(e % 5 + 1 for e in range(m)), 30)
    assert check_monotone(capped, m)
    assert check_submodular(capped, m)
    table = capped.int_table(range(m))
    last = len(table) - 1  # the full set, capped at 30 like every set around it
    raised = table[:last] + [table[last] + 1]
    assert not check_submodular(TableCost(m=m, values=raised), m)
    lowered = table[:last] + [table[last] - 1]
    assert not check_monotone(TableCost(m=m, values=lowered), m)


def _submodular_by_definition(table: list[int]) -> bool:
    """c(A | B) + c(A & B) <= c(A) + c(B) for every pair of subsets."""
    size = len(table)
    return all(table[a | b] + table[a & b] <= table[a] + table[b] for a in range(size) for b in range(size))


def test_check_submodular_matches_the_union_intersection_definition():
    rng = random.Random(0)
    verdicts = []
    for _ in range(200):
        m = rng.randint(1, 7)
        if rng.random() < 0.5:
            # A capped sum is submodular; one bumped entry may break that.
            weights = [rng.randint(0, 4) for _ in range(m)]
            cap = rng.randint(1, 10)
            table = [min(cap, sum(w for e, w in enumerate(weights) if s >> e & 1)) for s in range(1 << m)]
            if rng.random() < 0.5:
                table[rng.randrange(1, 1 << m)] += rng.randint(1, 3)
        else:
            table = [0] + [rng.randint(0, 6) for _ in range((1 << m) - 1)]
        fn = TableCost(m=m, values=tuple(Fraction(v) for v in table))
        verdict = _submodular_by_definition(table)
        assert check_submodular(fn, m) == verdict, table
        verdicts.append(verdict)
    assert 20 < sum(verdicts) < 180


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_builtin_variants_monotone_and_submodular(data):
    m = data.draw(st.integers(min_value=1, max_value=6))
    kind = data.draw(st.sampled_from(["additive", "capped_additive", "capped_cardinality", "row_coverage"]))
    values = data.draw(st.lists(st.integers(0, 9), min_size=m, max_size=m))
    if kind == "additive":
        fn = Additive(tuple(Fraction(v) for v in values))
    elif kind == "capped_additive":
        cap = data.draw(st.integers(1, 12))
        fn = CappedAdditive(tuple(Fraction(v) for v in values), Fraction(cap))
    elif kind == "capped_cardinality":
        fn = CappedCardinality(data.draw(st.integers(1, m)))
    else:
        assignment = data.draw(st.lists(st.integers(0, m - 1), min_size=m, max_size=m))
        groups: dict[int, list[int]] = {}
        for chore, g in enumerate(assignment):
            groups.setdefault(g, []).append(chore)
        weights = tuple(Fraction(data.draw(st.integers(0, 9))) for _ in groups)
        fn = RowCoverage(tuple(tuple(g) for g in groups.values()), weights)
    assert check_monotone(fn, m)
    assert check_submodular(fn, m)


def test_structure_checks_on_size_ten_ground_set():
    fn = RowCoverage(
        rows=((0, 1, 2), (3, 4), (5,), (6, 7, 8, 9)),
        weights=(Fraction(1), Fraction(1, 2), Fraction(2), Fraction(0)),
    )
    assert check_monotone(fn, 10)
    assert check_submodular(fn, 10)
    capped = CappedAdditive(tuple(Fraction(i % 4) for i in range(10)), Fraction(7))
    assert check_monotone(capped, 10)
    assert check_submodular(capped, 10)


@settings(max_examples=40, deadline=None)
@given(
    values=st.lists(st.fractions(min_value=0, max_value=10, max_denominator=20), min_size=1, max_size=6),
    factor=st.fractions(min_value=Fraction(1, 5), max_value=5, max_denominator=10),
    bits=st.integers(min_value=0),
)
def test_scaling_multiplies_cost_exactly(values, factor, bits):
    fn = Additive(tuple(values))
    scaled = scale_cost(fn, factor)
    subset = {i for i in range(len(values)) if bits >> i & 1}
    assert cost(scaled, subset) == factor * cost(fn, subset)


def test_normalize_additive():
    inst = Instance(n=1, m=3, costs=(Additive((1, 1, 2)),))
    norm = normalize(inst)
    assert norm.costs[0].values == (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2))
    assert norm.normalized
    assert normalize(norm) == norm  # idempotent


def test_normalize_capped_additive_evaluates_cap_first():
    inst = Instance(n=1, m=2, costs=(CappedAdditive((1, 1), Fraction(1)),))
    norm = normalize(inst)
    # c(E) = min(2, 1) = 1 already, so nothing changes.
    assert norm.costs[0] == inst.costs[0]


def test_normalize_rejects_zero_cost_agent():
    inst = Instance(n=2, m=2, costs=(Additive((0, 0)), Additive((1, 1))))
    with pytest.raises(NormalizationError, match="agent 0"):
        normalize(inst)


def test_normalize_rejects_unscalable_variants():
    inst = Instance(n=1, m=3, costs=(CappedCardinality(2),))
    with pytest.raises(UnsupportedVariantError):
        normalize(inst)
    table = TableCost.from_subsets(
        1, {frozenset(): 0, frozenset({0}): 2}
    )
    with pytest.raises(UnsupportedVariantError):
        normalize(Instance(n=1, m=1, costs=(table,)))


def test_normalize_makes_full_set_cost_one():
    inst = Instance(
        n=3,
        m=4,
        costs=(
            Additive((1, 2, 3, 4)),
            CappedAdditive((2, 2, 2, 2), Fraction(5)),
            RowCoverage(((0, 1), (2, 3)), (Fraction(3), Fraction(1))),
        ),
    )
    norm = normalize(inst)
    for agent in range(3):
        assert norm.cost(agent, range(4)) == 1


def test_instance_validation():
    with pytest.raises(ValidationError):
        Instance(n=2, m=3, costs=(Additive((1, 1, 1)),))
    with pytest.raises(ValidationError):
        Instance(n=1, m=2, costs=(Additive((1, 1, 1)),))
    with pytest.raises(ValidationError):
        Instance(n=0, m=1, costs=())


def test_allocation_validation():
    with pytest.raises(ValidationError):
        Allocation((frozenset({0, 1}), frozenset({1})))
    alloc = Allocation((frozenset({0}), frozenset({1, 2})))
    inst = Instance(n=2, m=3, costs=(Additive((1, 1, 1)), Additive((1, 1, 1))))
    check_partition(inst, alloc)
    with pytest.raises(ValidationError, match="misses"):
        check_partition(inst, Allocation((frozenset({0}), frozenset({1}))))
    with pytest.raises(ValidationError, match="bundles"):
        check_partition(inst, Allocation((frozenset({0, 1, 2}),)))


def test_allocation_assignment_roundtrip():
    alloc = Allocation.from_assignment((1, 0, 1), 2)
    assert alloc.bundles == (frozenset({1}), frozenset({0, 2}))
    assert alloc.assignment(3) == (1, 0, 1)


@pytest.mark.parametrize("assignment", [[0, -1, 1], [0, True], [0, 5], [0, "1"], [0, 1.0]])
def test_allocation_from_assignment_refuses_an_agent_index_outside_0_to_n_minus_1(assignment):
    with pytest.raises(BoundsError, match=r"agent index .* of chore 1 out of range for n=2"):
        Allocation.from_assignment(assignment, 2)


@pytest.mark.parametrize("n", ["2", -1, 0, True])
def test_allocation_from_assignment_checks_n_first(n):
    with pytest.raises(ValidationError) as caught:
        Allocation.from_assignment([0, 1], n)
    assert str(caught.value) == f"validation-error: agent count must be >= 1, got {n!r}"


def test_allocation_from_masks_reads_one_bundle_per_mask():
    alloc = Allocation.from_masks((0b010, 0b101))
    assert alloc == Allocation.from_assignment((1, 0, 1), 2)
    assert alloc.masks() == (0b010, 0b101)


def _refusals_in_a_child(function: str, cases: list) -> list[str]:
    """``function`` (an expression over ``Allocation``, ``Additive`` and ``set_of``) on
    each case in a child with a timeout, so that a negative mask walked bit by bit,
    which never ends, fails the test instead of hanging it."""
    script = (
        "from chorefair import Allocation\n"
        "from chorefair.model import Additive, set_of\n"
        f"function = {function}\n"
        f"for case in {cases!r}:\n"
        "    try:\n"
        "        function(case)\n"
        "        print('accepted', case)\n"
        "    except Exception as exc:\n"
        "        print(type(exc).__name__, exc)\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=20)
    assert out.returncode == 0 and out.stderr == "", out.stderr
    return out.stdout.splitlines()


def test_allocation_from_masks_refuses_malformed_masks_without_hanging():
    assert _refusals_in_a_child("Allocation.from_masks", [[-1], [1.5], [True, 2]]) == [
        "ValidationError validation-error: bundle mask must be >= 0, got -1",
        "ValidationError validation-error: bundle mask must be an int, got 1.5",
        "ValidationError validation-error: bundle mask must be an int, got True",
    ]


def test_negative_masks_are_refused_at_once():
    # Bit by bit, set_of(-1) never ended and int_eval(-1) walked off the values.
    refusal = "OverflowError can't convert negative int to unsigned"
    assert _refusals_in_a_child("set_of", [-1, -(1 << 70)]) == [refusal] * 2
    assert _refusals_in_a_child("Additive((1, 2, 3)).int_eval", [-1]) == [refusal]


def _random_partitions():
    rng = random.Random("kept-masks")
    for _ in range(200):
        n, m = rng.randint(1, 5), rng.randint(0, 12)
        assignment = [rng.randrange(n) for _ in range(m)]
        yield n, m, assignment
    yield 3, 3000, [e * 7 % 3 for e in range(3000)]  # masks of 3,000 bits


def test_allocation_of_masks_behaves_like_the_public_constructor():
    for n, m, assignment in _random_partitions():
        masks = [0] * n
        for e, agent in enumerate(assignment):
            masks[agent] |= 1 << e
        kept = Allocation._of_masks(masks)
        assigned = Allocation.from_assignment(assignment, n)
        public = Allocation(tuple(frozenset(e for e in range(m) if assignment[e] == a) for a in range(n)))
        for alloc in (kept, assigned):
            assert alloc == public and hash(alloc) == hash(public) and repr(alloc) == repr(public)
        before = pickle.dumps(public)  # before its masks are computed and kept
        assert vars(assigned)["_masks"] == tuple(masks)  # kept from the start, not computed on a read
        assert assigned.masks() is assigned.masks()
        assert kept.masks() == assigned.masks() == public.masks() == tuple(masks)
        assert kept.assignment(m) == assigned.assignment(m) == public.assignment(m) == tuple(assignment)
        assert pickle.dumps(public) == before == pickle.dumps(kept) == pickle.dumps(assigned)
        for twin in (pickle.loads(pickle.dumps(kept)), copy.copy(kept), copy.deepcopy(kept)):
            assert twin == public and hash(twin) == hash(public) and twin.masks() == tuple(masks)


def test_allocation_of_masks_refuses_overlapping_and_negative_masks():
    cases = [(0b011, 0b110), (0b1, 0b10, 0b1), (0b1, -2), (-1,), (0b1, 0b10)]
    assert _refusals_in_a_child("Allocation._of_masks", cases) == [
        "ValidationError validation-error: bundles overlap",
        "ValidationError validation-error: bundles overlap",
        "ValidationError validation-error: bundle mask must be >= 0, got -2",
        "ValidationError validation-error: bundle mask must be >= 0, got -1",
        "accepted (1, 2)",
    ]


def test_masks_of_a_public_allocation_are_mask_of_each_bundle():
    for n, m, assignment in _random_partitions():
        alloc = Allocation.from_assignment(assignment, n)
        assert alloc.masks() == tuple(mask_of(b) for b in alloc.bundles)
        assert alloc.masks() is alloc.masks()  # computed once and kept


def test_instance_json_roundtrip(ref_instance):
    blob = instance_to_json(ref_instance)
    assert blob["agents"][0]["cost"]["values"][0] == "2"
    assert instance_from_json(blob) == ref_instance


def test_instance_json_all_variants_roundtrip():
    inst = Instance(
        n=5,
        m=4,
        costs=(
            Additive((Fraction(1, 3), 0, 1, 2)),
            CappedAdditive((1, 1, 1, 1), Fraction(5, 2)),
            CappedCardinality(3),
            RowCoverage(((0, 2), (1, 3)), (Fraction(1, 2), Fraction(1, 2))),
            TableCost(m=4, values=tuple(Fraction(mask.bit_count(), 3) for mask in range(16))),
        ),
    )
    assert instance_from_json(instance_to_json(inst)) == inst


def test_allocation_json_roundtrip(alloc_b):
    assert allocation_from_json(allocation_to_json(alloc_b)) == alloc_b


def test_instance_json_errors():
    with pytest.raises(ParseError):
        instance_from_json({"n": 1, "m": 1})
    with pytest.raises(ParseError):
        instance_from_json({"n": 2, "m": 1, "agents": [{"cost": {"type": "additive", "values": ["1"]}}]})
    with pytest.raises(ParseError):
        instance_from_json(
            {"n": 1, "m": 1, "agents": [{"cost": {"type": "mystery"}}]}
        )


def test_normalized_flag_is_derived():
    inst = Instance(n=1, m=2, costs=(Additive((Fraction(1, 2), Fraction(1, 2))),))
    assert inst.normalized
    inst2 = Instance(n=1, m=2, costs=(Additive((1, 1)),))
    assert not inst2.normalized


def test_nested_coverage_row_is_a_validation_error():
    with pytest.raises(ValidationError, match="chore index must be an int"):
        RowCoverage(rows=(([0],),), weights=(Fraction(1),))


# Inputs with more than one fault: each row pins the error a cost class
# raises first, so a change to the order of its checks shows here.
@pytest.mark.parametrize(
    "build, expected",
    [
        (lambda: TableCost(m="x", values=("1", "-1")), "validation-error: table m must be an integer >= 0, got 'x'"),
        (lambda: TableCost(m=1, values=("1", "-1")), "validation-error: table cost of the empty set must be 0"),
        (lambda: TableCost(m=-1, values=("x",)), "parse-error: not a rational: 'x'"),
        (lambda: TableCost.from_subsets(2, {frozenset({0}): "x"}), "parse-error: not a rational: 'x'"),
        (
            lambda: TableCost.from_subsets(2, {frozenset({5}): 1}),
            "bounds-error: table subset [5] has a chore index out of range for m=2",
        ),
        (
            lambda: TableCost.from_subsets(2, {frozenset({-1}): 1}),
            "bounds-error: table subset [-1] has a chore index out of range for m=2",
        ),
        (
            lambda: TableCost.from_subsets(2, {frozenset({True}): 1}),
            "validation-error: chore index must be an int, got True",
        ),
        (lambda: TableCost.from_subsets(2, {frozenset({"0"}): 1}), "validation-error: chore index must be an int, got '0'"),
        (lambda: TableCost.from_subsets("2", {}), "validation-error: table m must be an integer >= 0, got '2'"),
        (lambda: TableCost.from_subsets(-1, {}), "validation-error: table m must be an integer >= 0, got -1"),
        (lambda: TableCost.from_subsets(True, {}), "validation-error: table m must be an integer >= 0, got True"),
        (
            lambda: TableCost.from_subsets(2, {frozenset({0}): 1}),
            "validation-error: table gives 2 of the 2^2 subsets, the empty set included",
        ),
        (
            lambda: TableCost.from_subsets(2, {(0, 1): 1, (1, 0): 2, (0,): 1, (1,): 1}),
            "validation-error: table names subset [0, 1] more than once",
        ),
        (
            lambda: TableCost.from_subsets(1, {frozenset(): 0, (): 0, (0,): 1}),
            "validation-error: table names subset [] more than once",
        ),
        # 2^64 entries would not fit in a list: the count is checked first.
        (
            lambda: TableCost.from_subsets(64, {frozenset({63}): 1}),
            "validation-error: table gives 2 of the 2^64 subsets, the empty set included",
        ),
        (lambda: CappedAdditive(("-1",), "0"), "validation-error: capped-additive values must be >= 0, got -1"),
        (lambda: CappedAdditive(("-1",), "y"), "parse-error: not a rational: 'y'"),
        (
            lambda: RowCoverage(rows=((0,),), weights=("-1", "2")),
            "validation-error: rows and weights must have equal length",
        ),
        (
            lambda: RowCoverage(rows=((0,), (0,)), weights=("-1", "1")),
            "validation-error: coverage weights must be >= 0, got -1",
        ),
        (
            lambda: RowCoverage(rows=((0, 1), (1, 5)), weights=("1", "1")),
            "validation-error: chore 1 appears in two coverage groups",
        ),
        (
            lambda: RowCoverage(rows=((0,), (2,)), weights=("1", "1")),
            "validation-error: coverage groups must partition 0..m-1",
        ),
        (lambda: CappedCardinality(0), "validation-error: cap must be a positive integer, got 0"),
        (lambda: CappedCardinality(True), "validation-error: cap must be a positive integer, got True"),
        (
            lambda: instance_from_json({"n": 1, "m": 2, "agents": [{"cost": {"type": "capped_cardinality", "cap": "2"}}]}),
            "parse-error: capped_cardinality cap must be an integer",
        ),
        (lambda: scale_cost(Additive(("1",)), 0), "validation-error: scale factor must be > 0, got 0"),
        (lambda: Additive(("-1", "x")), "parse-error: not a rational: 'x'"),
        (lambda: Additive((0.5,)), "parse-error: not a rational: 0.5 (floats are rejected)"),
    ],
)
def test_cost_validation_reports_the_first_fault(build, expected):
    with pytest.raises((BoundsError, ParseError, ValidationError)) as caught:
        build()
    assert str(caught.value) == expected


def test_chore_count_guard():
    from chorefair.model import MAX_CHORES

    assert Instance(n=1, m=MAX_CHORES, costs=(CappedCardinality(2),)).m == MAX_CHORES
    with pytest.raises(SizeGuardError, match="chore count"):
        Instance(n=1, m=MAX_CHORES + 1, costs=(CappedCardinality(2),))


def test_cost_refuses_a_chore_index_past_the_guard_before_building_a_mask():
    from chorefair.model import MAX_CHORES

    # A capped-cardinality cost has no ground size to bound its chores.
    assert cost(CappedCardinality(2), [MAX_CHORES - 1]) == 1
    with pytest.raises(BoundsError, match=f"chore index {MAX_CHORES} exceeds the guard {MAX_CHORES}"):
        cost(CappedCardinality(2), [MAX_CHORES])


def test_price_ratio_of_equal_zero_and_positive_costs():
    x = Fraction(3, 7)
    assert price_ratio(x, x) == 1
    assert price_ratio(Fraction(6, 7), x) == 2
    assert price_ratio(x, Fraction(0)) == INFINITY
    assert price_ratio(Fraction(0), Fraction(0)) == 1


def _conversion_cases():
    """(m, chore set) pairs: the empty set, single bits, bits 63 and 64, dense and sparse sets up to m = 100,000."""
    rng = random.Random("conversions")
    yield 1, frozenset()
    for bit in (0, 63, 64, 1022, 1023, 1024, 99_999):
        yield bit + 1, frozenset({bit})
    yield 65, frozenset({63, 64})
    for m in (8, 64, 65, 1024, 1025, 3000, 100_000):
        for density in (0.9, 0.5, 0.01):
            yield m, frozenset(e for e in range(m) if rng.random() < density) | {m - 1}
    yield 100_000, frozenset(range(100_000))


def test_chore_set_conversions_match_a_binary_string_reference():
    # The reference builds each mask from its binary digits.
    for m, chores in _conversion_cases():
        mask = int("".join("1" if e in chores else "0" for e in reversed(range(m))), 2)
        nums = [e * e % 97 for e in range(m)]
        assert mask_of(chores) == mask_of(sorted(chores)) == mask_of(iter(chores)) == mask, (m, len(chores))
        assert set_of(mask) == chores, (m, len(chores))
        assert _bit_sum(nums, mask) == sum(nums[e] for e in chores), (m, len(chores))
    for negative in (range(-1, 300), range(-1, 3000)):
        with pytest.raises(ValueError, match="negative shift count"):
            mask_of(negative)


def test_mask_reads_are_linear_on_the_dense_100000_chore_mask():
    # A byte at a time this takes about 0.01 s; bit by bit, each step copies
    # the mask and the walk takes about 0.9 s.
    mask = (1 << 100_000) - 1
    nums = [1] * 100_000
    for read in (set_of, lambda mask: _bit_sum(nums, mask)):
        elapsed = []
        for _ in range(3):
            started = time.perf_counter()
            read(mask)
            elapsed.append(time.perf_counter() - started)
        assert min(elapsed) < 0.25, elapsed


def _singles_cases():
    """(additive cost, m), with m = 0 and zero-cost chores."""
    rng = random.Random("int-singles")
    yield Additive(()), 0
    for m in (1, 2, 5, 9):
        values = [Fraction(rng.randint(0, 4), rng.randint(1, 3)) for _ in range(m)]
        values[0] = 0
        yield Additive(values), m


def test_int_singles_is_int_eval_of_each_chore_on_additive_costs():
    for fn, m in _singles_cases():
        assert list(fn.int_singles()) == [fn.int_eval(1 << e) for e in range(m)], (fn, m)
    stored = Additive((3, 0, 5))
    assert stored.int_singles() is stored._nums  # the stored integers, not a copy

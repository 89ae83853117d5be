"""Costs parsed straight to integers: the parser against ``Fraction(str)``, and
each variant's integer storage against its rational data."""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from chorefair import (
    Additive,
    CappedAdditive,
    Instance,
    RowCoverage,
    TableCost,
    instance_from_json,
    instance_to_json,
    parse_rational,
)
from chorefair.errors import ParseError, ValidationError
from chorefair.model import _parse_scaled, _ratio


def _settings(examples: int):
    return settings(max_examples=examples, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def reference_parse_rational(value) -> Fraction:
    """``parse_rational`` as it was when every cost was parsed by ``Fraction(str)``."""
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
    hint = " (floats are rejected)" if isinstance(value, float) else ""
    raise ParseError(f"not a rational: {value!r}{hint}")


def _outcome(parse, value):
    """(type, value) of a parse, or the ParseError message it raised."""
    try:
        result = parse(value)
    except ParseError as exc:
        return str(exc)
    return type(result), result


def _reference_scaled(values):
    fracs = [reference_parse_rational(v) for v in values]
    den = math.lcm(*(f.denominator for f in fracs))
    return tuple(f.numerator * (den // f.denominator) for f in fracs), den


LONG = "1" * 5000  # past int()'s 4,300-digit limit
PINNED = [
    "+5", " 5", "05", "1_0", "١٢", "1\x1c", "1/-2", "-0/3", "0/0", "1.5", "1e5", "1E5", "", "-", "--1", "5/",
    "/5", "1/2/3", "2/4", "-6/4", "1/0", "1/000", "²", "-" + LONG, LONG, "1/" + LONG, LONG + "/3",
    True, False, 1.5, float("inf"), None, [1], {}, 10**40, -(10**40), 0, Fraction(3, 6), Fraction(-7, 5),
]
# Strings built mostly from the characters that decide between the fast path and Fraction(str).
TRICKY = st.text(alphabet="0123456789-/+_ .eE\x1c\t\n١٢²", max_size=12)
VALUES = st.one_of(
    TRICKY,
    st.text(max_size=8),
    st.from_regex(r"\A-?[0-9]{1,30}(/[0-9]{1,30})?\Z"),
    st.integers(),
    st.fractions(),
    st.booleans(),
    st.floats(allow_nan=False),
    st.none(),
)


@pytest.mark.parametrize("value", PINNED, ids=range(len(PINNED)))
def test_pinned_inputs_parse_as_fraction_str_does(value):
    assert _outcome(parse_rational, value) == _outcome(reference_parse_rational, value)


@_settings(300)
@given(VALUES)
def test_parse_rational_agrees_with_fraction_str(value):
    expected = _outcome(reference_parse_rational, value)
    assert _outcome(parse_rational, value) == expected
    if not isinstance(expected, str):
        p, q = _ratio(value)
        assert (p, q) == (expected[1].numerator, expected[1].denominator)


@_settings(120)
@given(st.lists(st.one_of(VALUES, st.sampled_from(PINNED)), max_size=6))
def test_parse_scaled_agrees_with_the_reference_fractions(values):
    assert _outcome(_parse_scaled, values) == _outcome(_reference_scaled, values)


# ---------------------------------------------------------------------------
# Storage: every spelling of the same rationals is the same cost
# ---------------------------------------------------------------------------


def _unreduced(value: Fraction, rng: random.Random) -> str:
    k = rng.randint(2, 5)
    return f"{value.numerator * k}/{value.denominator * k}"


def _cases(seed: int):
    """(variant, m, rational data by field, parent ``to_json``, build from given data)."""
    rng = random.Random(seed)
    m = rng.randint(0, 6)

    def rationals(count, low=0):
        return [Fraction(rng.randint(low, 30), rng.randint(1, 12)) for _ in range(count)]

    values = rationals(m)
    cap = Fraction(rng.randint(1, 30), rng.randint(1, 12))
    yield "additive", m, {"values": values}, {"type": "additive", "values": [str(v) for v in values]}, \
        lambda d: Additive(d["values"])
    yield "capped", m, {"values": values, "cap": [cap]}, \
        {"type": "capped_additive", "values": [str(v) for v in values], "cap": str(cap)}, \
        lambda d: CappedAdditive(d["values"], d["cap"][0])
    rows = [[] for _ in range(rng.randint(1, max(m, 1)))] if m else []
    for chore in range(m):
        rows[rng.randrange(len(rows))].append(chore)
    rows = [r for r in rows if r]
    weights = rationals(len(rows))
    yield "coverage", m, {"weights": weights}, \
        {"type": "row_coverage", "rows": rows, "weights": [str(w) for w in weights]}, \
        lambda d: RowCoverage(tuple(map(tuple, rows)), d["weights"])
    table_m = min(m, 4)
    table = [Fraction(0)] + rationals((1 << table_m) - 1)
    yield "table", table_m, {"values": table}, {"type": "table", "m": table_m, "values": [str(v) for v in table]}, \
        lambda d: TableCost(table_m, d["values"])


CASES = [(seed, *case) for seed in range(25) for case in _cases(seed)]


@pytest.mark.parametrize("seed,kind,m,data,parent_json,build", CASES, ids=[f"{c[1]}-{c[0]}" for c in CASES])
def test_every_spelling_of_the_same_data_is_one_cost(seed, kind, m, data, parent_json, build):
    rng = random.Random(seed)
    from_fractions = build(data)
    from_strings = build({name: [_unreduced(v, rng) for v in vs] for name, vs in data.items()})
    blob = json.dumps(instance_to_json(Instance(n=1, m=m, costs=(from_fractions,))))
    round_trip = instance_from_json(json.loads(blob)).costs[0]
    scaled = {name: [v * 3 / 7 for v in vs] for name, vs in data.items()}
    built = [from_fractions, from_strings, round_trip]
    if kind != "table":
        built.append(from_fractions.scaled(Fraction(3, 7)).scaled(Fraction(7, 3)))
        assert from_fractions.scaled(Fraction(3, 7)) == build(scaled)
    for fn in built:
        assert fn == from_fractions and hash(fn) == hash(from_fractions)
        assert fn.denominator() == from_fractions.denominator()
        assert [fn.int_eval(mask) for mask in range(1 << m)] == [
            from_fractions.int_eval(mask) for mask in range(1 << m)
        ]
        assert json.dumps(fn.to_json()) == json.dumps(parent_json)
        for name, vs in data.items():
            read = getattr(fn, name)
            read = read if isinstance(read, tuple) else (read,)
            assert read == tuple(vs) and all(type(v) is Fraction for v in read)
    assert from_fractions.denominator() == math.lcm(*(v.denominator for vs in data.values() for v in vs))


def test_integer_constructor_matches_the_public_one():
    assert Additive._from_ints([2, 4, 0], 12) == Additive((Fraction(1, 6), Fraction(1, 3), 0))
    assert Additive._from_ints([2, 4, 0], 12).denominator() == 6
    assert CappedAdditive._from_ints([3, 5, 6], 6) == CappedAdditive((Fraction(1, 2), Fraction(5, 6)), 1)
    assert RowCoverage._from_ints([4, 4], 8, ((0, 2), (1,))) == RowCoverage(((2, 0), (1,)), ("1/2", "1/2"))
    assert Additive._from_ints([0, 0], 7).denominator() == 1


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: Additive((Fraction(1, 2), Fraction(-1, 2))), "additive values must be >= 0, got -1/2"),
        (lambda: Additive(("1/3", "-2/4")), "additive values must be >= 0, got -1/2"),
        (lambda: CappedAdditive(("1/5", "-4/6"), 1), "capped-additive values must be >= 0, got -2/3"),
        (lambda: CappedAdditive((1, 2), 0), "cap must be > 0, got 0"),
        (lambda: CappedAdditive(("1/3", 2), "-3/6"), "cap must be > 0, got -1/2"),
        (lambda: RowCoverage(((0,), (1,)), ("1/3", "-2/8")), "coverage weights must be >= 0, got -1/4"),
        (lambda: TableCost(1, ("1/2", 1)), "table cost of the empty set must be 0"),
        (lambda: TableCost(2, (0, "1/2", "-3/9", 1)), "table values must be >= 0, got -1/3"),
    ],
)
def test_rejection_messages_are_worded_from_the_reduced_rational(build, message):
    with pytest.raises(ValidationError) as info:
        build()
    assert str(info.value) == f"validation-error: {message}"

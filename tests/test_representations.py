"""One cost written as several variants gives the same answers.

Several variants describe the same set function:

- ``Additive(v)``, ``CappedAdditive(v, sum(v))`` and a ``RowCoverage`` with
  one-chore rows and weights v;
- ``CappedCardinality(c)`` and ``CappedAdditive([1] * m, c)``;
- every variant and the ``TableCost`` of its values, at m <= 10.

Each form takes its own route through the share engine and the searches
(grouped min-max partition, two-way split scan, enumeration), so a defect
of one route shows as a disagreement (metamorphic testing: Chen, Cheung &
Yiu, HKUST-CS98-01, 1998). Each agent's cost is rewritten into every form,
and each instance form is asked every criterion's alpha on one allocation,
``mms_value`` at several k and ``pairwise_mms``; small instances are also
asked ``optimal_allocation``'s cost and ``best_fair_allocation``'s
``fair_exists``, best fair cost and optimal cost. Only values are
compared, since a witness may differ by route.

A refusal is an answer too: an answer against a refusal fails, unless the
refusing form is a table past its own enumeration or split-scan guard, as a
table's size is its own. The formula variants run at m = 65, 120 and 400,
past every size a per-variant guard could pick.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from chorefair import (
    Additive,
    Allocation,
    CappedAdditive,
    CappedCardinality,
    Criterion,
    Instance,
    RowCoverage,
    TableCost,
    best_fair_allocation,
    fairness_report,
    mms_value,
    optimal_allocation,
    pairwise_mms,
)
from chorefair import mms
from chorefair.errors import SizeGuardError

KINDS = ("additive", "capped_cardinality", "capped_additive", "row_coverage")
MAX_TABLE_M = 10
SHARE_KS = (1, 2, 3, 5, 9)
ALPHAS = (Fraction(1), Fraction(3, 2))


def _forms(kind: str, m: int, rng: random.Random) -> list:
    """One random cost of ``kind`` over m chores, written every equivalent way."""
    if kind == "additive":
        values = [rng.randint(1, 20) for _ in range(m)]
        forms = [Additive(values), CappedAdditive(values, sum(values)), RowCoverage([(e,) for e in range(m)], values)]
    elif kind == "capped_cardinality":
        cap = rng.randint(1, m)
        forms = [CappedCardinality(cap), CappedAdditive([1] * m, cap)]
    elif kind == "capped_additive":
        values = [rng.randint(0, 20) for _ in range(m)]
        forms = [CappedAdditive(values, rng.randint(1, sum(values) + 1))]
    else:
        labels = [rng.randrange(m) for _ in range(m)]
        rows = [[e for e in range(m) if labels[e] == g] for g in sorted(set(labels))]
        forms = [RowCoverage(rows, [rng.randint(0, 20) for _ in rows])]
    if m <= MAX_TABLE_M:
        fn = forms[0]
        forms.append(TableCost(m, [Fraction(fn.int_eval(mask), fn.denominator()) for mask in range(1 << m)]))
    return forms


def _instances(kind: str, n: int, m: int, seed: int) -> list[Instance]:
    """Every form of one random instance: form j gives each agent its cost's j-th form."""
    rng = random.Random(f"representations-{kind}-{n}-{m}-{seed}")
    per_agent = [_forms(kind, m, rng) for _ in range(n)]
    return [Instance(n=n, m=m, costs=costs) for costs in zip(*per_agent)]


def _table_past_its_guard(inst: Instance, t: int, k: int) -> bool:
    """Whether ``inst`` holds tables, and a table share of t chores at k is past the split scan and enumeration."""
    split_scan = k == 2 and t <= mms.PAIRWISE_MAX_CHORES
    past = t > mms.ENUM_MAX_CHORES or k > mms.ENUM_MAX_BLOCKS
    return isinstance(inst.costs[0], TableCost) and past and not split_scan


def _assert_same(forms: list[Instance], ask, may_refuse=lambda inst: False) -> None:
    """``ask`` gives one value on every form, or every form refuses, or only forms that ``may_refuse`` do."""
    answers, refused = [], []
    for inst in forms:
        try:
            answers.append((inst, ask(inst)))
        except SizeGuardError as exc:
            refused.append((inst, str(exc)))
    assert len({value for _, value in answers}) <= 1, answers
    if answers:
        assert all(may_refuse(inst) for inst, _ in refused), (answers[0], refused)


def _check_shares_and_alphas(forms: list[Instance], rng: random.Random) -> None:
    m, n = forms[0].m, forms[0].n
    for k in SHARE_KS:
        _assert_same(forms, lambda inst: mms_value(inst, 0, k).value, lambda inst: _table_past_its_guard(inst, m, k))
    a = [e for e in range(m) if rng.random() < 0.4]
    b = [e for e in range(m) if e not in a and rng.random() < 0.7]
    _assert_same(forms, lambda inst: pairwise_mms(inst, 0, a, b).value)
    alloc = Allocation.from_assignment([rng.randrange(n) for _ in range(m)], n)
    _assert_same(forms, lambda inst: tuple(fairness_report(inst, alloc, tuple(Criterion)).alphas.items()))


def _searched(inst: Instance, criterion: Criterion, alpha: Fraction) -> tuple:
    report = best_fair_allocation(inst, criterion, alpha)
    return report.fair_exists, report.best_fair_cost, report.opt_cost


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n,m", [(2, 3), (3, 5), (2, 8), (2, MAX_TABLE_M)])
def test_small_instances_answer_alike_in_every_form(kind, n, m):
    for seed in range(2):
        forms = _instances(kind, n, m, seed)
        assert len(forms) >= 2
        _check_shares_and_alphas(forms, random.Random(seed))
        _assert_same(forms, lambda inst: optimal_allocation(inst).social_cost)
        for criterion in Criterion:
            for alpha in ALPHAS:
                _assert_same(forms, lambda inst: _searched(inst, criterion, alpha))


@pytest.mark.parametrize("kind", ("additive", "capped_cardinality"))
@pytest.mark.parametrize("m", (65, 120, 400))
def test_formula_variants_past_every_per_variant_size_answer_alike(kind, m):
    # ``optimal_allocation`` is left out here: on an additive instance it
    # sums per-chore minima at any m, while every other form refuses past the
    # enumeration guard of n^m allocations.
    forms = _instances(kind, 3, m, 0)
    _check_shares_and_alphas(forms, random.Random(m))
    _assert_same(forms, lambda inst: _searched(inst, Criterion.MMS, Fraction(1)))

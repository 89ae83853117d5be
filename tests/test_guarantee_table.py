"""The guarantee table, byte for byte, and a check of every cell.

``tests/golden/guarantee_table.txt`` holds one line per ``implied_guarantee``
lookup over both settings, every criterion as source and as target, n from 2
to 8 and six alphas: the result's kind, value and value type, or the
exception class and message. Regenerate only for a deliberate, documented
change to the table, from the repository root:

    PYTHONPATH=src python3 tests/test_guarantee_table.py > tests/golden/guarantee_table.txt

Every row of every cell of ``_GUARANTEES`` is then checked. A row with a
value (``bound`` or ``trivial_only``) must hold on every allocation of small
random instances of its setting. A row without a finite improvement
(``unbounded`` or ``trivial_only``) must be shown, at each n from 2 to 5 at
which it answers for some alpha of the grid, by a catalog family or by a
literal witness instance: the target alpha reaches 50 (``unbounded``) or
comes within 1/20 of the trivial value (``trivial_only``). Additive
instances also show submodular rows, since additive costs are submodular.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

import pytest

from chorefair.criteria import (
    _GUARANTEES,
    DEFAULT_CRITERIA,
    SETTINGS,
    Criterion,
    context_for,
    fairness_report,
    implied_guarantee,
)
from chorefair.errors import ChoreFairError
from chorefair.families import make_family
from chorefair.model import (
    INFINITY,
    Additive,
    Allocation,
    CappedCardinality,
    Instance,
    RowCoverage,
    rational_str,
)
from chorefair.search import _scan_masks, random_instance

GOLDEN = Path(__file__).resolve().parent / "golden" / "guarantee_table.txt"

GRID_N = range(2, 9)
GRID_ALPHAS = (Fraction(1), Fraction(5, 4), Fraction(4, 3), Fraction(3, 2), Fraction(2), Fraction(5, 2))


def _lookup_line(setting: str, src: Criterion, dst: Criterion, n: int, alpha: Fraction) -> str:
    key = f"{setting} {src.value} -> {dst.value} n={n} alpha={alpha}:"
    try:
        g = implied_guarantee(src, alpha, dst, n, setting)
    except ChoreFairError as exc:
        return f"{key} raises {type(exc).__name__}: {exc}"
    value = "-" if g.value is None else rational_str(g.value)
    return f"{key} {g.kind} {value} {type(g.value).__name__}"


def table_text() -> str:
    lines = [
        _lookup_line(setting, src, dst, n, alpha)
        for setting in SETTINGS
        for src in Criterion
        for dst in Criterion
        for n in GRID_N
        for alpha in GRID_ALPHAS
    ]
    return "\n".join(lines) + "\n"


def test_guarantee_table_is_unchanged():
    assert table_text() == GOLDEN.read_text(encoding="utf-8")


def _first_row(key: tuple, a: Fraction, n: int) -> int | None:
    return next((i for i, (applies, _, _) in enumerate(_GUARANTEES[key]) if applies(a, n)), None)


# Seeds per (setting, n); m cycles through 3, 4 and 5.
EXHAUSTIVE_SEEDS = 10


@pytest.fixture(scope="module")
def rows_held() -> set:
    """(key, row) of every valued row met on some allocation, each checked there."""
    held: set = set()
    lookups: dict = {}
    for setting in SETTINGS:
        keys = [key for key in _GUARANTEES if key[0] == setting]
        for n in (2, 3, 4):
            for seed in range(EXHAUSTIVE_SEEDS):
                m = 3 + seed % 3
                inst = random_instance(n, m, setting, seed=seed)
                ctx = context_for(inst)
                for masks in _scan_masks(n, m):
                    alphas = {c: ctx.min_alpha_masks(masks, c)[0] for c in DEFAULT_CRITERIA}
                    for key in keys:
                        _, src, dst = key
                        a = alphas[src]
                        if a == INFINITY:
                            continue
                        if (key, a, n) not in lookups:
                            row = _first_row(key, a, n)
                            bound = None if row is None else implied_guarantee(src, a, dst, n, setting).value
                            lookups[key, a, n] = row, bound
                        row, bound = lookups[key, a, n]
                        if bound is None:
                            continue
                        assert alphas[dst] <= bound, (key, n, a, alphas[dst], bound, inst, masks)
                        held.add((key, row))
    return held


_LARGE = 50
_NEAR = Fraction(1, 20)
E = Criterion
# (family id, params, src, dst): the family's reference allocation shows the row
# that applies at its measured src alpha.
FAMILY_CLAIMS = [
    *[("EF1_NOT_EFX", dict(n=n, p=200), E.EF1, E.EFX) for n in (2, 3, 4, 5)],
    *[
        ("PMMS_NOT_EF1", dict(n=n, alpha=Fraction(101, 100), epsilon=Fraction(1, 1000)), E.PMMS, dst)
        for n in (2, 3, 4, 5)
        for dst in (E.EF1, E.EFX)
    ],
    *[("MMS_NOT_PMMS", dict(n=n, p=50), E.MMS, E.PMMS) for n in (4, 5)],
    *[("MMS_NOT_EF1", dict(n=n, p=50), E.MMS, dst) for n in (4, 5) for dst in (E.EF1, E.EFX)],
    *[
        ("SUB_EF_COVERAGE", dict(n=n), src, dst)
        for n in (2, 4)
        for src in (E.EF, E.EFX, E.EF1)
        for dst in (E.MMS, E.PMMS)
    ],
    *[("SUB_PMMS_CAPPED", dict(), E.PMMS, dst) for dst in (E.EF1, E.EFX)],
]


def _mms_not_pmms_at_three(x: int) -> tuple[Instance, Allocation]:
    """Agent 0 costs 1 on each of x chores and x on two more; agents 1 and 2 cost 1 on every chore."""
    unit = Additive((1,) * (x + 2))
    inst = Instance(n=3, m=x + 2, costs=(Additive((1,) * x + (x, x)), unit, unit))
    return inst, Allocation((frozenset(range(x)), frozenset(), frozenset({x, x + 1})))


def _coverage_grid(n: int) -> tuple[Instance, Allocation]:
    """``SUB_EF_COVERAGE``'s grid with 2n unit rows of n chores: every agent alike, columns as bundles."""
    m = 2 * n * n
    rows = tuple(tuple(range(r * n, (r + 1) * n)) for r in range(2 * n))
    fn = RowCoverage(rows=rows, weights=(1,) * (2 * n))
    return Instance(n=n, m=m, costs=(fn,) * n), Allocation(tuple(frozenset(range(j, m, n)) for j in range(n)))


def _capped_one(n: int) -> tuple[Instance, Allocation]:
    """Every agent has CappedCardinality(1); agent 0 holds all three chores."""
    bundles = (frozenset(range(3)),) + (frozenset(),) * (n - 1)
    return Instance(n=n, m=3, costs=(CappedCardinality(1),) * n), Allocation(bundles)


# (id, instance, allocation, measured alphas, (src, dst) claims): the parts of
# cells that no family shows at some n (MMS rows at n = 3, submodular EF rows
# at odd n), and PMMS to EF1 and EFX at alpha = 1 for submodular costs.
WITNESSES = [
    *[
        (
            f"mms_not_pmms_n3_x{x}",
            *_mms_not_pmms_at_three(x),
            {E.MMS: 1, E.PMMS: 2, E.EF1: INFINITY, E.EFX: INFINITY},
            [(E.MMS, dst) for dst in (E.PMMS, E.EF1, E.EFX)],
        )
        for x in (2, 10, 40)
    ],
    *[
        (
            f"coverage_2n_rows_n{n}",
            *_coverage_grid(n),
            {E.EF: 1, E.EF1: 1, E.EFX: 1, E.MMS: n, E.PMMS: 2},
            [(src, dst) for src in (E.EF, E.EFX, E.EF1) for dst in (E.MMS, E.PMMS)],
        )
        for n in (3, 5)
    ],
    *[
        (
            f"capped_one_n{n}",
            *_capped_one(n),
            {E.PMMS: 1, E.MMS: 1, E.EF1: INFINITY, E.EFX: INFINITY},
            [(E.PMMS, dst) for dst in (E.EF1, E.EFX)],
        )
        for n in (3, 4, 5)
    ],
]


@pytest.mark.parametrize("inst, alloc, alphas", [w[1:4] for w in WITNESSES], ids=[w[0] for w in WITNESSES])
def test_witnesses_measure_their_alphas(inst, alloc, alphas):
    report = fairness_report(inst, alloc)
    assert {c: report.alphas[c] for c in alphas} == alphas


def _claims():
    """(label, instance, allocation, settings it shows, src, dst) of every family and witness claim."""
    for family_id, params, src, dst in FAMILY_CLAIMS:
        bundle = make_family(family_id, **params)
        settings = SETTINGS if bundle.setting == "additive" else (bundle.setting,)
        yield (family_id, params), bundle.instance, bundle.reference_allocation, settings, src, dst
    for label, inst, alloc, _, pairs in WITNESSES:
        settings = SETTINGS if inst.is_additive() else ("submodular",)
        for src, dst in pairs:
            yield label, inst, alloc, settings, src, dst


# Each unbounded or trivial row must be shown at every n of this range at which it answers.
SHOWN_N = range(2, 6)


@pytest.fixture(scope="module")
def rows_shown() -> set:
    """(key, row, n) of every unbounded or trivial row a family or witness shows."""
    shown: set = set()
    for label, inst, alloc, settings, src, dst in _claims():
        ctx = context_for(inst)
        masks = alloc.masks()
        a = ctx.min_alpha_masks(masks, src)[0]
        measured = ctx.min_alpha_masks(masks, dst)[0]
        for setting in settings:
            key = (setting, src, dst)
            row = _first_row(key, a, inst.n)
            assert row is not None, (label, key, a)
            _, kind, value = _GUARANTEES[key][row]
            if kind == "unbounded":
                assert measured >= _LARGE, (label, key, measured)
            else:
                assert kind == "trivial_only", (label, key, kind)
                assert measured > value(a, inst.n) - _NEAR, (label, key, measured)
            shown.add((key, row, inst.n))
    return shown


def test_valued_rows_hold_on_every_small_allocation(rows_held):
    assert rows_held


def test_families_show_every_unbounded_and_trivial_row(rows_shown):
    assert rows_shown


def test_every_cell_is_checked(rows_held, rows_shown):
    assert len(_GUARANTEES) == 32
    for key, rows in _GUARANTEES.items():
        for row, (_, kind, value) in enumerate(rows):
            if value is not None:
                assert (key, row) in rows_held, (key, row, "no small allocation meets this row")
            if kind == "bound":
                continue
            answering = [n for n in SHOWN_N if any(_first_row(key, a, n) == row for a in GRID_ALPHAS)]
            assert answering, (key, row, "this row answers at no n of SHOWN_N")
            for n in answering:
                assert (key, row, n) in rows_shown, (key, row, n, "no family or witness shows this row at this n")


if __name__ == "__main__":
    sys.stdout.write(table_text())

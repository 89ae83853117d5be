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
(``unbounded`` or ``trivial_only``) must be shown by a catalog family: the
target alpha reaches 50 (``unbounded``) or comes within 1/20 of the trivial
value (``trivial_only``). Additive families also show submodular rows, since
additive costs are submodular. The README lists the parts of cells no family
shows.
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
    implied_guarantee,
)
from chorefair.errors import ChoreFairError
from chorefair.families import make_family
from chorefair.model import INFINITY, rational_str
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


@pytest.fixture(scope="module")
def rows_shown() -> set:
    """(key, row) of every unbounded or trivial row a catalog family shows."""
    shown: set = set()
    for family_id, params, src, dst in FAMILY_CLAIMS:
        bundle = make_family(family_id, **params)
        inst, alloc = bundle.instance, bundle.reference_allocation
        ctx = context_for(inst)
        masks = alloc.masks()
        a = ctx.min_alpha_masks(masks, src)[0]
        measured = ctx.min_alpha_masks(masks, dst)[0]
        settings = SETTINGS if bundle.setting == "additive" else (bundle.setting,)
        for setting in settings:
            key = (setting, src, dst)
            row = _first_row(key, a, inst.n)
            assert row is not None, (family_id, params, key, a)
            _, kind, value = _GUARANTEES[key][row]
            if kind == "unbounded":
                assert measured >= _LARGE, (family_id, params, key, measured)
            else:
                assert kind == "trivial_only", (family_id, params, key, kind)
                assert measured > value(a, inst.n) - _NEAR, (family_id, params, key, measured)
            shown.add((key, row))
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
            if kind != "bound":
                assert (key, row) in rows_shown, (key, row, "no catalog family shows this row")


if __name__ == "__main__":
    sys.stdout.write(table_text())

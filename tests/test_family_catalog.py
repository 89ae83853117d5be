"""Byte-for-byte catalog: ``FAMILY_IDS`` and ``chorefair family`` on every family.

``tests/golden/family_catalog.txt`` holds the ``FAMILY_IDS`` tuple (order
included) as its first line, then one ``chorefair family`` output line per
family at the first valid entry of the ``verify`` grid. Those lines pin each
family's id, ``params`` (names, order and values), ``setting``, ``kind``,
instance, reference allocation and expectations. Regenerate only for a
deliberate, documented output change, from the repository root:

    PYTHONPATH=src python3 tests/test_family_catalog.py > tests/golden/family_catalog.txt
"""

from __future__ import annotations

import contextlib
import inspect
import io
import itertools
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from chorefair import families
from chorefair.cli import main
from chorefair.errors import ChoreFairError
from chorefair.families import FAMILY_IDS, family_params, make_family, valid_params
from chorefair.model import rational_str

GOLDEN = Path(__file__).resolve().parent / "golden" / "family_catalog.txt"

# The grid of ``chorefair verify`` at its defaults (--n-max 5, --epsilon 1/100).
GRID = {
    "n": (2, 3, 4, 5),
    "m": (6,),
    "p": (3, 10, 50),
    "alpha": (Fraction(1), Fraction(5, 4), Fraction(3, 2), Fraction(2)),
    "epsilon": (Fraction(1, 100),),
}


def _first_grid_entry(family_id: str) -> dict:
    names = family_params(family_id)
    for combo in itertools.product(*(GRID[name] for name in names)):
        params = dict(zip(names, combo))
        if valid_params(family_id, **params):
            return params
    raise AssertionError(f"{family_id} has no valid grid entry")


def catalog_text() -> str:
    lines = [json.dumps(list(FAMILY_IDS))]
    for family_id in FAMILY_IDS:
        argv = ["family", "--id", family_id]
        for name, value in _first_grid_entry(family_id).items():
            argv += [f"--{name}", str(value) if isinstance(value, int) else rational_str(value)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0
        lines.append(out.getvalue().rstrip("\n"))
    return "\n".join(lines) + "\n"


def test_family_catalog_is_unchanged():
    assert catalog_text() == GOLDEN.read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "family_id, params, message",
    [
        ("NOPE", {}, "unknown family 'NOPE'; known ids: EF_MMS_TIGHT, EF_PMMS_TIGHT, EF1_NOT_EFX,"),
        ("EF_MMS_TIGHT", {"n": 3}, "family EF_MMS_TIGHT requires parameters ['alpha']"),
        ("POF_N3_UNBOUNDED", {}, "family POF_N3_UNBOUNDED requires parameters ['n', 'm', 'epsilon']"),
        ("PMMS_MMS_N3_TIGHT", {"n": 3}, "family PMMS_MMS_N3_TIGHT takes parameters (), not ['n']"),
        (
            "EF_MMS_TIGHT",
            {"n": 3, "alpha": 1, "q": 2, "b": 1},
            "family EF_MMS_TIGHT takes parameters ('n', 'alpha'), not ['b', 'q']",
        ),
        ("EF_MMS_TIGHT", {"n": "3", "alpha": 1}, "parameter n must be an integer, got '3'"),
        ("POF_N3_UNBOUNDED", {"n": 3, "m": True, "epsilon": 1}, "parameter m must be an integer, got True"),
        ("EF1_NOT_EFX", {"n": 3, "p": 2.0}, "parameter p must be an integer, got 2.0"),
        ("EF_MMS_TIGHT", {"n": 3, "alpha": "x"}, "not a rational: 'x'"),
        ("PMMS_NOT_EF1", {"n": 3, "alpha": 1.5, "epsilon": 1}, "not a rational: 1.5 (floats are rejected)"),
        ("PMMS_NOT_EF1", {"n": 1, "alpha": 2, "epsilon": 1}, "family parameters violate: n >= 2"),
        # The shared domains are checked before a builder sizes its lists.
        ("EF_MMS_TIGHT", {"n": -100000, "alpha": 1}, "family parameters violate: n >= 2"),
        ("PMMS_MMS_LB", {"n": 1}, "family parameters violate: n >= 2"),
        ("MMS_NOT_EF1", {"n": 4, "p": 0}, "family parameters violate: p >= 1"),
        ("EF1_NOT_EFX", {"n": 3, "p": 1}, "family parameters violate: p >= 2"),
        ("EF_PMMS_TIGHT", {"n": 3, "alpha": Fraction(1, 2)}, "family parameters violate: alpha >= 1"),
        ("APMMS_MMS_LB", {"n": 2, "alpha": 1}, "family parameters violate: 1 < alpha < 3/2"),
        ("POF_EF1_N2", {"epsilon": 0}, "family parameters violate: epsilon > 0"),
        ("POF_EF1_N2", {"epsilon": Fraction(1, 12)}, "family parameters violate: epsilon < 1/12"),
        ("POF_N3_UNBOUNDED", {"n": 3, "m": 4, "epsilon": -1}, "family parameters violate: epsilon > 0"),
    ],
)
def test_parameter_errors_keep_their_messages(family_id, params, message):
    with pytest.raises(ChoreFairError) as info:
        make_family(family_id, **params)
    assert message in str(info.value)


def test_each_shared_domain_is_stated_once():
    source = inspect.getsource(families)
    for rule in ("n >= 2", "p >= 1", "alpha >= 1", "epsilon > 0"):
        assert source.count(f'"{rule}"') == 1, rule


def test_no_connection_family_expects_an_alpha_below_1():
    # A minimal alpha is at least 1. PMMS_NOT_EF1 expects EF1 = 1/epsilon, so
    # it must refuse epsilon > 1; epsilon 1 stays valid.
    grid = dict(GRID, epsilon=(Fraction(1, 100), Fraction(1), Fraction(3, 2), Fraction(2)))
    built = set()
    for family_id in FAMILY_IDS:
        names = family_params(family_id)
        for combo in itertools.product(*(grid[name] for name in names)):
            params = dict(zip(names, combo))
            if not valid_params(family_id, **params):
                continue
            bundle = make_family(family_id, **params)
            built.add((family_id, params.get("epsilon")))
            assert all(alpha >= 1 for _, alpha in bundle.expected_alphas), (family_id, params)
    assert ("PMMS_NOT_EF1", Fraction(1)) in built
    assert not {eps for family_id, eps in built if family_id == "PMMS_NOT_EF1"} & {Fraction(3, 2), Fraction(2)}


if __name__ == "__main__":
    sys.stdout.write(catalog_text())

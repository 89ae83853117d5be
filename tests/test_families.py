"""Catalog families: structural validity and exact expectations."""

from __future__ import annotations

from fractions import Fraction

import pytest

from chorefair import (
    Additive,
    CappedCardinality,
    Criterion,
    check_monotone,
    check_partition,
    check_submodular,
    make_family,
    min_alpha,
    mms_value,
)
from chorefair.errors import ArgumentError, SizeGuardError, ValidationError
from chorefair.families import FAMILY_IDS, family_params, family_to_json, valid_params
from chorefair.model import MAX_CHORES
from chorefair.search import _family_grid

SMALL_GRID = dict(
    n_values=(2, 3, 4),
    alphas=(Fraction(1), Fraction(5, 4), Fraction(2)),
    epsilon=Fraction(1, 100),
    p_values=(3, 9),
)


def _small_bundles():
    for family_id in FAMILY_IDS:
        yield from _family_grid(family_id, **SMALL_GRID)


def test_every_family_has_a_valid_small_parameterization():
    seen = {bundle.family_id for bundle in _small_bundles()}
    assert seen == set(FAMILY_IDS)


def test_reference_allocations_partition_the_chores():
    for bundle in _small_bundles():
        check_partition(bundle.instance, bundle.reference_allocation)


def test_connection_families_reproduce_expected_alphas():
    for bundle in _small_bundles():
        if bundle.kind != "connection":
            continue
        for crit, expected in bundle.expected_alphas:
            got = min_alpha(bundle.instance, bundle.reference_allocation, crit)
            assert got == expected, (bundle.family_id, bundle.params, crit)


def test_connection_families_expected_share_values():
    for bundle in _small_bundles():
        for name, expected in bundle.expected_values:
            if name == "whole_set_share_agent0":
                got = mms_value(bundle.instance, 0, bundle.instance.n).value
            elif name == "pair_share_agent0":
                masks = bundle.reference_allocation.bundles
                union = masks[0] | masks[1]
                got = mms_value(bundle.instance, 0, 2, union).value
            else:  # pragma: no cover
                raise AssertionError(name)
            assert got == expected, (bundle.family_id, bundle.params, name)


def test_submodular_families_pass_structure_checks():
    for bundle in _small_bundles():
        if bundle.setting != "submodular":
            continue
        if bundle.instance.m > 16:
            continue  # guarded; larger members are covered via the variant tests
        for fn in set(bundle.instance.costs):
            assert check_monotone(fn, bundle.instance.m)
            assert check_submodular(fn, bundle.instance.m)


def test_price_families_reference_is_fair_at_level():
    for bundle in _small_bundles():
        if bundle.kind != "price":
            continue
        for check in bundle.price_checks:
            got = min_alpha(bundle.instance, bundle.reference_allocation, check.criterion)
            assert got <= check.alpha, (bundle.family_id, check.criterion)


def test_invalid_parameters_name_the_constraint():
    with pytest.raises(ArgumentError, match="n even"):
        make_family("SUB_EF_COVERAGE", n=3)
    with pytest.raises(ArgumentError, match="alpha"):
        make_family("PMMS_NOT_EF1", n=3, alpha=Fraction(2), epsilon=Fraction(1, 100))
    with pytest.raises(ArgumentError, match="n odd"):
        make_family("PMMS_MMS_LB", n=4)
    with pytest.raises(ArgumentError, match="epsilon"):
        make_family("POF_EF1_N2", epsilon=Fraction(1, 2))
    with pytest.raises(ArgumentError, match="n >= 4"):
        make_family("MMS_NOT_PMMS", n=3, p=5)
    with pytest.raises(ArgumentError, match="unknown family"):
        make_family("NOPE")
    with pytest.raises(ArgumentError, match="requires parameters"):
        make_family("EF_MMS_TIGHT", n=3)
    with pytest.raises(ArgumentError, match="takes parameters"):
        make_family("PMMS_MMS_N3_TIGHT", n=3)


def test_valid_params_probe():
    assert valid_params("APMMS_MMS_LB", n=4, alpha=Fraction(5, 4))
    assert not valid_params("APMMS_MMS_LB", n=3, alpha=Fraction(5, 4))
    assert not valid_params("APMMS_MMS_LB", n=4, alpha=Fraction(2))


def test_family_params_listing():
    assert family_params("POF_N3_UNBOUNDED") == ("n", "m", "epsilon")
    assert family_params("PMMS_MMS_N3_TIGHT") == ()
    with pytest.raises(ArgumentError) as unknown:
        family_params("NOPE")
    assert str(unknown.value) == "argument-error: unknown family 'NOPE'"


def test_family_json_contains_expectations():
    bundle = make_family("EF1_MMS_TIGHT", n=3, alpha=Fraction(2))
    blob = family_to_json(bundle)
    assert blob["expected"]["source_alpha"] == "2"
    assert blob["expected"]["min_alpha_MMS"] == "2"
    assert blob["instance"]["agents"][0]["cost"]["values"][0] == "4"
    bundle2 = make_family("POF_PMMS32_N2", epsilon=Fraction(1, 100))
    blob2 = family_to_json(bundle2)
    assert blob2["expected"]["opt_cost"] == "19/25"
    assert blob2["expected"]["price[PMMS@3/2]"] == "175/152"


def test_family_instances_roundtrip_through_json():
    from chorefair import instance_from_json, instance_to_json, min_alpha

    # Includes a zero coverage weight (n=4, alpha=3/2 makes the split exact).
    bundle = make_family("SUB_PMMS_MMS_TIGHT", n=4, alpha=Fraction(3, 2))
    reloaded = instance_from_json(instance_to_json(bundle.instance))
    assert reloaded == bundle.instance
    assert min_alpha(reloaded, bundle.reference_allocation, Criterion.MMS) == 3


def test_specific_spot_values():
    b = make_family("EF1_MMS_TIGHT", n=3, alpha=Fraction(2))
    assert b.instance.costs[0].values == (4, 2, 2, 1, 1, 1, 1)
    assert dict(b.expected_alphas)[Criterion.MMS] == 2

    b = make_family("PMMS_MMS_N3_TIGHT")
    assert b.instance.costs[0].values == (2, 2, 2, 1, 1, 1)
    assert dict(b.expected_alphas)[Criterion.MMS] == Fraction(4, 3)

    b = make_family("SUB_EF_COVERAGE", n=4)
    assert dict(b.expected_alphas)[Criterion.MMS] == 4
    assert dict(b.expected_alphas)[Criterion.PMMS] == 2

    b = make_family("SUB_PMMS_MMS_TIGHT", n=4, alpha=Fraction(3, 2))
    assert dict(b.expected_alphas)[Criterion.MMS] == 3


_HUGE = dict(n=10**10, m=10**10, p=10**20, alpha=Fraction(5, 4), epsilon=Fraction(1, 10**30))


@pytest.mark.parametrize("family_id", [f for f in FAMILY_IDS if "n" in family_params(f)])
def test_family_sizes_are_guarded_before_any_list_is_built(family_id):
    names = family_params(family_id)
    with pytest.raises(SizeGuardError, match=f"exceeds the guard {MAX_CHORES}"):
        make_family(family_id, **{name: _HUGE[name] for name in names})
    if {"m", "p"} & set(names):
        params = {name: _HUGE[name] for name in names} | {"n": 4}
        if family_id == "EF1_NOT_EFX":  # p is a cost value here, not a size
            assert make_family(family_id, **params).instance.m == 8
        else:
            with pytest.raises(SizeGuardError):
                make_family(family_id, **params)


def test_make_family_derives_n_and_m_from_the_reference_bundles(monkeypatch):
    import chorefair.families as families

    def build_as(costs, bundles):
        family = families._Family(lambda: dict(costs=costs, bundles=bundles), (), "additive", "connection")
        monkeypatch.setitem(families._FAMILIES, "THROWAWAY", family)
        return make_family("THROWAWAY")

    three = Additive((Fraction(1),) * 3)
    bundle = build_as([three, three], [frozenset({0}), frozenset({1, 2})])
    assert (bundle.instance.n, bundle.instance.m) == (2, 3)
    # Bundles that leave out chore 2 make m = 2, which the costs do not cover.
    with pytest.raises(ValidationError, match="covers 3 chores, instance has 2"):
        build_as([three, three], [frozenset({0}), frozenset({1})])
    with pytest.raises(ValidationError, match="expected 2 cost functions, got 3"):
        build_as([three] * 3, [frozenset({0}), frozenset({1, 2})])
    # A cost with no ground size of its own: the partition check finds the gap.
    fn = CappedCardinality(cap=1)
    with pytest.raises(ValidationError, match=r"unknown chores \[2\]"):
        build_as([fn, fn], [frozenset({0}), frozenset({2})])

"""Walkthrough: extremal instance families and the guarantee table.

For each pair of fairness criteria the library knows the exact factor an
alpha-fair allocation guarantees for the other criterion, together with a
parametric instance family showing the factor cannot be improved. This demo
re-measures a few families and compares them to the table.
"""

from fractions import Fraction

from chorefair import Criterion, implied_guarantee, make_family, min_alpha
from chorefair.errors import NotInTableError

SHOWCASE = [
    ("EF_MMS_TIGHT", dict(n=3, alpha=Fraction(3, 2))),
    ("EF1_MMS_TIGHT", dict(n=3, alpha=Fraction(2))),
    ("EFX_PMMS_TIGHT", dict(n=4, alpha=Fraction(5, 4))),
    ("PMMS_MMS_N3_TIGHT", dict()),
    ("SUB_EF_COVERAGE", dict(n=4)),
    ("SUB_PMMS_MMS_TIGHT", dict(n=4, alpha=Fraction(3, 2))),
]

for family_id, params in SHOWCASE:
    bundle = make_family(family_id, **params)
    src_crit, src_alpha = bundle.source
    n = bundle.instance.n
    shown = ", ".join(f"{k}={v}" for k, v in params.items())
    print(f"{family_id}({shown})  [{bundle.setting}, n={n}, m={bundle.instance.m}]")
    for crit, expected in bundle.expected_alphas:
        measured = min_alpha(bundle.instance, bundle.reference_allocation, crit)
        line = f"  measured alpha for {crit.value}: {measured} (expected {expected})"
        if crit is not src_crit:
            try:
                guarantee = implied_guarantee(src_crit, src_alpha, crit, n, bundle.setting)
            except NotInTableError:
                guarantee = None
            if guarantee is not None and guarantee.value is not None:
                line += f"; table bound {guarantee.value} [{guarantee.kind}]"
        print(line)
    print()

print("Guarantee lookups without instances:")
print("  EF1 at alpha=1 guarantees MMS within", implied_guarantee(Criterion.EF1, 1, Criterion.MMS, 4).value)
print("  EFX at alpha=1 guarantees PMMS within", implied_guarantee(Criterion.EFX, 1, Criterion.PMMS, 4).value)
print("  exact PMMS guarantees EFX within", implied_guarantee(Criterion.PMMS, 1, Criterion.EFX, 4).value)
print(
    "  3/2-PMMS guarantees MMS within",
    implied_guarantee(Criterion.PMMS, Fraction(3, 2), Criterion.MMS, 5, "submodular").value,
    "(submodular, n=5)",
)
print("  exact MMS guarantees EF1 within:", implied_guarantee(Criterion.MMS, 1, Criterion.EF1, 4).kind)

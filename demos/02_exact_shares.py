"""Walkthrough: exact maximin shares under additive and submodular oracles.

The maximin share of an agent over k bundles is the best worst-bundle cost
they can guarantee by partitioning the chores themselves. We compute it by
exhaustive partition enumeration, by branch-and-bound over subset sums, and
through the variant-specific reductions, and show they agree.
"""

from fractions import Fraction

from chorefair import (
    Additive,
    CappedCardinality,
    Instance,
    RowCoverage,
    mms_share,
    mms_value,
    pairwise_mms,
)

instance = Instance(
    n=3,
    m=7,
    costs=(
        Additive((2, 3, 3, 0, 4, 2, 1)),
        Additive((3, 1, 3, 2, 5, 0, 5)),
        Additive((1, 5, 10, 2, 3, 1, 3)),
    ),
)

print("Maximin shares over 3 bundles, per agent:")
for agent in range(3):
    slow = mms_share(instance, agent, 3)
    fast = mms_value(instance, agent, 3)
    assert slow.value == fast.value
    blocks = [sorted(b) for b in slow.witness]
    print(f"  agent {agent}: share {slow.value}, witness partition {blocks}")

print("\nPairwise share of agent 0 over chores {0,4,6} and {2}:")
result = pairwise_mms(instance, 0, {0, 4, 6}, {2})
print(f"  value {result.value}, split {[sorted(b) for b in result.witness]}")

print("\nA coverage cost oracle: 4 groups of 4 chores, one unit of cost per group hit.")
rows = tuple(tuple(range(4 * i, 4 * i + 4)) for i in range(4))
coverage = RowCoverage(rows, (Fraction(1),) * 4)
cover_inst = Instance(n=1, m=16, costs=(coverage,))
share = mms_value(cover_inst, 0, 4)
print(f"  share over 4 bundles: {share.value} (one group per bundle is optimal)")
print(f"  witness: {[sorted(b) for b in share.witness]}")

print("\nA capped-cardinality oracle: cost min(|S|, 2) over three chores.")
capped = Instance(n=1, m=3, costs=(CappedCardinality(2),))
print(f"  share over 2 bundles: {mms_value(capped, 0, 2).value} (any split leaves a 2-chore side)")

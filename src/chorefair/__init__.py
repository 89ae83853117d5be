"""Exact-arithmetic fairness analysis for allocating indivisible chores.

Computes minimal approximation factors for envy-based and share-based
fairness criteria (EF, EF1, EFX, MMS, PMMS) under additive and submodular
cost oracles, runs the constructive two-agent allocation procedures, and
reproduces extremal instance families and prices of fairness by an exact
search over all allocations that prunes subtrees unable to beat the best
allocation found so far. All arithmetic is exact.
"""

from .allocate import (
    AllocatorOutcome,
    alg1_two_agent_ef1,
    best_round_robin_order,
    optimal_allocation,
    pmms32_two_agent,
    round_robin,
    social_cost,
)
from .criteria import (
    Criterion,
    FairnessReport,
    Guarantee,
    fairness_report,
    implied_guarantee,
    min_alpha,
    satisfies,
)
from .errors import ChoreFairError
from .families import FAMILY_IDS, FamilyBundle, make_family
from .mms import MmsResult, mms_share, mms_value, pairwise_mms
from .model import (
    INFINITY,
    Additive,
    Allocation,
    CappedAdditive,
    CappedCardinality,
    CostFunction,
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
from .search import (
    PropositionReport,
    SearchReport,
    best_fair_allocation,
    enumerate_allocations,
    price_of_fairness,
    random_instance,
    verify_connections,
    verify_lemmas,
    verify_prices,
)

__version__ = "0.1.0"

__all__ = [
    "Additive",
    "Allocation",
    "AllocatorOutcome",
    "CappedAdditive",
    "CappedCardinality",
    "ChoreFairError",
    "CostFunction",
    "Criterion",
    "FAMILY_IDS",
    "FairnessReport",
    "FamilyBundle",
    "Guarantee",
    "INFINITY",
    "Instance",
    "MmsResult",
    "PropositionReport",
    "RowCoverage",
    "SearchReport",
    "TableCost",
    "alg1_two_agent_ef1",
    "allocation_from_json",
    "allocation_to_json",
    "best_fair_allocation",
    "best_round_robin_order",
    "check_monotone",
    "check_partition",
    "check_submodular",
    "cost",
    "enumerate_allocations",
    "fairness_report",
    "implied_guarantee",
    "instance_from_json",
    "instance_to_json",
    "make_family",
    "min_alpha",
    "mms_share",
    "mms_value",
    "normalize",
    "optimal_allocation",
    "pairwise_mms",
    "parse_rational",
    "pmms32_two_agent",
    "price_of_fairness",
    "random_instance",
    "rational_str",
    "round_robin",
    "satisfies",
    "social_cost",
    "verify_connections",
    "verify_lemmas",
    "verify_prices",
]

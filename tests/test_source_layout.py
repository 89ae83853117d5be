"""Layout rules for the package source."""

from __future__ import annotations

import ast
from pathlib import Path

from chorefair import model

SRC = Path(__file__).resolve().parent.parent / "src"
MAX_COLUMNS = 120
COST_VARIANTS = {
    name
    for name, obj in vars(model).items()
    if isinstance(obj, type) and issubclass(obj, model.CostFunction) and obj is not model.CostFunction
}
# The size guards and work budgets of ``mms.py``: the query check and each route read their own.
MMS_LIMITS = {
    "ENUM_MAX_CHORES",
    "PAIRWISE_MAX_CHORES",
    "MMS_NODE_BUDGET",
    "MMS_LOAD_BUDGET",
    "TWO_WAY_REACH_BITS",
    "MAX_BLOCKS",
}


def test_every_source_line_fits_in_120_columns():
    paths = sorted(SRC.rglob("*.py"))
    assert paths
    too_long = [
        f"{path.relative_to(SRC)}:{number} has {len(line)} columns"
        for path in paths
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
        if len(line) > MAX_COLUMNS
    ]
    assert too_long == []


def _parse(name: str) -> ast.Module:
    return ast.parse((SRC / "chorefair" / name).read_text(encoding="utf-8"))


def _from_model(name: str) -> set[str]:
    """The names a package module imports from ``.model``; it may not import the module itself."""
    imports = [node for node in ast.walk(_parse(name)) if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert not any(alias.name == "model" for node in imports if node.module is None for alias in node.names)
    return {alias.name for node in imports if node.module == "model" for alias in node.names}


def test_mms_names_no_cost_variant():
    # Every grouped share has one refusal rule, the search's budgets, so the
    # MMS module reads a cost only through ``CostFunction``'s methods.
    assert _from_model("mms.py") == {"CostFunction", "Instance"}


def test_criteria_names_no_cost_variant():
    # A context reads each agent's single-chore row through ``int_singles``.
    assert _from_model("criteria.py").isdisjoint(COST_VARIANTS)


def test_only_the_model_tests_a_cost_variant_with_isinstance():
    # A reader asks a cost's methods (``int_singles``, ``sum_groups``) what
    # it is, so a new variant needs no edit outside ``model.py``.
    found = []
    for path in sorted((SRC / "chorefair").glob("*.py")):
        if path.name == "model.py":
            continue
        for node in ast.walk(_parse(path.name)):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance":
                classes = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
                named = {getattr(c, "id", None) or getattr(c, "attr", None) for c in classes}
                found += [f"{path.name}:{node.lineno} tests {name}" for name in sorted(named & COST_VARIANTS)]
    assert found == []


def test_mms_solve_picks_a_route_and_leaves_every_refusal_to_it():
    # ``_solve`` reads the cost's form and k alone; each route owns its guards and budgets.
    (solve,) = [node for node in _parse("mms.py").body if isinstance(node, ast.FunctionDef) and node.name == "_solve"]
    named = {getattr(node, "id", None) or getattr(node, "attr", None) for node in ast.walk(solve)}
    assert named & MMS_LIMITS == set()

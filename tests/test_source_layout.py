"""Layout rules for the package source."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
MAX_COLUMNS = 120


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


def test_mms_names_no_cost_variant():
    # Every grouped share has one refusal rule, the search's budgets, so the
    # MMS module reads a cost only through ``CostFunction``'s methods.
    tree = ast.parse((SRC / "chorefair" / "mms.py").read_text(encoding="utf-8"))
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level == 1]
    from_model = {alias.name for node in imports if node.module == "model" for alias in node.names}
    assert from_model == {"CostFunction", "Instance"}
    assert not any(alias.name == "model" for node in imports if node.module is None for alias in node.names)

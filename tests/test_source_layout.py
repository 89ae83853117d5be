"""Layout rules for the package source."""

from __future__ import annotations

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

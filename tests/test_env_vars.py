"""Doc-sync gate: the environment variables the package reads are exactly
the rows of the "Environment variables" table in ``docs/ARCHITECTURE.md``."""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_NAME = re.compile(r"REPRO_[A-Z_]+")


def _names_in_source() -> set:
    names = set()
    for path in (ROOT / "src").rglob("*.py"):
        names.update(_NAME.findall(path.read_text(encoding="utf-8")))
    # a trailing underscore is a wildcard in prose (``REPRO_TASK_*``)
    return {name for name in names if not name.endswith("_")}


def _documented_names() -> set:
    text = (ROOT / "docs" / "ARCHITECTURE.md").read_text(encoding="utf-8")
    section = text.split("## Environment variables", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"^\| `(REPRO_[A-Z_]+)` \|", section, re.MULTILINE))


def test_every_variable_read_is_documented_and_every_row_is_read():
    assert _names_in_source() == _documented_names()

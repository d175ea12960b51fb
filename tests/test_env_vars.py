"""The environment variables the package reads: one table, one reader.

The rows of ``repro.util.config.SETTINGS`` are exactly the rows of the
"Environment variables" table in ``docs/ARCHITECTURE.md``; nothing else in
``src/repro`` reads the environment; and a malformed numeric value warns and
means the default.
"""

from __future__ import annotations

import ast
import re
import warnings
from pathlib import Path

import pytest

from repro.util.config import SETTINGS, setting

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"

#: The settings whose parse is numeric (the other four are strings or a flag).
NUMERIC = (
    "REPRO_PLAN_CACHE_BYTES",
    "REPRO_WORKERS",
    "REPRO_TASK_TIMEOUT",
    "REPRO_TASK_RETRIES",
    "REPRO_QUARANTINE_TTL",
    "REPRO_IDLE_TIMEOUT",
    "REPRO_FAULTS_SEED",
)


def _documented_names() -> set:
    text = (ROOT / "docs" / "ARCHITECTURE.md").read_text(encoding="utf-8")
    section = text.split("## Environment variables", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"^\| `(REPRO_[A-Z_]+)` \|", section, re.MULTILINE))


def test_every_variable_read_is_documented_and_every_row_is_read():
    assert set(SETTINGS) == _documented_names()


def _is_environ(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "environ"
        and isinstance(node.value, ast.Name)
        and node.value.id == "os"
    )


def _environment_reads(tree: ast.AST):
    """Line numbers of ``os.environ.get``, ``os.getenv`` and ``os.environ[…]`` loads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            owner = node.func.value
            if node.func.attr == "get" and _is_environ(owner):
                yield node.lineno
            if node.func.attr == "getenv" and isinstance(owner, ast.Name) and owner.id == "os":
                yield node.lineno
        if isinstance(node, ast.Subscript) and _is_environ(node.value):
            if isinstance(node.ctx, ast.Load):
                yield node.lineno


def test_only_the_config_module_reads_the_environment():
    reads = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        reads += [f"{path.relative_to(PACKAGE)}:{line}" for line in _environment_reads(tree)]
    assert reads and all(read.startswith("util/config.py:") for read in reads), reads


@pytest.mark.parametrize("name", NUMERIC)
def test_a_malformed_numeric_value_warns_and_means_the_default(name, monkeypatch):
    default = SETTINGS[name][1]
    monkeypatch.setenv(name, "nonsense")
    with pytest.warns(RuntimeWarning, match=f"{name}='nonsense'") as record:
        assert setting(name) == default
    assert len(record) == 1
    # whitespace-only counts as unset: the default, and no warning
    monkeypatch.setenv(name, "  ")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert setting(name) == default

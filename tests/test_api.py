"""The public surface: every exported name exists, and the package
re-exports only names its modules list in ``__all__``."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import tailrisk

MODULES = [
    importlib.import_module(f"tailrisk.{info.name}")
    for info in pkgutil.iter_modules(tailrisk.__path__)
]


@pytest.mark.parametrize("module", [m for m in MODULES if hasattr(m, "__all__")], ids=str)
def test_every_listed_name_exists(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def test_package_imports_only_listed_names():
    tree = ast.parse(Path(tailrisk.__file__).read_text())
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"tailrisk.{node.module}")
            unlisted = [a.name for a in node.names if a.name not in module.__all__]
            assert unlisted == [], f"tailrisk.{node.module}"

"""The public surface: every exported name exists, and the package
re-exports only names its modules list in ``__all__``."""

import ast
import importlib
import pkgutil
import re
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


def _references(path):
    """Names a file uses: identifiers, attributes and the words of its string
    literals (``perfbench`` names its hooks in strings), but not docstrings,
    ``__all__`` lists or the names that ``def`` and ``class`` statements bind."""
    tree = ast.parse(path.read_text())
    skipped = set()
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if (isinstance(body, list) and body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)):
            skipped.add(id(body[0].value))  # a docstring
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            skipped.update(id(n) for n in ast.walk(node.value))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and id(node) not in skipped):
            names.update(re.findall(r"\w+", node.value))
    return names


def test_every_public_name_has_a_caller():
    # Public API that no pipeline path uses is deleted, not kept up: each
    # listed name must be used by the package, the benchmark or the
    # acceptance suite.
    root = Path(tailrisk.__file__).parents[2]
    files = [p for p in Path(tailrisk.__file__).parent.glob("*.py") if p.name != "__init__.py"]
    files += [*(root / "perfbench").glob("*.py"), root / "tests" / "test_acceptance.py"]
    used = set().union(*(_references(p) for p in files))
    unused = [f"{m.__name__}.{name}" for m in MODULES for name in getattr(m, "__all__", ())
              if name not in used]
    assert unused == []

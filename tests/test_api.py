"""The public surface: every exported name exists, and the package
re-exports only names its modules list in ``__all__``."""

import ast
import importlib
import inspect
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


def _scanned_files():
    """The package (not ``__init__.py``), the benchmark and the acceptance suite."""
    root = Path(tailrisk.__file__).parents[2]
    files = [p for p in Path(tailrisk.__file__).parent.glob("*.py") if p.name != "__init__.py"]
    return files + [*(root / "perfbench").glob("*.py"), root / "tests" / "test_acceptance.py"]


def _references(path):
    """Names a file uses, one set per top-level statement: identifiers,
    attributes and the words of its string literals (``perfbench`` names its
    hooks in strings), but not docstrings, ``__all__`` lists or the names
    that ``def`` and ``class`` statements bind."""
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
    per_statement = []
    for statement in tree.body:
        names = set()
        for node in ast.walk(statement):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and id(node) not in skipped):
                names.update(re.findall(r"\w+", node.value))
        per_statement.append(names)
    return per_statement


def test_every_public_name_has_a_caller():
    # Public API that no pipeline path uses is deleted, not kept up: each
    # listed name must be used by the package, the benchmark or the
    # acceptance suite.
    used = set().union(*(names for p in _scanned_files() for names in _references(p)))
    unused = [f"{m.__name__}.{name}" for m in MODULES for name in getattr(m, "__all__", ())
              if name not in used]
    assert unused == []


def _calls_by_name():
    """``{name: [call]}`` of every ``ast.Call`` in the scanned files, by the
    called identifier or attribute."""
    calls = {}
    for path in _scanned_files():
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    return calls


# What a ``*args`` or ``**kwargs`` may pass.
_ANY = object()


def _argument(call, position, param, positional):
    """The node that ``call`` passes for a parameter, ``_ANY`` when a
    ``*args`` or ``**kwargs`` may pass it, or None when it is left out."""
    for keyword in call.keywords:
        if keyword.arg == param:
            return keyword.value
    if any(keyword.arg is None for keyword in call.keywords):
        return _ANY
    if positional:
        for i, arg in enumerate(call.args[:position + 1]):
            if isinstance(arg, ast.Starred):
                return _ANY
            if i == position:
                return arg
    return None


def _unset(label, name, params, calls):
    """``label(p=)`` for each defaulted parameter ``p`` that no call by
    ``name`` sets; ``params`` holds ``(name, default, positional)`` in the
    order a call passes them, with a true ``default`` for a defaulted one."""
    return [
        f"{label}({param}=)"
        for position, (param, default, positional) in enumerate(params)
        if default and not any(_argument(call, position, param, positional) is not None
                               for call in calls.get(name, ()))
    ]


def test_every_defaulted_parameter_is_set_by_a_caller():
    # A parameter that every caller leaves at its default is public API that
    # no pipeline path uses: the same files as above must set it, by
    # keyword or by position, in a call by the callable's name.
    calls = _calls_by_name()
    unset = []
    for module in MODULES:
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            try:
                params = list(inspect.signature(obj).parameters.values())
            except (TypeError, ValueError):  # not callable, or a builtin's signature
                continue
            params = [(p.name, p.default is not inspect.Parameter.empty,
                       p.kind is not inspect.Parameter.KEYWORD_ONLY) for p in params]
            unset += _unset(f"{module.__name__}.{name}", name, params, calls)
    assert unset == []


def _definitions(path):
    """``(label, called name, parameters)`` of every function and method in
    a file, nested ones included, with parameters as :func:`_unset` takes
    them and a default as its node.  A method's ``self`` or ``cls`` is
    dropped, and ``__init__`` is called by its class's name."""
    tree = ast.parse(path.read_text())
    owners = {id(item): node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
              for item in node.body}
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        args = node.args
        positional = [*args.posonlyargs, *args.args]
        defaults = [None] * (len(positional) - len(args.defaults)) + args.defaults
        params = [(a.arg, d, True) for a, d in zip(positional, defaults)]
        params += [(a.arg, d, False) for a, d in zip(args.kwonlyargs, args.kw_defaults)]
        owner = owners.get(id(node))
        if owner is None:
            yield f"{path.stem}.{node.name}", node.name, params
            continue
        static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
        called = owner.name if node.name == "__init__" else node.name
        yield f"{path.stem}.{owner.name}.{node.name}", called, params[0 if static else 1:]


def test_every_defaulted_parameter_of_any_function_is_set_by_a_caller():
    # The rule above, for every function and method of the package, private
    # and nested ones included: a default that no caller overrides belongs
    # in the body or in a module constant.
    calls = _calls_by_name()
    unset = [
        missing
        for path in sorted(Path(tailrisk.__file__).parent.glob("*.py"))
        for label, called, params in _definitions(path)
        for missing in _unset(label, called, params, calls)
    ]
    assert unset == []


def _literal(node):
    """The ``repr`` of a literal node's value, or ``_ANY`` for any other node."""
    try:
        return repr(ast.literal_eval(node))
    except (TypeError, ValueError):
        return _ANY


def test_no_defaulted_parameter_is_always_set_to_one_literal():
    # A parameter that every caller sets to the same literal, or leaves at a
    # default equal to it, takes one value: that belongs in the body too.
    # One that no caller sets is named by the rule above.
    calls = _calls_by_name()
    constant = []
    for path in sorted(Path(tailrisk.__file__).parent.glob("*.py")):
        for label, called, params in _definitions(path):
            for position, (param, default, positional) in enumerate(params):
                passed = [_argument(call, position, param, positional)
                          for call in calls.get(called, ())]
                if default is None or all(node is None for node in passed):
                    continue
                values = {_literal(default if node is None else node) for node in passed}
                if len(values) == 1 and _ANY not in values:
                    constant.append(f"{label}({param}={values.pop()})")
    assert constant == []


def _defined_names(statement):
    """The functions, classes and constants a top-level statement defines."""
    if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
        return [statement.name]
    if isinstance(statement, (ast.Assign, ast.AnnAssign)):
        targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def test_every_module_level_name_has_a_reader():
    # A module-level function, class or constant that nothing reads is an
    # orphan: the same files as above must read it outside its own
    # definition (a recursive call does not count).
    scanned = {path: _references(path) for path in _scanned_files()}
    unread = []
    for path in sorted(Path(tailrisk.__file__).parent.glob("*.py")):
        statements = ast.parse(path.read_text()).body
        for i, statement in enumerate(statements):
            for name in _defined_names(statement):
                if name.startswith("__") and name.endswith("__"):
                    continue
                if not any(name in names
                           for other, per_statement in scanned.items()
                           for j, names in enumerate(per_statement)
                           if other != path or j != i):
                    unread.append(f"{path.stem}.{name}")
    assert unread == []


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def _private_reads(path):
    """Another package module's underscore names that a file reads, as
    ``from .x import _y`` or as ``x._y`` on a module it imported."""
    tree = ast.parse(path.read_text())
    modules, reads = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "tailrisk"):
            for alias in node.names:
                if node.module in (None, "tailrisk"):  # the module itself
                    modules.add(alias.asname or alias.name)
                elif _private(alias.name):
                    reads.append(f"from {'.' * node.level}{node.module} import {alias.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _private(node.attr)):
            reads.append(f"{node.value.id}.{node.attr}")
    return reads


def test_no_module_reads_another_modules_private_name():
    # A name another module needs is public; a private module such as
    # ``_blas`` may still export public names.
    reads = {path.name: _private_reads(path)
             for path in sorted(Path(tailrisk.__file__).parent.glob("*.py"))}
    assert {name: found for name, found in reads.items() if found} == {}

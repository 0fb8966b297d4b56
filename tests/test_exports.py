"""Public surface: every exported name exists, the package imports only
names its modules export, only processes reads the path streams, only
core words the integer, finite-number and choice argument rules and the
key rule of JSON documents, no module imports a name it neither uses nor
exports, no file imports a module outside the standard library and numpy,
no private module-level name goes unused, no raise message is written at
two places, and every annotation resolves."""

import ast
import importlib
import inspect
import pkgutil
import sys
import typing
from pathlib import Path

import pytest

import rcuniv

MODULES = sorted(m.name for m in pkgutil.iter_modules(rcuniv.__path__))
FILES = sorted(path.name for path in Path(rcuniv.__file__).parent.glob("*.py"))


def _package_imports():
    """(module, name) for each `from .module import name` in rcuniv/__init__.py."""
    tree = ast.parse(Path(rcuniv.__file__).read_text())
    return [(node.module, alias.name)
            for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"rcuniv.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), f"duplicate names in rcuniv.{name}.__all__"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"rcuniv.{name}.__all__ names missing attributes: {missing}"
    namespace = {}
    exec(f"from rcuniv.{name} import *", namespace)


def test_package_imports_only_exported_names():
    imports = _package_imports()
    assert imports, "no relative imports found in rcuniv/__init__.py"
    unlisted = [f"{module}.{attr}" for module, attr in imports
                if attr not in importlib.import_module(f"rcuniv.{module}").__all__]
    assert not unlisted, f"imported by rcuniv but not in the module's __all__: {unlisted}"


def test_only_processes_names_path_rng():
    # every iid window comes from processes.sample_paths, so no other module
    # keys the per-path streams itself
    names = []
    for path in sorted(Path(rcuniv.__file__).parent.glob("*.py")):
        if path.stem == "processes":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            name = getattr(node, "id", None) or getattr(node, "attr", None) or (
                node.name if isinstance(node, ast.alias) else None)
            if name == "path_rng":
                names.append(f"{path.name}:{node.lineno}")
    assert not names, f"path_rng named outside processes: {names}"



def _worded_outside_core(*phrases):
    """file:line of each string constant outside core, docstrings aside, that holds a phrase.

    Every constant counts, not only the text of a raise, so a rule worded in a
    table of (check, wording) pairs is found too.
    """
    found = set()
    for path in sorted(Path(rcuniv.__file__).parent.glob("*.py")):
        if path.stem == "core":
            continue
        tree = ast.parse(path.read_text())
        docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                      if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
                      and node.body and isinstance(node.body[0], ast.Expr)}
        found.update(f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                     if isinstance(node, ast.Constant) and isinstance(node.value, str)
                     and id(node) not in docstrings
                     and any(phrase in node.value for phrase in phrases))
    return sorted(found)


def test_only_core_words_the_argument_rules():
    # integer, finite-number and choice arguments are refused by core's raisers,
    # so every module names a bad argument in one wording
    found = _worded_outside_core("must be an integer", "must be a finite", "an integer >=",
                                 "a finite number", "choices")
    assert not found, f"argument rules worded outside core: {found}"


def test_only_core_words_the_key_rule():
    # every JSON document checks its keys with core._require_keys
    found = _worded_outside_core("unknown keys", "missing keys")
    assert not found, f"key rule worded outside core: {found}"


def _template(node):
    """The text of a string or f-string, each placeholder written as {}; None otherwise."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(part.value if isinstance(part, ast.Constant) else "{}"
                       for part in node.values)
    return None


def _raise_templates():
    """message template -> file:line of each raise in rcuniv whose exception is built from it."""
    places = {}
    for path in sorted(Path(rcuniv.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and node.exc.args:
                template = _template(node.exc.args[0])
                if template is not None:
                    places.setdefault(template, []).append(f"{path.name}:{node.lineno}")
    return places


def test_no_message_is_raised_from_two_places():
    # a rule checked twice drifts; each message has one raise, called from every user
    twice = {t: where for t, where in _raise_templates().items() if len(where) > 1}
    assert not twice, f"message templates raised from more than one place: {twice}"


def _foreign_imports(path):
    """Top-level modules path imports (module level or inside functions) that are
    neither in the standard library nor numpy or rcuniv."""
    allowed = set(sys.stdlib_module_names) | {"numpy", "rcuniv"}
    foreign = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue  # relative imports stay inside rcuniv
        foreign += [f"{path.name}:{node.lineno} {name}" for name in names
                    if name.split(".")[0] not in allowed]
    return foreign


@pytest.mark.parametrize("name", FILES)
def test_imports_only_the_standard_library_and_numpy(name):
    # pyproject.toml declares numpy as the one dependency; tests may bring in more
    foreign = _foreign_imports(Path(rcuniv.__file__).parent / name)
    assert not foreign, f"imports outside the standard library and numpy: {foreign}"


# metrics re-exports core._worker_count for the benchmark's manifest, which reads it by name
_IMPORTED_FOR_READERS = {("metrics", "_worker_count")}


def _unused_imports(path):
    """Names path imports (module level or inside functions) that it neither uses nor exports."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    return [f"{path.name}:{line} {name}" for name, line in imported.items()
            if name not in used | exported and (path.stem, name) not in _IMPORTED_FOR_READERS]


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_imports(name):
    path = Path(rcuniv.__file__).parent / f"{name}.py"
    unused = _unused_imports(path)
    assert not unused, f"imported but never used or exported: {unused}"


def _private_definitions(tree):
    """(name, line) of each private module-level def, class or assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node.lineno


def _named(tree):
    """Names a module reads: loaded names, attributes and imported names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_no_unused_private_definitions():
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(Path(rcuniv.__file__).parent.glob("*.py"))}
    named = {name for tree in trees.values() for name in _named(tree)}
    unused = [f"{file}:{line} {name}" for file, tree in trees.items()
              for name, line in _private_definitions(tree)
              if name.startswith("_") and not name.startswith("__") and name not in named]
    assert not unused, f"private definitions named nowhere else in rcuniv: {unused}"


def _annotated_objects(module):
    """(qualified name, object) of each function, class and method module defines."""
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            yield name, obj
            for attr, member in vars(obj).items():
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                elif isinstance(member, property):
                    member = member.fget
                if inspect.isfunction(member):
                    yield f"{name}.{attr}", member


def test_every_annotation_resolves():
    # with `from __future__ import annotations` a stale annotation, such as a
    # deleted type, is a string nothing evaluates; get_type_hints evaluates it
    checked, broken = 0, []
    for name in MODULES:
        module = importlib.import_module(f"rcuniv.{name}")
        for qualname, obj in _annotated_objects(module):
            checked += 1
            try:
                typing.get_type_hints(obj)
            except Exception as exc:  # report every failure at once
                broken.append(f"rcuniv.{name}.{qualname}: {type(exc).__name__}: {exc}")
    assert checked > 100
    assert not broken, f"annotations that do not resolve: {broken}"

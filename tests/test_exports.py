"""Public surface: every exported name exists, the package imports only
names its modules export, only processes reads the path streams, no
module imports a name it neither uses nor exports, and no private
module-level name goes unused."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import rcuniv

MODULES = sorted(m.name for m in pkgutil.iter_modules(rcuniv.__path__))


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

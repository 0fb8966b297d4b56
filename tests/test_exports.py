"""Public surface: every exported name exists, and the package imports only
names its modules export."""

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

"""Every exported name of the package resolves."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import garnier_lab

MODULES = sorted(m.name for m in pkgutil.iter_modules(garnier_lab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_a_module_all_resolves(name):
    # a name left in __all__ after its definition is deleted fails only at
    # `from module import *`; catch it here
    module = importlib.import_module(f"garnier_lab.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_every_name_the_package_reexports_resolves():
    tree = ast.parse(Path(garnier_lab.__file__).read_text())
    imported = [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert imported
    for module, name in imported:
        assert getattr(garnier_lab, name) is getattr(importlib.import_module(f"garnier_lab.{module}"), name)

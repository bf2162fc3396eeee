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


SOURCES = {path.stem: path for path in sorted(Path(garnier_lab.__file__).parent.glob("*.py"))}


def _called_name(call: ast.Call) -> str | None:
    func = call.func
    return func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None


def test_dormand_prince_steps_run_only_in_the_reference_integrator():
    # every move in src/ takes Taylor steps; DP5 is left only in
    # numerics.ode_integrate, the tests' reference, which nothing in src/ calls
    dp_callers, ode_callers = set(), set()
    for stem, path in SOURCES.items():
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and _called_name(node) == "_dp_step":
                    dp_callers.add(f"{stem}.{getattr(top, 'name', '<module>')}")
                if isinstance(node, ast.Call) and _called_name(node) == "ode_integrate":
                    ode_callers.add(f"{stem}.{getattr(top, 'name', '<module>')}")
    assert dp_callers == {"numerics.ode_integrate"}
    assert ode_callers == set()


def test_only_the_grid_assembly_moves_stencil_nodes():
    # one stencil path: the residual engines take their values from
    # quantization._stencil_values, which makes the one phi_nodes call of a
    # grid and its one shift_t call per time direction; acceptance._moved
    # moves bare B-states for C3 and C11
    callers = {"phi_nodes": set(), "shift_t": set()}
    for stem, path in SOURCES.items():
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and _called_name(node) in callers:
                    callers[_called_name(node)].add(f"{stem}.{getattr(top, 'name', '<module>')}")
    assert callers == {
        "phi_nodes": {"quantization._stencil_values"},
        "shift_t": {"quantization._stencil_values", "acceptance._moved"},
    }


def test_the_bridge_is_the_only_inverse_of_the_chart():
    # quantization.zeta_eta_inverse takes its root pair from
    # poly_garnier.bridge_lambda_from_q; a second transcription of that
    # inverse would need a quadratic solve of its own
    callers = {"quad_roots": set(), "bridge_lambda_from_q": set()}
    for stem, path in SOURCES.items():
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and _called_name(node) in callers:
                    callers[_called_name(node)].add(f"{stem}.{getattr(top, 'name', '<module>')}")
    assert callers["quad_roots"] == {
        "garnier_okamoto.extract_lambda",
        "poly_garnier.bridge_lambda_from_q",
        "quantization.solve_alpha_beta",
    }
    assert "quantization.zeta_eta_inverse" in callers["bridge_lambda_from_q"]


@pytest.mark.parametrize("name", sorted(set(SOURCES) - {"__init__"}))  # the package's imports are its exports
def test_every_module_level_import_is_used(name):
    # no linter runs here; a name a module imports and never reads is flagged
    # unless its line says why (`# noqa: F401`), and a name in __all__ is read
    source = SOURCES[name].read_text()
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    unused = [
        (node.lineno, alias.asname or alias.name.split(".")[0])
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
        if (alias.asname or alias.name.split(".")[0]) not in read
        and "# noqa: F401" not in "".join(lines[node.lineno - 1 : node.end_lineno])
    ]
    assert unused == []

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


def _users(*names: str) -> dict[str, set[str]]:
    """Every function of src/ (a method as Class.method) that names each of ``names``, as module.function.

    A call, an attribute or a bare reference (say, inside functools.partial) all count.
    """
    users = {name: set() for name in names}
    for stem, path in SOURCES.items():
        for top in ast.parse(path.read_text()).body:
            members = top.body if isinstance(top, ast.ClassDef) else []
            units = [(f"{top.name}.{getattr(m, 'name', '<body>')}", m) for m in members]
            for qualname, unit in units or [(getattr(top, "name", "<module>"), top)]:
                for node in ast.walk(unit):
                    name = getattr(node, "id", None) if isinstance(node, ast.Name) else getattr(node, "attr", None)
                    if name in users:
                        users[name].add(f"{stem}.{qualname}")
    return users


def test_one_tracer_type_records_every_flow_body():
    # poly_garnier and garnier_okamoto both trace their fields on
    # numerics._Tape: the only class of src/ that overloads * or / is its
    # node type, and the old polynomial tracer of the PG flows is gone
    classes = [(stem, node) for stem, path in SOURCES.items() for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.ClassDef)]
    tracers = {f"{stem}.{node.name}" for stem, node in classes
               if {"__mul__", "__truediv__"} & {m.name for m in node.body if isinstance(m, ast.FunctionDef)}}
    assert tracers == {"numerics._Node"}
    assert [node.name for _stem, node in classes if node.name == "_Poly"] == []
    assert _users("_Poly") == {"_Poly": set()}


def test_dormand_prince_steps_run_only_in_the_reference_integrator():
    # every move in src/ takes Taylor steps; DP5 is left only in
    # numerics.ode_integrate, the tests' reference, which nothing in src/ calls
    assert _users("_dp_step", "ode_integrate") == {"_dp_step": {"numerics.ode_integrate"}, "ode_integrate": set()}


def test_only_the_grid_assembly_moves_stencil_nodes():
    # one stencil path: the residual engines take their values from
    # quantization._stencil_values, which makes the two phi_nodes calls of a
    # grid (its base nodes, then its hops) and its one shift_t call per time
    # direction; Frame.phi_node is the one-hop phi_nodes; acceptance._moved
    # moves bare B-states for C3 and C11
    assert _users("phi_nodes", "shift_t") == {
        "phi_nodes": {"quantization._stencil_values", "quantization.Frame.phi_node"},
        "shift_t": {"quantization._stencil_values", "acceptance._moved"},
    }


def test_phi_moves_in_x_through_one_walk():
    # one spatial path: only Frame.phi_nodes forms x-series (on
    # numerics.taylor_walk), the only walk of quantization on
    # taylor_integrate is the bundle's long time move, and no residual
    # engine moves a node through the one-hop Frame.phi_node
    users = _users("_x_series", "taylor_integrate", "phi_node")
    assert users["_x_series"] == {"quantization.Frame.phi_nodes"}
    assert {u for u in users["taylor_integrate"] if u.startswith("quantization.")} == {
        "quantization.Frame.shift_t_adaptive"
    }
    assert users["phi_node"] == {"quantization.phi_via", "quantization.zero_curvature_loop"}


def _units(stem: str, *qualnames: str) -> dict:
    """The function nodes of module ``stem`` by qualname (a method as Class.method)."""
    found = {}
    for top in ast.parse(SOURCES[stem].read_text()).body:
        members = top.body if isinstance(top, ast.ClassDef) else []
        for unit in [top] + [m for m in members if isinstance(m, ast.FunctionDef)]:
            name = f"{top.name}.{unit.name}" if unit is not top else getattr(top, "name", None)
            if name in qualnames:
                found[name] = unit
    assert set(found) == set(qualnames)
    return found


def _assert_no_blas(units: dict) -> None:
    """No @, matmul, dot or linalg in any of ``units``: a BLAS call stalls when its thread pool is not pinned to one thread."""
    for name, unit in units.items():
        for node in ast.walk(unit):
            assert not (isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)), name
            assert getattr(node, "attr", getattr(node, "id", None)) not in {"matmul", "dot", "linalg"}, name


def test_the_x_series_and_the_stencil_values_never_call_blas():
    # the 2x2 products of the x-series, the grid pass and its value functions are explicit formulas or einsum
    _assert_no_blas(_units(
        "quantization", "_x_series", "Frame.phi_nodes", "_stencil_values", "Frame._transfer", "Frame.M_of",
        "Frame.Y_of", "Frame.V_of", "Frame.wave_values", "garx_residual",
    ))


@pytest.mark.parametrize(
    "stem, names",
    [("schlesinger", ("_flow_taylor",)), ("poly_garnier", ("_pg_taylor",)),
     ("garnier_okamoto", ("_go_taylor", "_go_program"))],
)
def test_the_flow_taylor_kernels_never_call_blas(stem, names):
    # perfbench pins the BLAS pool to one thread, but the CLI and the tests do not, so a dense matvec
    # in a Taylor kernel would stall only outside the benchmark; the kernels gather and einsum
    _assert_no_blas(_units(stem, *names))


def test_the_bridge_is_the_only_inverse_of_the_chart():
    # quantization.zeta_eta_inverse takes its root pair from
    # poly_garnier.bridge_lambda_from_q; a second transcription of that
    # inverse would need a quadratic solve of its own
    users = _users("quad_roots", "bridge_lambda_from_q")
    assert users["quad_roots"] == {
        "garnier_okamoto.extract_lambda",
        "poly_garnier.bridge_lambda_from_q",
        "quantization.solve_alpha_beta",
    }
    assert "quantization.zeta_eta_inverse" in users["bridge_lambda_from_q"]


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

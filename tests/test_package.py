import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import triwave

_PACKAGE_DIR = Path(triwave.__file__).parent
_MODULES = sorted(m.name for m in pkgutil.iter_modules([str(_PACKAGE_DIR)])
                  if not m.name.startswith("_"))


# cli is the command-line entry point and exports no names
@pytest.mark.parametrize("name", [m for m in _MODULES if m != "cli"])
def test_every_public_name_exists(name):
    module = importlib.import_module("triwave." + name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing


def test_package_imports_only_public_names():
    tree = ast.parse((_PACKAGE_DIR / "__init__.py").read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        assert node.level == 1 and node.module in _MODULES
        public = importlib.import_module("triwave." + node.module).__all__
        assert [a.name for a in node.names if a.name not in public] == []


def _tree(name):
    return ast.parse((_PACKAGE_DIR / (name + ".py")).read_text())


@pytest.mark.parametrize("name", ["oracle", "operators"])
def test_lower_layers_never_import_models(name):
    # the oracle and the operators take potentials and coefficients from the
    # caller, so models can import them and never the other way round
    for node in ast.walk(_tree(name)):
        if isinstance(node, ast.ImportFrom):
            assert node.module != "models" and "models" not in (node.module or "").split(".")
            assert "models" not in [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            assert not any("models" in a.name.split(".") for a in node.names)


def test_no_module_tests_model_types():
    # each model class states its own rules: no module asks which model it
    # was given, not even models itself
    classes = {"HarmonicOscillator", "OscillatorInverseSquare", "SupercriticalInverseSquare",
               "GeneralizedMorse", "RosenMorse"}
    for path in sorted(_PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance"):
                named = {n.id if isinstance(n, ast.Name) else n.attr
                         for n in ast.walk(node.args[1])
                         if isinstance(n, (ast.Name, ast.Attribute))}
                assert not named & classes, (path.name, node.lineno)


def _called(tree):
    """The names that the calls in tree call, as functions or attributes."""
    return {node.func.attr if isinstance(node.func, ast.Attribute) else node.func.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Attribute, ast.Name))}


def test_cli_solves_no_grid_of_its_own():
    # spectrum verification is models.check_spectrum's record; cli only
    # formats it and gates on its worst deviation
    called = _called(_tree("cli"))
    assert "check_spectrum" in called
    assert not called & {"grid_solve", "default_grid", "_grid_solve_cached"}



def test_oracle_grids_are_sized_from_the_levels_they_are_given():
    # a model's oracle_grid takes the top level's energy and asks for no
    # spectrum; the one path to it fits h, for default_grid (which asks for
    # the spectrum) and check_spectrum (which holds it already)
    functions = [fn for path in sorted(_PACKAGE_DIR.glob("*.py"))
                 for fn in ast.walk(ast.parse(path.read_text()))
                 if isinstance(fn, ast.FunctionDef)]
    named = {fn.name: fn for fn in functions}  # each name looked up below is defined once
    grids = [fn for fn in functions if fn.name == "oracle_grid"]
    assert len(grids) == 4
    for fn in grids:
        assert [a.arg for a in fn.args.args] == ["self", "eps_top"]
        assert "spectrum" not in _called(fn)
    assert [a.arg for a in named["default_grid"].args.args] == ["model", "n_levels"]
    assert named["default_grid"].args.defaults == []  # no hidden level count
    assert [fn.name for fn in functions if "oracle_grid" in _called(fn)] == ["_fitted_grid"]
    assert "spectrum" not in _called(named["_fitted_grid"])
    assert sorted(fn.name for fn in functions if "_fitted_grid" in _called(fn)) == [
        "check_spectrum", "default_grid"]


def test_recursions_read_only_the_model_and_epsilon():
    # each model's recursion(epsilon) takes its basis exponents from the
    # energy it is given, never from a spectrum scan
    functions = [fn for fn in ast.walk(_tree("models")) if isinstance(fn, ast.FunctionDef)]
    recursions = [fn for fn in functions if fn.name == "recursion"]
    assert len(recursions) == 4
    for fn in recursions:
        assert [a.arg for a in fn.args.args] == ["self", "epsilon"]
        assert "spectrum" not in _called(fn)
    (recursion_for,) = [fn for fn in functions if fn.name == "recursion_for"]
    assert "recursion" in _called(recursion_for)
    assert "spectrum" not in _called(recursion_for)

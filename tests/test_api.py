"""The public surface: what the package exports and what the CLI may use."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import mqwalk
from mqwalk import _linalg, cli, walk

MODULES = [
    "mqwalk",
    "mqwalk._linalg",
    "mqwalk.coin",
    "mqwalk.fock",
    "mqwalk.magnetic",
    "mqwalk.spectra",
    "mqwalk.walk",
]

REMOVED = [
    "approximate_spectrum",
    "approximation_residual",
    "null_potential_operator",
    "distribution_csv",
    "FockSpace",
]

# (module, function, parameter) for parameters that were removed: each one
# was ignored or had a single value in use
REMOVED_PARAMETERS = [
    ("mqwalk.coin", "validate_coin_system", "tol"),
    ("mqwalk.spectra", "verify_spectral_stability", "seed"),
    ("mqwalk.spectra", "verify_spectral_stability", "operator_difference_floor"),
]


# bench/spans.py gives a span to each function in a layer module's __all__
# that the module defines itself; a function re-exported from another
# module (such as the private eigensolver) would lose its span unseen
SPANNED_LAYERS = [
    "mqwalk.fock",
    "mqwalk.magnetic",
    "mqwalk.coin",
    "mqwalk.walk",
    "mqwalk.spectra",
]


# library numerics that the CLI reaches only through a check
NUMERICS_OUTSIDE_CLI = [
    "magnetic_shift",
    "magnetic_basis_change",
    "magnetic_basis_vector",
    "xi_hat_vacuum_columns",
]


# the mqwalk modules each module of the package may import: the solver,
# _eigen, is a leaf on _linalg, and no module imports one above it
LAYERS = {
    "_linalg": set(),
    "_eigen": {"_linalg"},
    "fock": {"_linalg"},
    "coin": {"_linalg", "fock"},
    "magnetic": {"_linalg", "fock"},
    "walk": {"_linalg", "coin", "fock", "magnetic"},
    "spectra": {"_eigen", "_linalg", "coin", "fock", "magnetic", "walk"},
    "cli": {"coin", "fock", "magnetic", "spectra", "walk"},
    "__init__": {"coin", "fock", "magnetic", "spectra", "walk"},
}


def package_imports(stem):
    """(module, names) of each import of an mqwalk module in ``stem``.py,
    the module named relative to the package."""
    path = Path(cli.__file__).parent / f"{stem}.py"
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found += [(alias.name.removeprefix("mqwalk."), []) for alias in node.names
                      if alias.name.startswith("mqwalk.")]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.split(".")[0] != "mqwalk":
                    continue
                module = module.removeprefix("mqwalk").removeprefix(".")
            names = [alias.name for alias in node.names]
            # "from . import walk" imports the module walk
            found += [(module, names)] if module else [(name, []) for name in names]
    return found


def test_every_module_has_its_layers():
    package = Path(cli.__file__).parent
    assert sorted(path.stem for path in package.glob("*.py")) == sorted(LAYERS)


@pytest.mark.parametrize("stem", sorted(LAYERS))
def test_module_imports_only_its_layers(stem):
    assert {module for module, _ in package_imports(stem)} <= LAYERS[stem]


def test_spectra_imports_nothing_private_from_the_solver():
    names = [name for module, names in package_imports("spectra") if module == "_eigen"
             for name in names]
    assert names and [name for name in names if name.startswith("_")] == []


def test_package_reexports_each_layer_name_once():
    layers = [importlib.import_module(name) for name in SPANNED_LAYERS]
    names = [name for layer in layers for name in layer.__all__]
    assert sorted(mqwalk.__all__) == sorted(names) and len(set(names)) == len(names)
    assert all(getattr(mqwalk, name) is getattr(layer, name)
               for layer in layers for name in layer.__all__)


def test_capacity_error_is_one_class():
    assert walk.CapacityError is _linalg.CapacityError is mqwalk.CapacityError


def test_cli_imports_nothing_private():
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    private = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "mqwalk":
            continue
        if any(part.startswith("_") for part in module.split(".")):
            private.append(module)
        private += [alias.name for alias in node.names if alias.name.startswith("_")]
    assert private == []


def test_cli_is_glue():
    # the shifts and their eigenbasis are checked by magnetic.eigenbasis_check
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported += [node.module or ""] + [alias.name for alias in node.names]
    assert [name for name in imported if name.split(".")[0] == "scipy"] == []
    assert [name for name in imported if name in NUMERICS_OUTSIDE_CLI] == []


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []


@pytest.mark.parametrize("attr", REMOVED)
def test_removed_names_are_gone(attr):
    for name in MODULES:
        assert not hasattr(importlib.import_module(name), attr), name


@pytest.mark.parametrize("module, func, param", REMOVED_PARAMETERS)
def test_removed_parameters_are_gone(module, func, param):
    signature = inspect.signature(getattr(importlib.import_module(module), func))
    assert param not in signature.parameters


@pytest.mark.parametrize("name", SPANNED_LAYERS)
def test_public_functions_are_defined_where_exported(name):
    module = importlib.import_module(name)
    functions = [getattr(module, attr) for attr in module.__all__]
    foreign = [f.__name__ for f in functions if inspect.isfunction(f) and f.__module__ != name]
    assert foreign == []


def test_private_functions_have_a_library_caller():
    # a module-level _name function that only the tests call is a code
    # path no CLI task or library entry point runs
    package = Path(cli.__file__).parent
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(package.glob("*.py"))]
    defined, used = set(), set()
    for tree in trees:
        defined |= {
            node.name for node in tree.body
            if isinstance(node, ast.FunctionDef)
            and node.name.startswith("_") and not node.name.startswith("__")
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert sorted(defined - used) == []

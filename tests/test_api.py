"""The public surface: what the package exports and what the CLI may use."""

import ast
import importlib
from pathlib import Path

import pytest

from mqwalk import cli

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
]


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


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []


@pytest.mark.parametrize("attr", REMOVED)
def test_removed_names_are_gone(attr):
    for name in MODULES:
        assert not hasattr(importlib.import_module(name), attr), name

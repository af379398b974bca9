"""Module boundaries of the package, and the one immutability rule of its value types."""

import ast
from pathlib import Path

import pytest

import bezsimplex
from bezsimplex.geometry import Frozen

PACKAGE = Path(bezsimplex.__file__).parent


def test_no_module_imports_a_private_name_of_a_sibling():
    # A leading underscore keeps a name, and the rule it states, inside its module; a sibling
    # that needs it takes a public name instead (lattice.chunk_rows, exponentials.vertex_dots).
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module == "bezsimplex"
                                                     or node.module.startswith("bezsimplex.")):
                found += [f"{path.name}: {alias.name} from {'.' * node.level}{node.module or ''}"
                          for alias in node.names if alias.name.startswith("_")]
    assert found == []


def test_only_experiments_and_csvio_handle_file_formats():
    # experiments reads JSON and csvio writes CSV; the modules of the operator do neither.
    found = []
    for name in ("geometry", "lattice", "bernstein", "exponentials"):
        path = PACKAGE / f"{name}.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):  # "from . import csvio" names it as an alias
                modules = [node.module or ""] + [alias.name for alias in node.names]
            else:
                continue
            found += [f"{name}: {module}" for module in modules
                      if {"json", "csv", "csvio"} & set(module.split("."))]
    assert found == []


def value_types():
    """One instance of each value type, keyed by its class name."""
    simplex = bezsimplex.standard_simplex(2)
    function = bezsimplex.make_function("runge", simplex)
    values = [simplex, bezsimplex.ExpPolynomial([(1.0, [1.0, 2.0])]),
              bezsimplex.sample_control_net(simplex, 2, function), function,
              bezsimplex.ExperimentConfig(simplex, function, [2], 4)]
    return {type(value).__name__: value for value in values}


@pytest.mark.parametrize("name", ["Simplex", "ExpPolynomial", "ControlNet", "TestFunction",
                                  "ExperimentConfig"])
def test_value_types_are_frozen_after_construction(name):
    value = value_types()[name]
    assert isinstance(value, Frozen)
    before = dict(vars(value))
    for attribute in [*before, "added"]:
        with pytest.raises(AttributeError, match=f"{name} is immutable: cannot set '{attribute}'"):
            setattr(value, attribute, None)
        with pytest.raises(AttributeError, match=f"{name} is immutable: cannot delete"):
            delattr(value, attribute)
    assert vars(value) == before

"""Module boundaries of the package."""

import ast
from pathlib import Path

import bezsimplex

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

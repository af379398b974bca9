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

"""Each module of the package imports only the layers below it."""

import ast
import sys
from pathlib import Path

import pytest

import isocycle

# module -> the package modules it imports.  The oracles check the cycle
# analysis and the extension engine, so they import neither; __init__ and
# cli sit on top of every layer and are left out.
PACKAGE_IMPORTS = {
    "errors": set(),
    "plane_graph": {"errors"},
    "oracles": {"errors"},
    "tunnels": {"errors"},
    "cycle_analysis": {"errors", "plane_graph", "tunnels"},
    "discharging": {"cycle_analysis", "errors", "tunnels"},
    "extension": {"cycle_analysis", "discharging", "errors", "oracles", "plane_graph"},
    "generators": {"errors", "plane_graph"},
}


def package_imports(module):
    """The package modules that ``module`` imports, read from its source."""
    path = Path(isocycle.__file__).with_name(f"{module}.py")
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                base = node.module
            elif node.module == "isocycle" or node.module.startswith("isocycle."):
                base = node.module.partition(".")[2]
            else:
                continue
            out.update([base] if base else (a.name for a in node.names))
        elif isinstance(node, ast.Import):
            out.update(
                a.name.partition(".")[2] for a in node.names if a.name.startswith("isocycle.")
            )
    return out


@pytest.mark.parametrize("module", sorted(PACKAGE_IMPORTS))
def test_package_imports(module):
    assert package_imports(module) == PACKAGE_IMPORTS[module]


def test_no_runtime_dependencies():
    # every import in the package is the package itself or the standard
    # library; networkx, hypothesis and pytest stay test-only
    outside = set()
    for path in Path(isocycle.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                if top != "isocycle" and top not in sys.stdlib_module_names:
                    outside.add((path.name, name))
    assert outside == set()

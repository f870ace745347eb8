"""Every name a demo imports from the package must exist.

Parsing is enough to catch a renamed or deleted name; running the demos
takes about a minute.
"""

import ast
import importlib
import pathlib

import pytest

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))


def _resolves(module, name):
    """`from module import name` finds an attribute or a submodule."""
    if hasattr(module, name):
        return True
    try:
        importlib.import_module(f"{module.__name__}.{name}")
    except ModuleNotFoundError:
        return False
    return True


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module \
                and node.module.split(".")[0] == "imin":
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert _resolves(module, alias.name), \
                    f"{path.name}: {node.module}.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "imin":
                    importlib.import_module(alias.name)


def test_demos_found():
    assert len(DEMOS) >= 5

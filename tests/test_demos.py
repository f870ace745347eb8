"""Every name a demo imports from the package must exist.

Parsing is enough to catch a renamed or deleted name; running every demo
takes about a minute, so only the spread-estimation demo, which takes well
under a second, is run.
"""

import ast
import importlib
import importlib.util
import pathlib

import pytest

DEMO_DIR = pathlib.Path(__file__).parent.parent / "demos"
DEMOS = sorted(DEMO_DIR.glob("*.py"))


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


def test_spread_estimation_demo_runs(capsys):
    spec = importlib.util.spec_from_file_location(
        "spread_demo", DEMO_DIR / "02_spread_estimation.py")
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    demo.main()
    out = capsys.readouterr().out
    assert out.count("cascades") == 3
    assert "exact_zero=True" in out

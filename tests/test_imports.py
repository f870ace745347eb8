"""Every name a module of the package imports is used in that module.

No linter is a dependency of the project, so this reads each module's
syntax tree: an imported name that no expression of the module refers
to fails the test.  Deletions tend to leave such imports behind.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).parent.parent / "src" / "imin"

# (module, name) pairs imported only so that perfbench's span table can
# resolve them by module path.
ALLOWED = {("optimize", "stopping_rule_spread"),
           ("sandwich", "stopping_rule_spread")}

MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")


def unused_imports(source):
    """Names bound by the import statements of `source` that no other
    node of it refers to."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0]
                            for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def test_modules_found():
    assert {"cli", "optimize", "sampling", "sandwich"} <= set(MODULES)


def test_finds_an_unused_import():
    assert unused_imports("import os\nimport sys as s\n"
                          "from math import pi, tau\nprint(os.sep, tau)\n") \
        == {"s", "pi"}


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    source = (SRC / f"{module}.py").read_text()
    unused = {name for name in unused_imports(source)
              if (module, name) not in ALLOWED}
    assert not unused, f"{module} imports but never uses {sorted(unused)}"

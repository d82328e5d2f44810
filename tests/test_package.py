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

"""Every module-level import of the package is used by its module: a name
that moved elsewhere leaves no stale import behind."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "secnum"
MODULES = sorted(path.name for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the module-level imports of source that no name in the
    module reads; __future__ imports bind nothing."""
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_the_guard_finds_an_unused_import():
    source = "from .resources import Budget, SelfCheckFailed\nimport os\n\nBudget()\n"
    assert unused_imports(source) == ["SelfCheckFailed", "os"]


@pytest.mark.parametrize("module", MODULES)
def test_every_module_level_import_is_used(module):
    assert unused_imports((PACKAGE / module).read_text()) == []

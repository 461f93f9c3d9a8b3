"""Every module-level import of the package is used by its module: a name
that moved elsewhere leaves no stale import behind.  Every name in the
package's table of lazily loaded names is bound by the module it names."""

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


def module_level_names(source: str) -> set[str]:
    """Names that the top level of source binds: definitions, assignments
    and imports."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names |= {target.id for target in node.targets if isinstance(target, ast.Name)}
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
    return names


def lazy_table(init_source: str) -> dict[str, tuple[str, ...]]:
    """The package's _LAZY_MODULES literal: module name -> names it supplies."""
    for node in ast.parse(init_source).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "_LAZY_MODULES"
                for target in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("the package has no _LAZY_MODULES table")


def missing_lazy_names(init_source: str, read_module) -> list[str]:
    """module.name for every entry of the lazy table that its module does not
    bind at top level, or that the package also binds eagerly (the eager
    binding would shadow it)."""
    eager = module_level_names(init_source)
    return [f"{module}.{name}"
            for module, names in lazy_table(init_source).items()
            for name in names
            if name in eager or name not in module_level_names(read_module(module))]


def test_the_lazy_guard_finds_a_missing_or_shadowed_name():
    init = ("from .census import cone\n"
            "_LAZY_MODULES = {'census': ('census_spaces', 'no_such'), 'suite': ('cone',)}\n")
    modules = {"census": "def census_spaces():\n    pass\n", "suite": "cone = 1\n"}
    assert missing_lazy_names(init, modules.__getitem__) == ["census.no_such", "suite.cone"]


def test_every_lazy_name_is_bound_by_its_module():
    init = (PACKAGE / "__init__.py").read_text()
    assert set(lazy_table(init)) <= {name[:-3] for name in MODULES}
    assert missing_lazy_names(init, lambda module: (PACKAGE / f"{module}.py").read_text()) == []

"""What the package imports and what it exports.

Every module imports only names it uses, and the package root exports each
public name of its six library modules exactly once. The source is only
read here, with ``ast``.
"""

import ast
from pathlib import Path

import pytest

import gplabelnoise
from gplabelnoise import data, detect, errors, gpr, kernel, noiseopt

SRC = Path(__file__).resolve().parents[1] / "src" / "gplabelnoise"
LIBRARY_MODULES = (kernel, gpr, noiseopt, detect, data, errors)


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names the module imports and never reads; names listed in a literal
    ``__all__`` count as read, and star imports bind nothing to check."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            and isinstance(node.value, ast.List)
        ):
            used.update(elt.value for elt in node.value.elts if isinstance(elt, ast.Constant))
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    unused = _unused_imports(ast.parse(path.read_text()))
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_guard_sees_an_unused_import():
    source = "from .errors import ConfigError, ParseError\n__all__ = ['f']\ndef f():\n    raise ParseError('x')\n"
    assert _unused_imports(ast.parse(source)) == ["ConfigError (line 1)"]


@pytest.mark.parametrize("module", LIBRARY_MODULES, ids=lambda m: m.__name__)
def test_package_exports_each_public_name_once(module):
    for name in module.__all__:
        assert getattr(gplabelnoise, name) is getattr(module, name), name
        assert gplabelnoise.__all__.count(name) == 1, name


def test_package_exports_nothing_else():
    names = ["__version__"] + [name for module in LIBRARY_MODULES for name in module.__all__]
    assert sorted(gplabelnoise.__all__) == sorted(names)

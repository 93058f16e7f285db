"""What the package and its tests import, and what the package exports.

Every module imports only names it uses, the package root exports each
public name of its six library modules exactly once, every module's
public names are read outside the tests, by the package or the benchmark,
and every third-party module the tests import is a declared dependency.
The source is only read here, with ``ast``.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

import gplabelnoise
from gplabelnoise import data, detect, errors, gpr, kernel, noiseopt

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "gplabelnoise"
PERFBENCH = ROOT / "perfbench"
TESTS = ROOT / "tests"
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


def _names_read(tree: ast.Module) -> set[str]:
    """Names a module reads: bare names, attributes (``gpl.fit_matrix``) and
    the names it imports."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def _unread_exports(sources: dict[str, str]) -> list[str]:
    """``module.name`` for each name in a module's literal ``__all__`` that no
    module of ``sources`` (module name -> source text) reads. A definition
    and an ``__all__`` entry are not reads, so a name read only by the module
    that defines it, such as a function's result type, counts as read."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    read = set().union(*map(_names_read, trees.values()))
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if (
                isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                and isinstance(node.value, ast.List)
            ):
                unread += [f"{module}.{elt.value}" for elt in node.value.elts if elt.value not in read]
    return unread


def _library_and_bench_sources() -> dict[str, str]:
    return {f"{path.parent.name}.{path.stem}": path.read_text()
            for path in sorted([*SRC.glob("*.py"), *PERFBENCH.glob("*.py")])}


def test_every_export_is_read_outside_the_tests():
    unread = _unread_exports(_library_and_bench_sources())
    assert not unread, f"public names only the tests read (move them to tests/): {unread}"


def test_guard_sees_an_unread_export():
    sources = _library_and_bench_sources()
    sources["gplabelnoise.planted"] = "__all__ = ['planted']\ndef planted():\n    return 1\n"
    assert _unread_exports(sources) == ["gplabelnoise.planted.planted"]


# Top-level modules the tests import that are neither the standard library
# nor a distribution: the package under test, the tests' own helpers and
# this module, whose source readers test_benchmark_config reuses.
LOCAL_MODULES = {"gplabelnoise", "oracles", "memtrace", "test_imports"}


def _top_level_imports(tree: ast.Module) -> set[str]:
    """The top-level module of every absolute import in ``tree``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def _undeclared(modules: set[str], requirements: list[str]) -> list[str]:
    """The third-party ``modules`` no requirement string names."""
    declared = {re.match(r"[A-Za-z0-9_.-]+", req).group().lower() for req in requirements}
    third_party = modules - set(sys.stdlib_module_names) - LOCAL_MODULES
    return sorted(name for name in third_party if name.lower() not in declared)


def _declared_requirements() -> list[str]:
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    return project["dependencies"] + project["optional-dependencies"]["test"]


def test_every_third_party_test_import_is_declared():
    imported = set().union(*(_top_level_imports(ast.parse(path.read_text())) for path in TESTS.glob("*.py")))
    undeclared = _undeclared(imported, _declared_requirements())
    assert not undeclared, f"tests import modules pyproject.toml does not declare: {undeclared}"


def test_guard_sees_an_undeclared_test_import():
    source = "import json\nimport numpy as np\nfrom hypothesis import given\nfrom oracles import fit\nimport yaml\n"
    assert _undeclared(_top_level_imports(ast.parse(source)), ["numpy>=1.24", "pytest"]) == ["hypothesis", "yaml"]

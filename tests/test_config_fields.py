"""Every settable field of the configuration records is read by the library,
every field of the result records by a module other than their own, and
every CLI option by the command-line front-end.

A field that only ``__post_init__`` looks at is validated and then ignored:
setting it changes nothing. A result field that only its own module reads
is carried along for nobody. An option the front-end never reads is parsed
and then dropped. The source is only read here.
"""

import ast
import dataclasses
from pathlib import Path

import pytest

from gplabelnoise import cli
from gplabelnoise import (
    DetectionReport,
    JointOptConfig,
    MultUpdateConfig,
    NoiseInjectionSpec,
    OptTrace,
    PgdConfig,
)

SRC = Path(__file__).resolve().parents[1] / "src" / "gplabelnoise"


def _attributes_read(skip: str | None = None) -> set[str]:
    """Names read as ``<expr>.<name>`` in the package, outside ``__post_init__``
    and outside the module named ``skip``."""
    seen = set()

    def visit(node):
        if isinstance(node, ast.FunctionDef) and node.name == "__post_init__":
            return
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            seen.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child)

    for path in sorted(SRC.glob("*.py")):
        if path.stem != skip:
            visit(ast.parse(path.read_text()))
    return seen


@pytest.mark.parametrize(
    "config", [MultUpdateConfig, PgdConfig, JointOptConfig, NoiseInjectionSpec], ids=lambda c: c.__name__
)
def test_every_field_is_read(config):
    unread = [f.name for f in dataclasses.fields(config) if f.name not in _attributes_read()]
    assert not unread, f"{config.__name__} fields nothing reads: {unread}"


@pytest.mark.parametrize("record", [OptTrace, DetectionReport], ids=lambda c: c.__name__)
def test_every_result_field_is_read_elsewhere(record):
    module = record.__module__.rpartition(".")[2]
    unread = [f.name for f in dataclasses.fields(record) if f.name not in _attributes_read(skip=module)]
    assert not unread, f"{record.__name__} fields only {module} reads: {unread}"


def _settings_read(source: str) -> set[str]:
    """Setting names ``cli.py`` reads: ``cfg[...]`` and ``cfg.get(...)``
    keys, ``_MULT_FIELDS`` keys, and the names in a tuple a loop walks
    (the ``gen`` mode selectors)."""
    seen = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name) and node.value.id == "cfg":
            keys = [node.slice]
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "get" and isinstance(node.func.value, ast.Name)
              and node.func.value.id == "cfg"):
            keys = node.args[:1]
        elif (isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
              and any(isinstance(t, ast.Name) and t.id == "_MULT_FIELDS" for t in node.targets)):
            keys = node.value.keys
        elif isinstance(node, (ast.For, ast.comprehension)) and isinstance(node.iter, ast.Tuple):
            keys = node.iter.elts
        else:
            continue
        seen.update(k.value for k in keys if isinstance(k, ast.Constant) and isinstance(k.value, str))
    return seen


CLI_SOURCE = (SRC / "cli.py").read_text()


def test_every_cli_option_is_read():
    read = _settings_read(CLI_SOURCE)
    unread = [(command, o.dest) for command, opts in cli._COMMAND_OPTS.items() for o in opts
              if o.dest not in read]
    assert not unread, f"options the CLI declares but never reads: {unread}"


@pytest.mark.parametrize(
    "read, dest",
    [('cfg["folds"]', "folds"), ('"tol_nll": "tol_nll",', "tol_nll"), ('"example1", ', "example1")],
    ids=["cfg-key", "mult-field", "mode-tuple"],
)
def test_option_guard_flags_a_removed_read(read, dest):
    assert dest in _settings_read(CLI_SOURCE)
    replacement = "5" if read.startswith("cfg") else ""
    mutated = CLI_SOURCE.replace(read, replacement)
    assert mutated != CLI_SOURCE
    assert dest not in _settings_read(mutated)

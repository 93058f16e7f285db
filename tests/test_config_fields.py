"""Every settable field of the configuration records is read by the library,
and every field of the result records by a module other than their own.

A field that only ``__post_init__`` looks at is validated and then ignored:
setting it changes nothing. A result field that only its own module reads
is carried along for nobody. The source is only read here.
"""

import ast
import dataclasses
from pathlib import Path

import pytest

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

"""Every settable field of the configuration records is read by the library.

A field that only ``__post_init__`` looks at is validated and then ignored:
setting it changes nothing. The source is only read here.
"""

import ast
import dataclasses
from pathlib import Path

import pytest

from gplabelnoise import JointOptConfig, MultUpdateConfig, NoiseInjectionSpec, PgdConfig

SRC = Path(__file__).resolve().parents[1] / "src" / "gplabelnoise"


def _attributes_read() -> set[str]:
    """Names read as ``<expr>.<name>`` in the package, outside ``__post_init__``."""
    seen = set()

    def visit(node):
        if isinstance(node, ast.FunctionDef) and node.name == "__post_init__":
            return
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            seen.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()))
    return seen


@pytest.mark.parametrize(
    "config", [MultUpdateConfig, PgdConfig, JointOptConfig, NoiseInjectionSpec], ids=lambda c: c.__name__
)
def test_every_field_is_read(config):
    unread = [f.name for f in dataclasses.fields(config) if f.name not in _attributes_read()]
    assert not unread, f"{config.__name__} fields nothing reads: {unread}"

"""Package layout: no top-level name in ``src/pooltrial`` exists only for tests.

A function or class that nothing in the package or the benchmark uses belongs
in ``tests/oracles.py`` (or nowhere), not in the package.
"""

import ast
import functools
import io
import tokenize
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "pooltrial").glob("*.py"))
USERS = PACKAGE + sorted((ROOT / "benchmarks").glob("*.py"))


@functools.cache
def _name_tokens(path):
    """(name, line) of every identifier token of a file; strings and comments skipped."""
    source = path.read_text()
    return [
        (tok.string, tok.start[0])
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type == tokenize.NAME
    ]


def _definitions():
    for path in PACKAGE:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield path, node


@pytest.mark.parametrize(
    "path, node",
    list(_definitions()),
    ids=lambda v: v.name,  # file name, then definition name
)
def test_top_level_definition_has_a_user(path, node):
    first = min([node.lineno] + [d.lineno for d in node.decorator_list])
    for user in USERS:
        for name, line in _name_tokens(user):
            if name == node.name and not (user == path and first <= line <= node.end_lineno):
                return
    pytest.fail(f"{path.name}:{node.lineno} {node.name} has no user in src/ or benchmarks/")

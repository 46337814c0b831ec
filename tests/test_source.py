"""Source-level invariants of the library."""

import ast
from pathlib import Path

import heegner

SOURCES = sorted(Path(heegner.__file__).parent.glob("*.py"))


def test_library_has_no_assert():
    # python -O strips assert statements; runtime invariants must raise
    assert SOURCES
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found

"""Checks on the package source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "necklaces"


def test_no_assert_statements():
    # python -O strips assert statements, so a guard must raise instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in the package: {found}"

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


def test_public_names_import():
    import necklaces

    missing = [name for name in necklaces.__all__ if not hasattr(necklaces, name)]
    assert not missing, f"names in necklaces.__all__ that do not resolve: {missing}"
    assert len(set(necklaces.__all__)) == len(necklaces.__all__)

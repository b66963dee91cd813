"""The package's checks are explicit: `python -O` strips `assert`
statements, so none may guard anything in src/groupcoh."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "groupcoh"


def test_runtime_has_no_assert_statement():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [f"{path.name}:{node.lineno}"
             for path in files
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []

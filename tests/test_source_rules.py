"""Rules the package source must keep."""

import ast
from pathlib import Path

import wildprim

PACKAGE = Path(wildprim.__file__).parent


def _is_assertion_error(exc) -> bool:
    if isinstance(exc, ast.Call):
        exc = exc.func
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_no_assert_guards_an_invariant():
    # `python -O` strips assert statements, and an AssertionError escapes the
    # CLI's exit codes; invariants raise InvariantViolation instead
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert) or (
                    isinstance(node, ast.Raise) and _is_assertion_error(node.exc)):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []

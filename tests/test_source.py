"""Properties of the package source itself."""

import ast
from pathlib import Path

import evoalg


def test_no_assert_statements():
    # Self-checks raise SelfCheckFailed; an assert would vanish under -O.
    sources = sorted(Path(evoalg.__file__).parent.glob("*.py"))
    assert len(sources) >= 13
    found = [f"{path.name}:{node.lineno}" for path in sources
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []

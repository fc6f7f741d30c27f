import ast
from pathlib import Path

import serp

SRC = Path(serp.__file__).parent


def test_no_assert_statements_in_package():
    # `python -O` strips assert statements, so invariants must raise explicitly.
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []

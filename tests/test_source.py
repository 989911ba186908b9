"""Rules about the source of src/finfree itself."""

import ast
from pathlib import Path

import finfree

SRC = Path(finfree.__file__).parent


def test_no_invariant_depends_on_assert():
    # python -O strips assert statements, so every check must raise explicitly
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            "%s:%d" % (path.relative_to(SRC), node.lineno)
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []

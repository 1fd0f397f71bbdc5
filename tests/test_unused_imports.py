"""Every name a package module imports is used in that module."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sunflower_circuits"


def unused_imports(source: str) -> list[str]:
    """The names bound by import statements in ``source`` that no other node reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


def test_the_check_sees_an_unused_import():
    source = "import math\nfrom json import dumps, loads\nprint(math.pi, loads)\n"
    assert unused_imports(source) == ["line 2: dumps"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []

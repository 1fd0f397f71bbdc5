"""Every name a package module imports is used in that module, no package
module imports another module's private function, and every function,
class, method and module-level name it defines is named outside its
definition."""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sunflower_circuits"


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


def named(tree) -> Counter:
    """How often each identifier is named in ``tree``: read, as attribute, import or string."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name.split(".")[-1]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names[node.value] += 1  # getattr targets such as the bench tracer's
    return names


def definitions(tree):
    """(name, node) for a module's top-level functions, classes and assigned
    names, and for the methods of its classes."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            yield from ((m.name, m) for m in node.body if isinstance(m, defs))
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from ((t.id, node) for t in targets if isinstance(t, ast.Name))


def dead_symbols(package_trees: dict, other_trees) -> list[str]:
    """The definitions in ``package_trees`` named nowhere outside their own body."""
    total = Counter()
    for tree in [*package_trees.values(), *other_trees]:
        total += named(tree)
    dead = []
    for module, tree in package_trees.items():
        for name, node in definitions(tree):
            if name.startswith("__") and name.endswith("__"):
                continue
            if total[name] - named(node)[name] <= 0:
                dead.append(f"{module}: {name}")
    return dead


def test_the_check_sees_a_dead_symbol():
    package = {"m": ast.parse("def used():\n    pass\n\ndef dead(x):\n    return dead(x)\n")}
    caller = ast.parse("from m import used\nused()\n")
    assert dead_symbols(package, [caller]) == ["m: dead"]


def test_the_check_sees_a_dead_constant():
    source = "__all__ = ['f']\n_USED = 3\n_DEAD: int = 4\n\ndef f():\n    return _USED\n"
    caller = ast.parse("from m import f\nf()\n")
    assert dead_symbols({"m": ast.parse(source)}, [caller]) == ["m: _DEAD"]


def test_every_package_symbol_is_named_outside_its_definition():
    package = {p.name: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    others = [ast.parse(p.read_text()) for d in ("tests", "bench")
              for p in sorted((ROOT / d).rglob("*.py"))]
    assert dead_symbols(package, others) == []


def private_imports(source: str) -> list[str]:
    """The names ``source`` imports from a package module that are private to it:
    an underscore name that is neither a dunder nor an upper-case constant."""
    return [f"line {node.lineno}: {alias.name}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.level
            for alias in node.names
            if alias.name.startswith("_") and not alias.name.endswith("__")
            and not alias.name.isupper()]


def test_the_check_sees_a_private_import():
    source = ("from . import __version__\nfrom .rng import _PIECE, bias\n"
              "from .probability import _helper, exact_coverage\nfrom os import _exit\n")
    assert private_imports(source) == ["line 3: _helper"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_private_import(path):
    assert private_imports(path.read_text()) == []

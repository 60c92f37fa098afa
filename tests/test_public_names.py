"""No public API that only the tests use: every public top-level function
and class of the package is named somewhere in the package (outside
``__init__.py``) or in the benchmark, other than by its own definition."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "coingames"


def _names(node: ast.AST) -> set[str]:
    """Every name and attribute that ``node`` reads or writes."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
    return found


def test_every_public_name_has_a_caller_outside_the_tests():
    public, used = set(), set()
    for path in [*PACKAGE.glob("*.py"), *(ROOT / "perfbench").glob("*.py")]:
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if path.parent == PACKAGE and not node.name.startswith("_"):
                    public.add(node.name)
                used |= _names(node) - {node.name}
            else:
                used |= _names(node)
    assert sorted(public - used) == []

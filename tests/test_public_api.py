"""Every public top-level function and class in ``crsbench`` has a caller in
the package, the demos or the benchmark; a name that only tests use is dead
API. A reference is a name, an attribute, an imported name or a string
holding exactly the name (the benchmark wraps functions it names in strings)."""

import ast
from pathlib import Path

import crsbench

SRC = Path(crsbench.__file__).resolve().parent
ROOT = SRC.parents[1]
CALLERS = (SRC, ROOT / "demos", ROOT / "bench")


def _public_definitions(tree: ast.Module) -> set[str]:
    return {node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")}


def _references(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            names.add(node.value)
    return names


def _unreferenced(defined: dict[str, set[str]], callers: list[ast.AST]) -> list[str]:
    used = set().union(*map(_references, callers))
    return sorted(f"{module}.{name}" for module, names in defined.items() for name in names - used)


def test_the_scan_sees_each_kind_of_reference():
    defined = {"m": _public_definitions(ast.parse(
        "def a(): pass\ndef b(): pass\nclass C: pass\ndef d(): pass\ndef e(): pass\n"
        "def f(): pass\ndef _g(): pass\n"))}
    callers = [ast.parse("a()\nx = m.b\nfrom m import C\ngetattr(m, 'd')\nrun('e', 1)\n")]
    assert _unreferenced(defined, callers) == ["m.f"]


def test_every_public_name_has_a_caller_outside_the_tests():
    defined = {path.stem: _public_definitions(ast.parse(path.read_text(encoding="utf-8")))
               for path in sorted(SRC.glob("*.py"))}
    callers = [ast.parse(path.read_text(encoding="utf-8"))
               for root in CALLERS for path in sorted(root.glob("*.py"))]
    assert _unreferenced(defined, callers) == []

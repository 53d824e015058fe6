"""Every public top-level class in ``crsbench`` has a caller in the package,
the demos or the benchmark; a class that only tests use is dead API. A
reference is a name, an attribute, an imported name or a string holding
exactly the name (the benchmark wraps what it names in strings). Functions
and methods have their own gate, ``test_reach``: a run must enter them."""

import ast
from pathlib import Path

import crsbench

SRC = Path(crsbench.__file__).resolve().parent
ROOT = SRC.parents[1]
CALLERS = (SRC, ROOT / "demos", ROOT / "bench")


def _public_classes(tree: ast.Module) -> set[str]:
    return {node.name for node in tree.body
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_")}


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
    defined = {"m": _public_classes(ast.parse(
        "class A: pass\nclass B: pass\nclass C: pass\nclass D: pass\nclass E: pass\n"
        "class F: pass\nclass _G: pass\ndef h(): pass\n"))}
    callers = [ast.parse("A()\nx = m.B\nfrom m import C\ngetattr(m, 'D')\nrun('E', 1)\n")]
    assert _unreferenced(defined, callers) == ["m.F"]


def test_every_public_class_has_a_caller_outside_the_tests():
    defined = {path.stem: _public_classes(ast.parse(path.read_text(encoding="utf-8")))
               for path in sorted(SRC.glob("*.py"))}
    callers = [ast.parse(path.read_text(encoding="utf-8"))
               for root in CALLERS for path in sorted(root.glob("*.py"))]
    assert _unreferenced(defined, callers) == []

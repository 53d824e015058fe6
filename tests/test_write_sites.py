"""Every file crsbench writes goes through ``crsbench.jsondoc``; this scan
keeps the decision of how a file reaches disk in that one module."""

import ast
from pathlib import Path

import crsbench

SRC = Path(crsbench.__file__).resolve().parent
# The audit log appends one line per trial and the run's lock file holds no
# data: neither is an artifact, so each keeps its own open (and mkdir).
ALLOWED = {("protocol.py", "AuditLog.__init__"), ("cli.py", "cmd_run")}


# ``os.open`` flags that open a file for reading only
_READ_ONLY_FLAGS = {"O_RDONLY", "O_NONBLOCK", "O_CLOEXEC", "O_NOFOLLOW"}


def _read_only_flags(node) -> bool:
    """Whether ``node`` is ``os.O_*`` read-only flags or-ed together."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        return _read_only_flags(node.left) and _read_only_flags(node.right)
    return (isinstance(node, ast.Attribute) and node.attr in _READ_ONLY_FLAGS
            and isinstance(node.value, ast.Name) and node.value.id == "os")


def _writes(call: ast.Call) -> bool:
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if name == "open" and isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "os":
        # os.open(path, flags); flags the scan cannot read count as a write
        return not (len(call.args) > 1 and _read_only_flags(call.args[1]))
    if isinstance(func, ast.Attribute) and name in ("write_text", "write_bytes", "mkdir"):
        return True
    if name != "open":
        return False
    # builtin open(path, mode) or Path.open(mode); a mode the scan cannot read counts as a write
    args = call.args[1:] if isinstance(func, ast.Name) else call.args
    mode = next((kw.value for kw in call.keywords if kw.arg == "mode"), args[0] if args else None)
    if mode is None:
        return False
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and not set(mode.value) & set("wax+"))


def _write_sites(source: str) -> set[str]:
    """Qualified names of the functions (``""`` for module level) that write a file."""
    sites = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            elif isinstance(child, ast.Call) and _writes(child):
                sites.add(scope)
            visit(child, inner)

    visit(ast.parse(source), "")
    return sites


def test_the_scan_sees_each_way_to_write_a_file():
    source = (
        "def a(p): p.write_text('x')\n"
        "def b(p): p.write_bytes(b'x')\n"
        "def c(p): p.parent.mkdir()\n"
        "def d(p): open(p, 'a')\n"
        "def e(p): p.open(mode='wb')\n"
        "class F:\n"
        "    def g(self, p, m): open(p, m)\n"
        "def h(p): return open(p).read() + open(p, 'rb').read() + p.open('r').read()\n"
        "def i(p): os.open(p, os.O_WRONLY | os.O_CREAT)\n"
        "def j(p, flags): os.open(p, flags)\n"
        "def k(p): os.open(p, os.O_RDONLY | os.O_NONBLOCK)\n"
    )
    assert _write_sites(source) == {"a", "b", "c", "d", "e", "F.g", "i", "j"}


def test_only_jsondoc_writes_files():
    sites = {(path.name, site) for path in sorted(SRC.glob("*.py")) if path.name != "jsondoc.py"
             for site in _write_sites(path.read_text(encoding="utf-8"))}
    assert sites == ALLOWED

"""What a CLI process imports: every process pays for each module it loads,
so a module the package stops needing must stay unloaded.

- No ``crsbench`` module imports ``dataclasses``. Its record types are
  NamedTuples, which build without generating code at import, and no module
  the CLI loads imports ``dataclasses`` in its stead.
- ``compare`` does not load ``numpy.ma``, which ``np.percentile`` imports
  on its first call.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import crsbench

SRC = Path(crsbench.__file__).resolve().parent


def _run_python(code: str, cwd: Path) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=env, cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_no_module_of_the_package_imports_dataclasses():
    importers = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            if any(name and name.split(".")[0] == "dataclasses" for name in names):
                importers.append(f"{path.name}:{node.lineno}")
    assert importers == []


def test_importing_the_cli_loads_no_dataclasses(tmp_path):
    out = _run_python("import sys\nimport crsbench.cli\nprint('dataclasses' in sys.modules)", tmp_path)
    assert out == "False\n"


def test_compare_loads_no_numpy_ma(tmp_path):
    n = 40
    for name, shift in (("a", 0), ("b", 7)):
        doc = {"model_name": name, "case_ids": [f"c{i:02d}" for i in range(n)],
               "labels": [int(i % 3 != 0) for i in range(n)],
               "scores": [((i * 13 + shift) % n) / n for i in range(n)],
               "hard_labels": [int((i * 13 + shift) % n >= n // 3) for i in range(n)]}
        (tmp_path / f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")
    out = _run_python(
        "import sys\nfrom crsbench.cli import main\n"
        "code = main(['compare', '--pred-a', 'a.json', '--pred-b', 'b.json', '--out', 'c.json'])\n"
        "print(code, 'numpy.ma' in sys.modules)", tmp_path)
    assert out.splitlines()[-1] == "0 False"

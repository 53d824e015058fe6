"""Every function and method defined under ``src/crsbench`` is entered by a run.

A fresh process (process-wide memos such as the parser's would hide calls
after earlier tests) runs, under ``sys.setprofile``, with the package's
imports inside the profiled region:
- the golden paper-size pass of ``test_golden_artifacts``: ``run`` with all
  five model kinds, ``genai --rag``, ``compare``, ``importance``, ``report``;
- one call of each other subcommand: ``synth``, ``preprocess``, ``train``,
  ``predict``, ``rag-build`` and ``evaluate``;
- the four demos, through ``runpy``.
Each ``def`` in the package's sources must be entered, or be listed in
``ALLOWED`` with the reason it stays. Code that no run enters is either
deleted or earns a caller; an entry that a run enters, or that no longer
exists, is taken off the list.

Run this file as a script, ``python tests/test_reach.py WORK_DIR OUT_JSON``,
to do the profiled run in ``WORK_DIR``; it writes the entered code objects
to ``OUT_JSON``.
"""

from __future__ import annotations

import ast
import contextlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(importlib.util.find_spec("crsbench").origin).resolve().parent
DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))

# Definitions no run enters, by module and qualified name, each with its reason.
ALLOWED = {
    "cohort.CohortTable.records": "bench/ builds its record inputs with it; the tests compare "
                                  "parsed tables record by record",
    "cohort.CohortTable.from_records": "bench/ builds its inputs from records",
    "cohort.label_records": "bench/ labels its record inputs with it",
    "synthetic.generate_synthetic": "bench/ generates its record inputs with it",
    "protocol.serialize_case": "bench/ traces it; the one-row call of case_blocks",
    "models.clamp_count": "bench/ reads the clamp counter through it",
    "heuristic.HeuristicPrediction.to_dict": "the reference form of a heuristic trace line that "
                                             "README's layout contract names",
    "cohort.LeakageError.__init__": "error only: a post-operative feature name",
    "models.DivergenceError.__init__": "error only: a non-finite training loss",
    "protocol.ReplayMissError.__init__": "error only: a replay entry missing or unusable",
    "jsondoc.Invalid.__init__": "error only: a boundary document of the wrong shape",
    "jsondoc._must": "error only: builds the Invalid of a rejected value",
}


def definitions(source: str) -> list[tuple[str, int]]:
    """The qualified name of each ``def`` in ``source``, as its code object's
    ``co_qualname`` reads, and the line its code object starts on: the first
    decorator's, or the ``def``'s."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                found.append((name, min([child.lineno, *(d.lineno for d in child.decorator_list)])))
                visit(child, f"{name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(ast.parse(source), "")
    return found


def entered_while(run) -> set[tuple[str, str, int]]:
    """(file, qualified name, first line) of each code object that ``run()``
    enters, through the profile hook."""
    codes = {}  # keyed by id, which hashes faster than a code object

    def profile(frame, event, arg):
        if event == "call":
            codes[id(frame.f_code)] = frame.f_code

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return {(code.co_filename, code.co_qualname, code.co_firstlineno) for code in codes.values()}


def unentered(modules: dict[str, Path], entered: set[tuple[str, str, int]]) -> list[str]:
    """``module.qualname`` of each definition in the sources of ``modules``
    (name -> path) whose code object is not in ``entered``."""
    entered = {(str(Path(file).resolve()), name, line) for file, name, line in entered}
    return sorted(f"{module}.{name}" for module, path in modules.items()
                  for name, line in definitions(path.read_text(encoding="utf-8"))
                  if (str(path.resolve()), name, line) not in entered)


def _run_everything(work: Path) -> None:
    """The golden pass, one call of each other subcommand and the demos, in ``work``."""
    import runpy

    from crsbench.cli import EXIT_OK, main
    from crsbench.schema import load_schema
    from test_golden_artifacts import paper_pass

    (work / "inputs").mkdir()
    (work / "pass").mkdir()
    commands = paper_pass(work / "inputs", load_schema())
    os.chdir(work / "pass")
    commands += [
        ["synth", "--n", "80", "--seed", "1", "--out", "synth.csv"],
        ["preprocess", "--cohort", "synth.csv", "--out-dir", "prep"],
        ["train", "--cohort", "synth.csv", "--model", "logreg", "--out", "logreg.json"],
        ["predict", "--model-file", "logreg.json", "--cohort", "synth.csv", "--out", "preds.json"],
        ["rag-build"],
        ["evaluate", "--predictions", "preds.json", "--out-dir", "ev"],
    ]
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        for argv in commands:
            if main(argv) != EXIT_OK:
                raise SystemExit(f"crsbench {' '.join(argv)} failed")
        for demo in DEMOS:
            runpy.run_path(str(demo), run_name="__main__")


def test_definitions_and_profile_see_each_kind_of_def(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(
        "import functools\n"
        "def used(x):\n"
        "    def inner(y):\n"
        "        return y + 1\n"
        "    return inner(x)\n"
        "def _helper():\n"
        "    return 0\n"
        "class Box:\n"
        "    def __init__(self, v):\n"
        "        self.v = v\n"
        "    @property\n"
        "    def doubled(self):\n"
        "        return 2 * self.v\n"
        "    @functools.cached_property\n"
        "    def tripled(self):\n"
        "        return 3 * self.v\n"
        "    class Inner:\n"
        "        def ping(self):\n"
        "            return 'pong'\n"
        "if True:\n"
        "    def branch():\n"
        "        return used(1)\n"
    )
    assert definitions(path.read_text()) == [
        ("used", 2), ("used.<locals>.inner", 3), ("_helper", 6), ("Box.__init__", 9),
        ("Box.doubled", 11), ("Box.tripled", 14), ("Box.Inner.ping", 18), ("branch", 21),
    ]

    def run():
        spec = importlib.util.spec_from_file_location("m", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        box = module.Box(2)
        assert (module.branch(), box.doubled, box.tripled, box.Inner().ping()) == (2, 4, 6, "pong")

    assert unentered({"m": path}, entered_while(run)) == ["m._helper"]


def test_every_definition_is_entered_by_a_run(tmp_path):
    out = tmp_path / "entered.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, __file__, str(tmp_path), str(out)],
                          capture_output=True, text=True, timeout=300, env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    entered = {tuple(key) for key in json.loads(out.read_text())}
    missed = unentered({path.stem: path for path in sorted(SRC.glob("*.py"))}, entered)
    assert [name for name in missed if name not in ALLOWED] == []
    assert sorted(ALLOWED.keys() - set(missed)) == [], "entered or gone: take them off ALLOWED"


if __name__ == "__main__":
    work, out = map(Path, sys.argv[1:])
    entered = entered_while(lambda: _run_everything(work))
    out.write_text(json.dumps(sorted(key for key in entered if Path(key[0]).resolve().is_relative_to(SRC))))

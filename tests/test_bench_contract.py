"""The benchmark's contract with the package.

``bench/`` builds its inputs with the package's public functions and runs
its CLI invocations through ``bench/trace_child.py``, which wraps the
functions and methods it traces by name. This test builds the ``paper_cli``
inputs and a 1,000-row ``scale_50k``-shaped input with the bench's own
modules, replays their invocations traced, and checks every output with the
bench's checks, so that a change that moves an API the bench calls fails
here rather than in a benchmark run. It reads ``bench/`` and edits nothing
there.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import crsbench

BENCH = Path(__file__).resolve().parents[1] / "bench"
SEED = 1


def test_bench_inputs_build_and_traced_invocations_check_clean(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import checks
    import workloads

    paper = workloads.WORKLOADS["paper_cli"]
    paper_inputs = paper.make_inputs(tmp_path / "paper_in", paper.program_seed(SEED))
    scale_inputs = workloads.scale_inputs(tmp_path / "scale_in", SEED, n=1_000)
    cases = [
        (paper_inputs, paper.invocations(paper_inputs, SEED), tmp_path / "paper_pass"),
        (scale_inputs, workloads.scale_invocations(scale_inputs, SEED), tmp_path / "scale_pass"),
    ]
    for _, _, pass_dir in cases:
        pass_dir.mkdir()
    plan = {"trace": True, "passes": [
        {"label": pass_dir.name, "dir": str(pass_dir), "argv": [list(inv.argv) for inv in invocations]}
        for _, invocations, pass_dir in cases
    ]}
    plan_path, result_path = tmp_path / "plan.json", tmp_path / "result.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")

    src = str(Path(crsbench.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, str(BENCH / "trace_child.py"), str(plan_path),
                           str(result_path)], cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(result_path.read_text(encoding="utf-8"))

    for (inputs, invocations, pass_dir), done in zip(cases, result["passes"]):
        assert done["exit_codes"] == [0] * len(invocations), pass_dir.name
        for inv, code in zip(invocations, done["exit_codes"]):
            assert checks.check_safely(inv, code, pass_dir, inputs) == [], inv.kind
        assert done["trace"]["missing"] == []
        counts = done["trace"]["counts"]
        assert counts["protocol.trials"] > 0, pass_dir.name
        assert counts["protocol.replay_reads"] == counts["protocol.trials"]  # one read per trial
        # one curve point per data row of the ROC and P-R files the pass wrote
        rows = sum(len(path.read_bytes().splitlines()) - 1
                   for pattern in ("*_roc.csv", "*_pr.csv") for path in pass_dir.rglob(pattern))
        assert counts["metrics.curve_points"] == rows > 0, pass_dir.name

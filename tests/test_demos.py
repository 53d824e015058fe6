import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import crsbench

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
# SHA-256 of the standard output of every demo, pinned so that a change to the
# models, the rule chain, the case renderer, the replay protocol or the
# evaluation report that alters what they print shows here.
STDOUT_SHA256 = {
    "01_cohort_and_models.py": "e3cd0573606e913e34e176e9ea7ae1e959446e3235967fa7f9e218258b34a4b4",
    "02_rule_engine_trace.py": "2a8e2f6b5130a5e5d2745c2d5b76fd7df6fe4e34e007fe9c0e41fa0e43edd319",
    "03_replay_protocol.py": "7d643690214c4ec6be2abe10b0bf227019f170e509f7e5c5ec322cc5ea954079",
    "04_evaluation_and_comparison.py": "8395c36a9c3df53e4e2d002da9188b181a28ce7dfb40ffcbf7b573dc4ee56aef",
}


def _run_demo(demo, cwd):
    src = str(Path(crsbench.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          timeout=120, env=env, cwd=cwd)


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, tmp_path):
    proc = _run_demo(demo, tmp_path)
    assert proc.returncode == 0, proc.stderr
    if demo.name in STDOUT_SHA256:
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == STDOUT_SHA256[demo.name]

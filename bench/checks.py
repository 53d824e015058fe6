"""Output checks for one CLI invocation, and the artifact digest of a pass.

Each check returns a list of problems; an invocation with any problem counts
as one failed operation.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np

from inputs import Inputs, expected
from workloads import Invocation

AUROC_TOLERANCE = 1e-12
DIGEST_PATTERNS = ("*_predictions.json", "*_report.json", "*_model.json",
                   "compare.json", "importance.json")


def brute_force_auroc(labels, scores) -> float:
    """Pairwise AUROC: (concordant + tied / 2) over all positive-negative pairs."""
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=float)
    pos, neg = scores[labels == 1], scores[labels == 0]
    above = ties = 0
    for start in range(0, len(pos), 1024):
        block = pos[start:start + 1024, None]
        above += int(np.count_nonzero(block > neg))
        ties += int(np.count_nonzero(block == neg))
    return (above + 0.5 * ties) / (len(pos) * len(neg))


def _load(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _check_predictions(doc: dict, x: Inputs, model_id: str | None) -> list[str]:
    name = doc.get("model_name")
    n = len(doc["case_ids"])
    problems = []
    if not (n == len(doc["labels"]) == len(doc["scores"]) == len(doc["hard_labels"]) == x.test_size):
        problems.append(f"{name}: {n} predictions, test split has {x.test_size}")
    if model_id is None:
        return problems
    planted = x.planted[model_id]
    for cid, hard, score in zip(doc["case_ids"], doc["hard_labels"], doc["scores"]):
        if cid not in planted:
            problems.append(f"{name}: case {cid} was never planted")
            break
        want_hard, want_score, _ = expected(planted[cid])
        if hard != want_hard or abs(score - want_score) > AUROC_TOLERANCE:
            problems.append(f"{name}: case {cid} gave ({hard}, {score}), "
                            f"vote count says ({want_hard}, {want_score})")
            break
    return problems


def _check_audit(path: Path, x: Inputs, model_id: str) -> list[str]:
    lines = path.read_text(encoding="utf-8").splitlines()[1:]
    flags, statuses = Counter(), Counter()
    want_flags, want_statuses = Counter(), Counter()
    for line in lines:
        t = json.loads(line)
        flags[t["aggregate"]["flag"]] += 1
        statuses.update(r["parser_status"] for r in t["replicates"])
        reps = x.planted[model_id].get(t["case_id"], [])
        want_flags[expected(reps)[2]] += 1
        want_statuses.update(r.status for r in reps)
    problems = []
    if len(lines) != x.test_size:
        problems.append(f"{path.name}: {len(lines)} trials, test split has {x.test_size}")
    if flags != want_flags:
        problems.append(f"{path.name}: flags {dict(flags)}, vote count says {dict(want_flags)}")
    if statuses != want_statuses:
        problems.append(f"{path.name}: parser statuses {dict(statuses)}, planted {dict(want_statuses)}")
    return problems


def _check_report(report_path: Path, pred: dict) -> list[str]:
    reported = _load(report_path)["auroc"]
    brute = brute_force_auroc(pred["labels"], pred["scores"])
    if abs(reported - brute) > AUROC_TOLERANCE:
        return [f"{report_path.name}: AUROC {reported!r}, brute force {brute!r}"]
    return []


def check_invocation(inv: Invocation, exit_code: int, pass_dir: Path, x: Inputs) -> list[str]:
    if exit_code != 0:
        return [f"{inv.kind} exited with {exit_code}"]
    problems = []
    for rel, model_id in inv.predictions.items():
        path = pass_dir / rel
        doc = _load(path)
        problems += _check_predictions(doc, x, model_id)
        report = path.parent / "reports" / f"{doc['model_name']}_report.json"
        if inv.kind == "run":
            problems += _check_report(report, doc)
    for model_id, rel in inv.audit.items():
        problems += _check_audit(pass_dir / rel, x, model_id)
    if inv.kind == "compare":
        argv = inv.argv
        a = _load(pass_dir / argv[argv.index("--pred-a") + 1])
        b = _load(pass_dir / argv[argv.index("--pred-b") + 1])
        delong = _load(pass_dir / "compare.json")["delong"]
        for side, pred in (("auc_a", a), ("auc_b", b)):
            brute = brute_force_auroc(pred["labels"], pred["scores"])
            if abs(delong[side] - brute) > AUROC_TOLERANCE:
                problems.append(f"compare {side} {delong[side]!r}, brute force {brute!r}")
    if inv.kind == "importance":
        model = _load(pass_dir / inv.argv[inv.argv.index("--model-file") + 1])
        rows = _load(pass_dir / "importance.json")
        if sorted(r["feature"] for r in rows) != sorted(model["feature_names"]):
            problems.append("importance rows do not cover the model's features")
        if not all(math.isfinite(r["mean_delta_balanced_accuracy"]) for r in rows):
            problems.append("importance holds a non-finite value")
    if inv.kind == "report":
        run_dir = pass_dir / inv.argv[inv.argv.index("--run-dir") + 1]
        bullets = [ln for ln in (run_dir / "summary.md").read_text().splitlines() if ln.startswith("- ")]
        if len(bullets) != len(list(run_dir.glob("**/*_report.json"))):
            problems.append("summary.md does not list every report")
    return problems


def check_safely(inv: Invocation, exit_code: int, pass_dir: Path, x: Inputs) -> list[str]:
    """check_invocation, with a missing or unreadable output counted as a problem."""
    try:
        return check_invocation(inv, exit_code, pass_dir, x)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"{inv.kind}: output unreadable: {type(exc).__name__}: {exc}"]


def artifact_digest(pass_dir: Path) -> str:
    """sha256 over predictions, report and model JSONs; audit logs hold
    timestamps and are left out."""
    files = sorted({p for pat in DIGEST_PATTERNS for p in pass_dir.rglob(pat)})
    h = hashlib.sha256()
    for path in files:
        h.update(path.relative_to(pass_dir).as_posix().encode())
        h.update(b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()

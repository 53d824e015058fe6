#!/usr/bin/env python3
"""End-to-end benchmark of the crsbench CLI.

    python3 bench/run_bench.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Inputs are generated from the seed before any
timing. With ``--trace 0`` every invocation is a fresh
``python -m crsbench.cli ...`` process with ``PYTHONPATH=src``, timed from
spawn to exit, and the end-to-end metrics are reported. With ``--trace 1`` the
same invocations are replayed in one process, once untraced and once traced,
and the per-layer metrics are reported. Every output is checked either way.
The last line of standard output is the JSON result; the line before it holds
the environment stamp, the artifact digest and the growth report.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
PYTHON = sys.executable
perf = time.perf_counter

RUN_LIMIT_S = 170.0  # a run must end within 180 s
SETUP_SAMPLES = 3
SETUP_CODE = (
    "import crsbench.cli\n"
    "from crsbench.schema import load_schema\n"
    "from crsbench.protocol import load_prompt_template\n"
    "from crsbench.rag import load_corpus\n"
    "load_schema(); load_prompt_template(); load_corpus()\n"
)
LAYERS = ("schema", "synthetic", "cohort", "models", "heuristic", "protocol", "rag", "metrics")
GROWTH_STAGES = (
    ("cohort.parse_exp", "cohort.parse"),
    ("cohort.encode_exp", "cohort.encode"),
    ("metrics.evaluate_continuous_exp", "metrics.evaluate_continuous"),
    ("protocol.trial_exp", "protocol.trial"),
)


def die(message: str) -> None:
    print(f"run_bench: {message}", file=sys.stderr)
    sys.exit(2)


# Training is single-threaded by design; one BLAS thread keeps the figures
# independent of whatever else runs on the machine, and is the same on both
# sides of every comparison.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child_env() -> dict:
    return {**os.environ, **PINNED_ENV, "PYTHONPATH": str(SRC)}


def spawn(argv, cwd: Path, log_stem: Path, timeout: float) -> tuple[int, float, int]:
    """Run one process to completion: (exit code, spawn-to-exit s, max RSS kB)."""
    with open(f"{log_stem}.out", "wb") as out, open(f"{log_stem}.err", "wb") as err:
        t0 = perf()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out, stderr=err)
        timer = threading.Timer(max(timeout, 0.1), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = perf() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def tree_bytes(path: Path, pattern: str = "*") -> int:
    return sum(p.stat().st_size for p in path.rglob(pattern) if p.is_file())


# -- environment stamp ----------------------------------------------------------


def environment() -> dict:
    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        git_sha = proc.stdout.strip() or None
    src_files = sorted(p for p in (SRC / "crsbench").rglob("*")
                       if p.is_file() and "__pycache__" not in p.parts)
    h = hashlib.sha256()
    for p in src_files:
        h.update(p.relative_to(SRC).as_posix().encode() + b"\0" + p.read_bytes())
    versions = {}
    for dist in ("numpy", "scipy"):
        try:
            versions[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            versions[dist] = None
    return {
        "git_sha": git_sha,
        "src_sha256": h.hexdigest(),
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in src_files if p.suffix == ".py"),
        "python": platform.python_version(),
        **versions,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": child_env()["OPENBLAS_NUM_THREADS"],
    }


# -- untraced run: end-to-end metrics -------------------------------------------


class Ledger:
    """Operations attempted and failed, with the first few problems kept."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[: max(0, 20 - len(self.problems))])


def run_pass(wl, x, seed: int, pass_dir: Path, ledger: Ledger, deadline: float,
             checks) -> tuple[list[float], int] | None:
    """One closed-loop pass over the workload's invocations as fresh processes.
    Returns (spawn-to-exit seconds of each invocation, largest max-RSS in kB),
    or None when the run limit cut the pass short."""
    walls, rss = [], 0
    for i, inv in enumerate(wl.invocations(x, seed)):
        code, seconds, maxrss = spawn([PYTHON, "-m", "crsbench.cli", *inv.argv], pass_dir,
                                      pass_dir / f"invocation{i}", deadline - perf())
        ledger.record(checks.check_safely(inv, code, pass_dir, x))
        if perf() >= deadline:
            return None
        walls.append(seconds)
        rss = max(rss, maxrss)
    return walls, rss


def setup_sample(run_dir: Path, i: int) -> float:
    """One fresh interpreter importing the CLI and loading the packaged
    schema, prompt template and corpus: spawn-to-exit seconds."""
    code, seconds, _ = spawn([PYTHON, "-c", SETUP_CODE], run_dir, run_dir / f"setup{i}", 60.0)
    if code != 0:
        die(f"set-up import failed; see {run_dir}/setup{i}.err")
    return seconds


def untraced(wl, seed: int, seconds: float, run_dir: Path, deadline: float, checks,
             ledger: Ledger) -> tuple[dict, dict]:
    t0 = perf()
    x = wl.make_inputs(run_dir / "in", wl.program_seed(seed))
    inputs_s = perf() - t0
    setup_sample(run_dir, 0)  # fills the bytecode cache, which users do not pay on every run
    setups, walls, rss = [], [], []
    start = perf()
    while True:
        # Set-up samples are spread between the passes rather than taken back
        # to back, so that they meet the host's fast and slow spells alike.
        setups.append(setup_sample(run_dir, len(setups) + 1))
        pass_dir = fresh_dir(run_dir / "pass")
        result = run_pass(wl, x, seed, pass_dir, ledger, deadline, checks)
        if result is None:
            break
        if not walls:
            digest = checks.artifact_digest(pass_dir)
        walls.append(result[0])
        rss.append(result[1])
        elapsed = perf() - start
        per_pass = elapsed / len(walls)
        if elapsed + per_pass > seconds or perf() + 1.5 * per_pass > deadline:
            break
    if not walls:
        die("the run limit ended the run before one pass was measured")
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup_sample(run_dir, len(setups) + 1))
    # A shared host's speed switches between fast and slow spells lasting
    # seconds to minutes, so each time is the fastest of its repeats, which
    # spread less over seeds than their median did (README, "Timing noise").
    metrics = {
        "wall_s": sum(min(inv) for inv in zip(*walls)),
        "setup_s": min(setups),
        "peak_rss_mb": statistics.median(rss) / 1024.0,
    }
    meta = {"program_seed": x.seed, "inputs_s": inputs_s, "pass_walls_s": walls,
            "setup_samples_s": setups, "artifact_digest": digest}
    return metrics, meta


# -- traced run: per-layer metrics ----------------------------------------------


def run_child(plan: dict, run_dir: Path, tag: str, deadline: float) -> dict | None:
    plan_path = run_dir / f"{tag}_plan.json"
    result_path = run_dir / f"{tag}_result.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    result_path.unlink(missing_ok=True)
    code, _, _ = spawn([PYTHON, str(BENCH / "trace_child.py"), str(plan_path), str(result_path)],
                       run_dir, run_dir / tag, deadline - perf())
    if code != 0 or not result_path.exists():
        return None
    return json.loads(result_path.read_text(encoding="utf-8"))


def import_breakdown(run_dir: Path) -> dict[str, float]:
    """Cumulative import seconds per module, from ``python -X importtime``."""
    code, _, _ = spawn([PYTHON, "-X", "importtime", "-c", "import crsbench.cli"], run_dir,
                       run_dir / "importtime", 60.0)
    if code != 0:
        die("python -X importtime -c 'import crsbench.cli' failed")
    cumulative = {}
    for line in (run_dir / "importtime.err").read_text().splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
            cumulative[parts[2].strip()] = int(parts[1]) / 1e6
    return cumulative


def layer_metrics(t: dict, import_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    spans, c = t["spans"], t["counts"]

    def incl(name):
        return spans.get(name, {}).get("incl_s", 0.0)

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def per(total, count, scale=1e6):
        return total * scale / count if count else 0.0

    parse_s, encode_s = incl("cohort.parse"), incl("cohort.encode")
    mlp_s, steps = incl("models.train_mlp"), c.get("models.mlp_steps", 0)
    trial_s, trials = incl("protocol.trial"), c.get("protocol.trials", 0)
    reads = c.get("protocol.replay_reads", 0)
    parses = c.get("protocol.parses", 0)
    heur_s, cases = incl("heuristic.predict"), c.get("heuristic.cases", 0)
    retrieve_s = incl("rag.retrieve")
    m = {
        "cli.import_s": import_s,
        "cli.self_s": spans["cli.main"]["self_s"],
        "cli.invocations": calls("cli.main"),
        "schema.load_s": incl("schema.load"),
        "schema.loads": calls("schema.load"),
        "synthetic.generate_s": incl("synthetic.generate"),
        "cohort.serialize_s": incl("cohort.serialize"),
        "cohort.parse_s": parse_s,
        "cohort.parse_us_per_row": per(parse_s, c.get("cohort.rows_parsed", 0)),
        "cohort.rows_rejected": c.get("cohort.rows_rejected", 0),
        "cohort.split_s": incl("cohort.split"),
        "cohort.encode_s": encode_s,
        "cohort.encode_us_per_row": per(encode_s, c.get("cohort.rows_encoded", 0)),
        "cohort.leakage_guard_calls": c.get("cohort.leakage_guard_calls", 0),
        "models.train_logreg_s": incl("models.train_logreg"),
        "models.logreg_epochs": c.get("models.logreg_sigmoid_calls", 0) - c.get("models.logreg_fits", 0),
        "models.train_gnb_s": incl("models.train_gnb"),
        "models.train_mlp_s": mlp_s,
        "models.mlp_steps": steps,
        "models.mlp_us_per_step": per(mlp_s, steps),
        "models.mlp_useful_epoch_ratio": (statistics.fmean(t["mlp_useful_epoch_ratio"])
                                          if t["mlp_useful_epoch_ratio"] else 0.0),
        "models.clamp_events": c.get("models.clamp_events", 0),
        "models.predict_s": incl("models.predict"),
        "models.save_load_s": incl("models.save_load"),
        "heuristic.predict_s": heur_s,
        "heuristic.us_per_case": per(heur_s, cases),
        "protocol.trials": trials,
        "protocol.trial_s": trial_s,
        "protocol.us_per_trial": per(trial_s, trials),
        "protocol.replay_reads": reads,
        "protocol.replay_read_s": incl("protocol.replay_read"),
        "protocol.replay_read_useful_ratio": per(c.get("protocol.distinct_prompts", 0), reads, 1.0),
        "protocol.parse_ok_ratio": per(c.get("protocol.status.ok", 0), parses, 1.0),
        "protocol.tie_broken_by_proxy": c.get("protocol.flag.tie_broken_by_proxy", 0),
        "protocol.residual_tie": c.get("protocol.flag.residual_tie", 0),
        "protocol.unparseable": c.get("protocol.flag.unparseable", 0),
        "protocol.audit_append_s": incl("protocol.audit_append"),
        "rag.index_build_s": incl("rag.index_build"),
        "rag.retrieve_s": retrieve_s,
        "rag.us_per_query": per(retrieve_s, c.get("rag.queries", 0)),
        "metrics.evaluate_continuous_s": incl("metrics.evaluate_continuous"),
        "metrics.evaluate_tied_s": incl("metrics.evaluate_tied"),
        "metrics.curve_points": c.get("metrics.curve_points", 0),
        "metrics.compare_s": incl("metrics.compare"),
        "metrics.bootstrap_resamples": c.get("metrics.bootstrap_resamples", 0),
        "metrics.bootstrap_redraws": c.get("metrics.bootstrap_redraws", 0),
        "metrics.importance_s": incl("metrics.importance"),
        "metrics.write_s": incl("metrics.write"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = t["layers_self_s"].get(layer, 0.0)
    return m


def growth(big: dict, small: dict, n_big: int, n_small: int) -> tuple[dict[str, float], list[str]]:
    """Self-time growth exponent of each stage between two input sizes, and
    the stages that grow faster than n log n."""
    size_ratio = n_big / n_small
    nlogn = math.log(size_ratio * math.log(n_big) / math.log(n_small)) / math.log(size_ratio)
    exps, flagged = {}, []
    for metric, span in GROWTH_STAGES:
        a = big["spans"].get(span, {}).get("self_s", 0.0)
        b = small["spans"].get(span, {}).get("self_s", 0.0)
        exps[f"growth.{metric}"] = math.log(a / b) / math.log(size_ratio) if a > 0 and b > 0 else 0.0
        if exps[f"growth.{metric}"] > nlogn:
            flagged.append(span)
    return exps, flagged


def traced(wl, seed: int, seconds: float, run_dir: Path, deadline: float, checks, ledger: Ledger,
           probe_inputs) -> tuple[dict, dict]:
    x = wl.make_inputs(run_dir / "in", wl.program_seed(seed))
    invocations = wl.invocations(x, seed)
    argvs = [list(inv.argv) for inv in invocations]
    probe = None
    if probe_inputs is not None:
        probe = probe_inputs(run_dir / "probe_in", x.seed)
    breakdown = import_breakdown(run_dir)

    samples, flagged_sets, start = [], [], perf()
    while True:
        pair_start = perf()
        untraced_dir = fresh_dir(run_dir / "pass_untraced")
        traced_dir = fresh_dir(run_dir / "pass_traced")
        passes = [{"label": "main", "dir": str(traced_dir), "argv": argvs,
                   "spans_out": str(WORK / "results" / f"{wl.name}-spans.json")}]
        if probe is not None:
            probe_dir = fresh_dir(run_dir / "pass_probe")
            passes.append({"label": "probe", "dir": str(probe_dir),
                           "argv": [list(inv.argv) for inv in wl.invocations(probe, seed)]})
        children = [
            ("untraced", {"trace": False, "passes": [
                {"label": "main", "dir": str(untraced_dir), "argv": argvs}]}),
            ("traced", {"trace": True, "passes": passes}),
        ]
        # Alternate which child runs first, so that neither always meets a
        # cold page cache or a warmed one.
        if len(samples) % 2:
            children.reverse()
        results = {tag: run_child(plan, run_dir, tag, deadline) for tag, plan in children}
        plain, traced_result = results["untraced"], results["traced"]
        if plain is None or traced_result is None:
            ledger.record(["in-process replay child failed; see its .err file"])
            break
        for child, pass_dir in ((plain, untraced_dir), (traced_result, traced_dir)):
            for inv, code in zip(invocations, child["passes"][0]["exit_codes"]):
                ledger.record(checks.check_safely(inv, code, pass_dir, x))
        main = traced_result["passes"][0]
        untraced_wall = plain["import_s"] + sum(plain["passes"][0]["walls"])
        traced_wall = traced_result["import_s"] + sum(main["walls"])
        m = layer_metrics(main["trace"], traced_result["import_s"])
        m["cli.artifact_bytes"] = tree_bytes(traced_dir) - tree_bytes(traced_dir, "invocation*")
        m["protocol.audit_bytes"] = tree_bytes(traced_dir, "*audit*.jsonl")
        m["metrics.import_s"] = breakdown.get("crsbench.metrics", 0.0)
        accounted = m["cli.import_s"] + m["cli.self_s"] + sum(m[f"{layer}.self_s"] for layer in LAYERS)
        m["trace.wall_s"] = traced_wall
        m["trace.untraced_wall_s"] = untraced_wall
        m["trace.overhead_s"] = traced_wall - untraced_wall
        m["trace.accounted_ratio"] = accounted / traced_wall
        exps, flagged = ({}, [])
        if probe is not None:
            probe_pass = traced_result["passes"][1]
            for inv, code in zip(wl.invocations(probe, seed), probe_pass["exit_codes"]):
                ledger.record(checks.check_safely(inv, code, probe_dir, probe))
            exps, flagged = growth(main["trace"], probe_pass["trace"],
                                   x.n_valid_rows, probe.n_valid_rows)
        m.update(exps or {f"growth.{metric}": 0.0 for metric, _ in GROWTH_STAGES})
        m["growth.superlinear_stages"] = len(flagged)
        flagged_sets.append(flagged)
        samples.append(m)
        pair_s = perf() - pair_start
        if perf() - start + pair_s > seconds or perf() + 1.5 * pair_s > deadline:
            break
    if not samples:
        die("the traced run produced no sample")
    metrics = {k: statistics.median(s[k] for s in samples) for k in samples[0]}
    meta = {
        "pairs": len(samples),
        "program_seed": x.seed,
        "import_cumulative_s": {k: breakdown[k] for k in
                                ("crsbench.cli", "crsbench.metrics", "scipy.stats", "numpy")
                                if k in breakdown},
        "growth_superlinear": flagged_sets[-1],
        "artifact_digest": checks.artifact_digest(run_dir / "pass_traced"),
        # Tracing must not change what the program writes.
        "digest_matches_untraced": (checks.artifact_digest(run_dir / "pass_traced")
                                    == checks.artifact_digest(run_dir / "pass_untraced")),
        "unwrapped": main["trace"]["missing"],
    }
    return metrics, meta


# -- entry point ---------------------------------------------------------------


def main() -> None:
    started = perf()
    # Turn SIGTERM into SystemExit, so that spawn() kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        die("--seed must be >= 0")
    if not (SRC / "crsbench" / "cli.py").is_file():
        die(f"no crsbench package under {SRC}; run from a checkout of the repository")

    sys.path[:0] = [str(SRC), str(BENCH)]
    import checks
    from workloads import WORKLOADS, scale_inputs

    if args.workload not in WORKLOADS:
        die(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    env = environment()
    run_dir = fresh_dir(WORK / f"{wl.name}-seed{args.seed}-trace{args.trace}")
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    deadline = started + RUN_LIMIT_S
    ledger = Ledger()
    try:
        if args.trace:
            probe = (lambda d, s: scale_inputs(d, s, n=5_000)) if wl.name == "scale_50k" else None
            metrics, meta = traced(wl, args.seed, args.seconds, run_dir, deadline, checks, ledger, probe)
        else:
            metrics, meta = untraced(wl, args.seed, args.seconds, run_dir, deadline, checks, ledger)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    units = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = units["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {d["name"]: {"value": metrics[d["name"]], "unit": d["unit"]} for d in declared},
    }
    record = {"workload": wl.name, "seed": args.seed, "trace": args.trace, "environment": env,
              **meta, "problems": ledger.problems, "result": result}
    (WORK / "results" / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    for problem in ledger.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({k: v for k, v in record.items() if k != "result"}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()

"""The three workloads: which inputs each one generates and which CLI
invocations it runs on them, in order.

Every workload is closed-loop: one invocation at a time, each starting when
the previous one has exited. Paths in the argument lists are relative to the
pass directory the invocations run in; inputs sit in a sibling directory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import inputs as inp
from inputs import Inputs


@dataclass(frozen=True)
class Invocation:
    kind: str  # run | genai | compare | importance | report
    argv: tuple[str, ...]
    # What the output checks need to know: prediction files with the model id
    # whose planted store they replay (None for trained or rule models), and
    # the audit log each replayed model appends to.
    predictions: dict[str, str | None] = field(default_factory=dict)
    audit: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    # --seed -> the program seed the inputs are generated from
    program_seed: Callable[[int], int]
    make_inputs: Callable[[Path, int], Inputs]
    # (inputs, --seed) -> the invocations of one pass
    invocations: Callable[[Inputs, int], list[Invocation]]


def _run_predictions(models: list[str], replayed: tuple[str, ...] = ()) -> dict[str, str | None]:
    names = [m.split(":", 1)[1] if m.startswith("replay:") else m for m in models]
    return {f"run/{n}_predictions.json": (n if n in replayed else None) for n in names}


PAPER_MODELS = ["logreg", "gnb", "mlp", "heuristic", f"replay:{inp.REPLAY_MODEL}"]


def _paper_cli_inputs(directory: Path, seed: int) -> Inputs:
    return inp.synthetic_run(directory, seed, 524, PAPER_MODELS, "focal",
                             with_replay=True, with_rag=True)


def _paper_cli_invocations(x: Inputs, seed: int) -> list[Invocation]:
    d, s = x.directory.name, str(x.seed)
    return [
        Invocation("run", ("run", "--config", f"../{d}/config.json"),
                   predictions=_run_predictions(PAPER_MODELS, (inp.REPLAY_MODEL,)),
                   audit={inp.REPLAY_MODEL: "run/audit.jsonl"}),
        Invocation("genai", ("genai", "--replay-store", f"../{d}/store", "--cohort", "run/cohort.csv",
                             "--model-id", inp.RAG_MODEL, "--k", str(inp.K), "--rag",
                             "--audit-log", "genai_audit.jsonl", "--seed", s,
                             "--out", "genai_predictions.json"),
                   predictions={"genai_predictions.json": inp.RAG_MODEL},
                   audit={inp.RAG_MODEL: "genai_audit.jsonl"}),
        Invocation("compare", ("compare", "--pred-a", "run/mlp_predictions.json",
                               "--pred-b", f"run/{inp.REPLAY_MODEL}_predictions.json",
                               "--seed", s, "--out", "compare.json")),
        Invocation("importance", ("importance", "--model-file", "run/mlp_model.json",
                                  "--cohort", "run/cohort.csv", "--seed", s,
                                  "--out", "importance.json")),
        Invocation("report", ("report", "--run-dir", "run")),
    ]


TRAIN_MODELS = ["logreg", "gnb", "mlp", "heuristic"]
# MLP early stopping makes the amount of training a property of the program
# seed: at n=5000 it ranged from 35 to 155 epochs over the seeds tried, moving
# the pass time by 2x. train_5k therefore runs the same cohort for every
# --seed (program seed 0, not chosen by its epoch count), and --seed drives
# the compare bootstrap only.
TRAIN_PROGRAM_SEED = 0


def _train_5k_inputs(directory: Path, seed: int) -> Inputs:
    return inp.synthetic_run(directory, seed, 5000, TRAIN_MODELS, "weighted",
                             with_replay=False, with_rag=False)


def _train_5k_invocations(x: Inputs, seed: int) -> list[Invocation]:
    d = x.directory.name
    return [
        Invocation("run", ("run", "--config", f"../{d}/config.json"),
                   predictions=_run_predictions(TRAIN_MODELS)),
        Invocation("compare", ("compare", "--pred-a", "run/mlp_predictions.json",
                               "--pred-b", "run/logreg_predictions.json",
                               "--seed", str(seed), "--out", "compare.json")),
    ]


SCALE_MODELS = ["logreg", "gnb", "heuristic", f"replay:{inp.REPLAY_MODEL}"]


def scale_inputs(directory: Path, seed: int, n: int = 50_000) -> Inputs:
    return inp.csv_run(directory, seed, n, SCALE_MODELS)


def scale_invocations(x: Inputs, seed: int) -> list[Invocation]:
    return [
        Invocation("run", ("run", "--config", f"../{x.directory.name}/config.json"),
                   predictions=_run_predictions(SCALE_MODELS, (inp.REPLAY_MODEL,)),
                   audit={inp.REPLAY_MODEL: "run/audit.jsonl"}),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        # Why each workload exists is recorded in BENCHMARK.json.
        Workload("paper_cli", lambda seed: seed, _paper_cli_inputs, _paper_cli_invocations),
        Workload("train_5k", lambda seed: TRAIN_PROGRAM_SEED, _train_5k_inputs, _train_5k_invocations),
        Workload("scale_50k", lambda seed: seed, scale_inputs, scale_invocations),
    )
}

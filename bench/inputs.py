"""Seeded benchmark inputs and the expectations the outputs are checked against.

Everything here runs before and outside the timed region. A workload input is
a directory holding a ``run`` config, and where the workload needs them a
cohort CSV and a replay store planted with a seeded mix of model responses.
For every planted case the benchmark keeps the replicate statuses, votes and
confidences it wrote, so it can count the votes itself (see ``expected``).
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from crsbench.cohort import label_records, serialize_cohort, stratified_split
from crsbench.protocol import build_prompt, load_prompt_template, serialize_case
from crsbench.rag import Bm25Index, load_corpus
from crsbench.schema import load_schema
from crsbench.synthetic import GeneratorConfig, generate_synthetic

TEST_FRACTION = 0.2
K = 5
REPLAY_MODEL = "sim-llm"
RAG_MODEL = "sim-llm-rag"

# The closed five-level confidence vocabulary and its proxy values, written
# out here so the oracle does not borrow the program's own table.
LEVELS = (
    ("very confident", 1.0),
    ("somewhat confident", 0.75),
    ("neutral", 0.5),
    ("somewhat unsure", 0.25),
    ("not at all confident", 0.0),
)

# Per-case response mix: (kind, probability). Together the kinds make every
# parser status and every aggregate flag occur.
MIX = (
    ("unanimous", 0.35),
    ("split_3_2", 0.20),
    ("majority_with_invalid", 0.10),
    ("tie_broken_by_proxy", 0.15),
    ("residual_tie", 0.10),
    ("single_valid", 0.05),
    ("unparseable", 0.05),
)
INVALID_KINDS = ("malformed", "missing_prediction", "missing_confidence")


@dataclass(frozen=True)
class Replicate:
    status: str  # "ok" or one of INVALID_KINDS
    prediction: int | None
    level: int | None  # index into LEVELS
    text: str


@dataclass
class Inputs:
    """One seeded input set: where it lives and what its outputs must be."""

    seed: int
    directory: Path
    n_valid_rows: int
    test_size: int
    # model id -> case id -> planted replicates
    planted: dict[str, dict[str, list[Replicate]]] = field(default_factory=dict)


def test_size(n_valid_rows: int) -> int:
    return int(round(n_valid_rows * TEST_FRACTION))


def _render_ok(rng, prediction: int, level: int) -> str:
    name = LEVELS[level][0]
    style = int(rng.integers(3))
    if style == 0:
        return f"PREDICTION: {prediction}\nCONFIDENCE: {name}"
    if style == 1:
        return f"Sure!\nprediction : {prediction}.\nConfidence:   {name.upper().replace(' ', '   ')}"
    return f"Prediction: {prediction}\nConfidence: {name.title()}\nRationale: baseline burden."


def _render_invalid(rng, kind: str) -> tuple[int | None, str]:
    if kind == "malformed":
        return None, "PREDICTION: maybe\nCONFIDENCE: neutral"
    if kind == "missing_prediction":
        return None, "I cannot assess this case.\nCONFIDENCE: neutral"
    prediction = int(rng.integers(2))
    if rng.integers(2):
        return prediction, f"PREDICTION: {prediction}\nCONFIDENCE: extremely sure"
    return prediction, f"PREDICTION: {prediction}"


def _valid_levels(rng, kind: str) -> list[tuple[int, int]]:
    """(prediction, level) pairs for the valid replicates of one case."""
    label = int(rng.integers(2))
    draw = lambda: int(rng.integers(len(LEVELS)))  # noqa: E731
    if kind == "unanimous":
        return [(label, draw()) for _ in range(K)]
    if kind == "split_3_2":
        return [(label, draw()) for _ in range(3)] + [(1 - label, draw()) for _ in range(2)]
    if kind == "majority_with_invalid":
        return [(label, draw()), (label, draw()), (1 - label, draw())]
    if kind == "tie_broken_by_proxy":
        while True:
            ones, zeros = [draw(), draw()], [draw(), draw()]
            if sum(LEVELS[i][1] for i in ones) != sum(LEVELS[i][1] for i in zeros):
                return [(1, i) for i in ones] + [(0, i) for i in zeros]
    if kind == "residual_tie":
        ones = [draw(), draw()]
        return [(1, i) for i in ones] + [(0, i) for i in reversed(ones)]
    if kind == "single_valid":
        return [(label, draw())]
    return []


def plant_case(rng) -> list[Replicate]:
    kinds, probs = zip(*MIX)
    kind = kinds[int(rng.choice(len(kinds), p=probs))]
    reps = [
        Replicate("ok", pred, level, _render_ok(rng, pred, level))
        for pred, level in _valid_levels(rng, kind)
    ]
    while len(reps) < K:
        bad = INVALID_KINDS[int(rng.integers(len(INVALID_KINDS)))]
        pred, text = _render_invalid(rng, bad)
        reps.append(Replicate(bad, pred, None, text))
    return [reps[i] for i in rng.permutation(K)]


def expected(replicates: list[Replicate]) -> tuple[int, float, str | None]:
    """Vote count for one planted case: (hard label, score, flag).

    Majority over valid replicates; a tie breaks on the sign of the mean
    signed confidence; a residual tie or no valid replicate defaults to 0.
    The score is the mean signed confidence, 0.0 when nothing parsed.
    """
    valid = [r for r in replicates if r.status == "ok"]
    if not valid:
        return 0, 0.0, "unparseable"
    votes1 = sum(r.prediction for r in valid)
    votes0 = len(valid) - votes1
    signed = (LEVELS[r.level][1] if r.prediction == 1 else -LEVELS[r.level][1] for r in valid)
    mean = sum(signed) / len(valid)
    if votes1 != votes0:
        return int(votes1 > votes0), mean, None
    if mean != 0:
        return int(mean > 0), mean, "tie_broken_by_proxy"
    return 0, mean, "residual_tie"


def _plant_store(store: Path, test_records, schema, seed: int,
                 rag_index: Bm25Index | None = None) -> dict[str, list[Replicate]]:
    """Write one replay entry per test case, keyed by the hash of its prompt."""
    store.mkdir(parents=True, exist_ok=True)
    template = load_prompt_template()
    rng = np.random.default_rng([seed, int(rag_index is not None)])
    planted = {}
    for rec in test_records:
        case = serialize_case(rec, schema)
        passages = rag_index.retrieve(case, k=K)[0] if rag_index is not None else None
        _, prompt_hash = build_prompt([case], template, passages)
        reps = plant_case(rng)
        (store / f"{prompt_hash}.json").write_text(
            json.dumps({"responses": [r.text for r in reps]}), encoding="utf-8"
        )
        planted[rec.patient_id] = reps
    return planted


def _test_records(records, seed: int):
    labeled, _, _ = label_records(records)
    split = stratified_split(labeled, TEST_FRACTION, seed)
    by_id = {r.patient_id: r for r in labeled}
    return [by_id[i] for i in sorted(split.test_ids)]


def _rejected_rows(csv_bytes: bytes, n_bad: int, rng) -> list[list[str]]:
    """Copies of real rows, each broken so that the parser must reject it."""
    rows = list(csv.reader(io.StringIO(csv_bytes.decode("utf-8"))))
    header, body = rows[0], rows[1:]
    col = {name: i for i, name in enumerate(header)}
    bad = []
    for j in range(n_bad):
        row = list(body[int(rng.integers(len(body)))])
        row[col["PATIENT_ID"]] = f"reject_{j:05d}"
        kind = j % 3
        if kind == 0:
            row[col["SNOT22_BLN_TOTAL"]] = "NA"  # placeholder in a required field
        elif kind == 1:
            row[col["BLN_CT_TOTAL"]] = "31"  # above the schema maximum
        else:
            row[col["Age"]] = "17"  # rejected by the record invariant
        bad.append(row)
    return bad


def synthetic_run(directory: Path, seed: int, n: int, models: list[str], loss: str,
                  with_replay: bool, with_rag: bool) -> Inputs:
    """A ``run`` config that makes the program synthesize its own cohort.

    The benchmark generates the same cohort itself, only to find the test
    split and plant the replay store for it.
    """
    directory.mkdir(parents=True)
    config = {"seed": seed, "out_dir": "run", "synthetic": {"n": n}, "models": models,
              "loss": loss, "k": K}
    inputs = Inputs(seed, directory, n, test_size(n))
    if with_replay or with_rag:
        schema = load_schema()
        test = _test_records(generate_synthetic(n, seed, GeneratorConfig()), seed)
        store = directory / "store"
        config["replay"] = {"store": f"../{directory.name}/store"}
        if with_replay:
            inputs.planted[REPLAY_MODEL] = _plant_store(store, test, schema, seed)
        if with_rag:
            index = Bm25Index(load_corpus())
            inputs.planted[RAG_MODEL] = _plant_store(store, test, schema, seed, index)
    (directory / "config.json").write_text(json.dumps(config, indent=1), encoding="utf-8")
    return inputs


def csv_run(directory: Path, seed: int, n: int, models: list[str]) -> Inputs:
    """A cohort CSV of ``n`` valid rows plus n/1000 rows the parser rejects,
    a replay store for its test split, and a ``run`` config that reads both."""
    directory.mkdir(parents=True)
    schema = load_schema()
    records = generate_synthetic(n, seed, GeneratorConfig())
    body = serialize_cohort(records, schema)
    rng = np.random.default_rng([seed, n])
    bad = _rejected_rows(body, max(1, n // 1000), rng)
    lines = body.decode("utf-8").splitlines(keepends=True)
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(bad)
    bad_lines = buf.getvalue().splitlines(keepends=True)
    for line, pos in zip(bad_lines, sorted(rng.integers(1, len(lines), size=len(bad_lines)),
                                           reverse=True)):
        lines.insert(int(pos), line)
    (directory / "cohort.csv").write_text("".join(lines), encoding="utf-8")

    inputs = Inputs(seed, directory, n, test_size(n))
    test = _test_records(records, seed)
    inputs.planted[REPLAY_MODEL] = _plant_store(directory / "store", test, schema, seed)
    config = {"seed": seed, "out_dir": "run", "cohort_csv": f"../{directory.name}/cohort.csv",
              "models": models, "k": K, "replay": {"store": f"../{directory.name}/store"}}
    (directory / "config.json").write_text(json.dumps(config, indent=1), encoding="utf-8")
    return inputs

"""Operator surface: configuration, orchestration, and artifacts via ``jsondoc.replacing``.

Subcommands: synth, preprocess, train, predict, genai, rag-build, evaluate,
compare, importance, report, run. Exit codes: 0 success, 2 validation error,
3 leakage violation, 4 replay miss, 5 numeric failure.
"""

from __future__ import annotations

import argparse
import csv as csv_mod
import functools
import hashlib
import json
import re
import sys
from collections import namedtuple
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .cohort import (
    CohortError,
    CohortSplit,
    CohortTable,
    LeakageError,
    RejectionReport,
    Scaler,
    encode_matrix,
    fit_scaler,
    parse_cohort,
    serialize_cohort,
    stratified_split,
)
from .heuristic import rule_chain
from .jsondoc import (checked, described, integer, list_of, load_json, nullable, number, obj,
                      replacing, string, write_json)
from .metrics import (
    MetricError,
    PredictionSet,
    compare as compare_sets,
    evaluate,
    permutation_importance,
    write_curve_csvs,
    write_report_json,
)
from .models import (
    DivergenceError,
    LossConfig,
    ModelError,
    inverse_prevalence_weights,
    load_model,
    predict_hard,
    predict_proba,
    save_model,
    train_gnb,
    train_logreg,
    train_mlp,
)
from .protocol import (
    AuditLog,
    DecodingParams,
    ModelIdentity,
    ProtocolError,
    ReplayClient,
    ReplayMissError,
    case_blocks,
    load_prompt_template,
    run_trial,
)
from .rag import Bm25Index, RagError, load_corpus
from .schema import SchemaError, load_schema
from .synthetic import synthetic_table

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_LEAKAGE = 3
EXIT_REPLAY_MISS = 4
EXIT_NUMERIC = 5

# The most rows a synthetic cohort may have (synth --n, a run config's
# synthetic.n) and the most importance --repeats. A synthetic run of logreg,
# gnb and heuristic peaked at 84 MB resident with 50,000 rows and 128 MB with
# 100,000, about 0.9 MB per 1,000 rows, so the row bound is near 1 GB.
MAX_ROWS = 1_000_000
MAX_REPEATS = 10_000


class CliError(ValueError):
    """Usage/validation failure; maps to exit code 2."""


def _read_cohort(cohort_path: Path, schema):
    """Read a cohort CSV once and parse it; ``parse_cohort`` guards its header.

    Returns the SHA-256 of the file's bytes, the parsed table and the
    rejection report. A missing or unreadable path and an empty, non-UTF-8,
    malformed or record-less CSV file are validation errors.
    """
    try:
        data = cohort_path.read_bytes()
    except OSError as exc:
        raise CliError(f"cannot read {cohort_path}: {exc.strerror}") from None
    if not data or data.isspace():
        raise CliError(f"{cohort_path} is empty")
    try:
        table, report = parse_cohort(data, schema)
    except UnicodeDecodeError as exc:
        raise CliError(f"{cohort_path} is not UTF-8 text (byte {exc.start})") from None
    except csv_mod.Error as exc:
        raise CliError(f"{cohort_path} is not a readable CSV: {exc}") from None
    if not len(table):
        raise CliError(f"no valid records in {cohort_path}")
    return hashlib.sha256(data).hexdigest(), table, report


class _Cohort(NamedTuple):
    """A cohort read, labeled, split, scaled and encoded; test rows in case-id order."""

    checksum: str
    rejection: RejectionReport
    unlabeled: list[str]
    split: CohortSplit
    scaler: Scaler
    test: CohortTable
    X_train: np.ndarray
    X_test: np.ndarray
    y_train: np.ndarray
    y_test: np.ndarray
    case_ids: list[str]


def _prepare_cohort(path: Path, schema, test_fraction: float, seed: int) -> _Cohort:
    """The one data path every subcommand uses: the scaler is fit on the
    training rows only, and both splits are encoded with it."""
    checksum, table, rejection = _read_cohort(path, schema)
    unlabeled = table.outcome_missing
    labeled = table.take(~unlabeled) if unlabeled.any() else table
    split = stratified_split(labeled, test_fraction, seed)
    labels = labeled.labels()
    train, test = labeled.take(split.train_rows), labeled.take(split.test_rows)
    scaler = fit_scaler(train, schema)
    return _Cohort(
        checksum, rejection, table.ids[unlabeled].tolist(), split, scaler, test,
        X_train=encode_matrix(train, schema, scaler),
        X_test=encode_matrix(test, schema, scaler),
        y_train=labels[split.train_rows],
        y_test=labels[split.test_rows],
        case_ids=test.ids.tolist(),
    )


def _replay_trials(test, schema, store, identity, params: DecodingParams, k, template,
                   audit_path, rag_index=None, rag_k=5):
    """Run one replayed trial per row of the test table; returns (scores, hard labels).

    ``store``, ``params`` and ``k`` were checked where they were read: by
    ``_RUN_CONFIG`` for ``run``, by the parser and ``main`` for ``genai``.
    A case with no parseable replicate scores 0.0. The audit log at
    ``audit_path``, if one is given, is opened here and closed when the
    trials end or fail, so it holds a line for each finished trial.
    """
    audit = AuditLog(audit_path) if audit_path else None
    scores, hard = [], []
    try:
        client = ReplayClient(store)
        for case_id, block in zip(test.ids.tolist(), case_blocks(test, schema)):
            passages = None
            if rag_index is not None:
                passages, _ = rag_index.retrieve(block, k=rag_k)
            agg = run_trial(
                client, case_id, block, identity, params, k=k,
                template=template, rag_passages=passages, audit_log=audit,
            ).aggregate
            scores.append(agg.mean_proxy if agg.mean_proxy is not None else 0.0)
            hard.append(agg.final_label)
    finally:
        if audit is not None:
            audit.close()
    return np.array(scores), np.array(hard)


# Encodes a list the way json.dumps(..., indent=1) lays out a list value of
# an object: one element per line, indented two spaces. The C encoder runs
# only without ``indent``, so the layout comes from the item separator.
_INDENTED_ITEMS = json.JSONEncoder(separators=(",\n  ", ": "))


def _indented_list(values: list) -> str:
    return f"[\n  {_INDENTED_ITEMS.encode(values)[1:-1]}\n ]" if values else "[]"


def _case_fields(case_ids, labels) -> dict[str, str]:
    """The ``case_ids`` and ``labels`` texts of a predictions document, which
    every model of one split shares."""
    return {"case_ids": _indented_list(list(case_ids)),
            "labels": _indented_list(np.asarray(labels).tolist())}


def _write_predictions(path: Path, name, cases: dict[str, str], scores, hard):
    """Write the predictions document byte for byte as ``json.dumps(doc, indent=1)``,
    with ``cases`` from ``_case_fields``."""
    fields = {
        "model_name": json.dumps(name),
        **cases,
        "scores": _indented_list(np.asarray(scores, dtype=float).tolist()),
        "hard_labels": _indented_list(np.asarray(hard).tolist()),
    }
    body = ",\n".join(f" {json.dumps(key)}: {value}" for key, value in fields.items())
    with replacing(path) as fh:
        fh.write(f"{{\n{body}\n}}")


_PREDICTIONS = obj({"model_name": string(), "case_ids": list_of(string()), "labels": list_of(integer()),
                    "scores": list_of(number()), "hard_labels": list_of(integer())})


def _read_predictions(path: Path) -> tuple[str, PredictionSet]:
    doc = load_json(path.read_bytes(), _PREDICTIONS, CliError, path)
    try:
        return doc["model_name"], PredictionSet(tuple(doc["case_ids"]), np.array(doc["labels"]),
                                                np.array(doc["scores"]), np.array(doc["hard_labels"]))
    except (MetricError, OverflowError) as exc:  # OverflowError: an integer score past float range
        raise CliError(f"{path}: {exc}") from exc


def _report_markdown(report) -> str:
    m = report.metrics
    lines = [
        f"# Evaluation: {report.model_name}",
        "",
        f"Confusion matrix [tn, fp; fn, tp]: [{report.cm.tn}, {report.cm.fp}; "
        f"{report.cm.fn}, {report.cm.tp}] (n={report.cm.n})",
        "",
        "| metric | value |",
        "|---|---|",
        f"| accuracy | {m['accuracy']:.4f} |",
        f"| precision (class 0) | {m['precision0']:.4f} |",
        f"| recall (class 0) | {m['recall0']:.4f} |",
        f"| precision (class 1) | {m['precision1']:.4f} |",
        f"| recall (class 1) | {m['recall1']:.4f} |",
        f"| F1 (class 1) | {m['f1_pos']:.4f} |",
        f"| balanced accuracy | {m['balanced_accuracy']:.4f} |",
        f"| AUROC | {report.auroc:.4f} |",
        f"| average precision | {report.average_precision:.4f} |",
        f"| Brier | {report.brier:.4f} |",
    ]
    if report.calibration_on_rescaled_proxy:
        lines.append("")
        lines.append(
            "Calibration block computed on linearly rescaled proxy scores "
            "(hard-label model)."
        )
    if m["flags"]:
        lines.append("")
        lines.extend(f"- flag: {f}" for f in m["flags"])
    return "\n".join(lines) + "\n"


def _emit_report(pred_set: PredictionSet, name: str, out_dir: Path) -> None:
    report = evaluate(pred_set, model_name=name)
    write_report_json(report, out_dir / f"{name}_report.json")
    with replacing(out_dir / f"{name}_report.md") as fh:
        fh.write(_report_markdown(report))
    write_curve_csvs(report, out_dir / "curves")


# --------------------------------------------------------------------------
# subcommands


def cmd_synth(args) -> int:
    out = Path(args.out)
    if out.exists() and not args.force:
        raise CliError(f"{out} exists; pass --force to overwrite")
    schema = load_schema(args.schema)
    table = synthetic_table(args.n, args.seed)
    with replacing(out) as fh:
        fh.buffer.write(serialize_cohort(table, schema))
    labels = table.labels()
    prevalence = int(labels.sum()) / len(labels)
    print(f"wrote {len(table)} records to {out} (label prevalence {prevalence:.3f})")
    return EXIT_OK


def cmd_preprocess(args) -> int:
    schema = load_schema(args.schema)
    cohort = _prepare_cohort(Path(args.cohort), schema, args.test_fraction, args.seed)
    split, scaler, rejection = cohort.split, cohort.scaler, cohort.rejection
    out_dir = Path(args.out_dir)
    write_json(out_dir / "split.json", {
        "seed": split.seed,
        "train_ids": sorted(split.train_ids),
        "test_ids": sorted(split.test_ids),
        "label_prevalence_train": split.label_prevalence_train,
        "label_prevalence_test": split.label_prevalence_test,
    })
    write_json(out_dir / "scaler.json", {**scaler._asdict(), "state_id": scaler.state_id})
    write_json(out_dir / "rejections.json", {
        "rows_total": rejection.rows_total,
        "accepted": rejection.accepted,
        "rejections": [{"row": r, "reason": why} for r, why in rejection.rejections],
        "unlabeled": cohort.unlabeled,
    })
    print(
        f"split: {len(split.train_ids)} train / {len(split.test_ids)} test, "
        f"prevalence {split.label_prevalence_train:.3f}/{split.label_prevalence_test:.3f}"
    )
    return EXIT_OK


def _train_one(kind, X, y, schema, seed, loss_kind):
    feature_names = schema.feature_order
    if kind == "logreg":
        return train_logreg(
            X, y, feature_names, class_weights=inverse_prevalence_weights(y),
            l2=1e-3, seed=seed, schema=schema,
        )
    if kind == "gnb":
        return train_gnb(X, y, feature_names, schema=schema)
    if loss_kind == "focal":  # kind == "mlp"
        p0 = float(np.mean(np.asarray(y) == 0))
        loss = LossConfig(kind="focal", gamma=2.0, alpha=1.0 - p0)
    else:
        loss = LossConfig(kind="weighted")
    return train_mlp(X, y, feature_names, loss=loss, seed=seed, schema=schema)


def cmd_train(args) -> int:
    schema = load_schema(args.schema)
    cohort = _prepare_cohort(Path(args.cohort), schema, args.test_fraction, args.seed)
    model = _train_one(args.model, cohort.X_train, cohort.y_train, schema, args.seed, args.loss)
    save_model(model, args.out)
    print(f"trained {args.model} on {len(cohort.y_train)} cases -> {args.out}")
    return EXIT_OK


def cmd_predict(args) -> int:
    schema = load_schema(args.schema)
    model = load_model(args.model_file, schema)
    cohort = _prepare_cohort(Path(args.cohort), schema, args.test_fraction, args.seed)
    scores = predict_proba(model, cohort.X_test)
    hard = (scores >= args.threshold).astype(int)
    _write_predictions(Path(args.out), model.kind, _case_fields(cohort.case_ids, cohort.y_test),
                       scores, hard)
    print(f"wrote {len(cohort.case_ids)} predictions to {args.out}")
    return EXIT_OK


def cmd_genai(args) -> int:
    schema = load_schema(args.schema)
    cohort = _prepare_cohort(Path(args.cohort), schema, args.test_fraction, args.seed)
    identity = ModelIdentity(args.vendor, args.model_id, args.access_date)
    template = load_prompt_template(args.template)
    rag_index = Bm25Index(load_corpus(args.corpus)) if args.rag else None
    scores, hard = _replay_trials(
        cohort.test, schema, args.replay_store, identity,
        DecodingParams(args.temperature, args.top_p), args.k, template, args.audit_log,
        rag_index=rag_index, rag_k=args.rag_k,
    )
    _write_predictions(Path(args.out), args.model_id, _case_fields(cohort.case_ids, cohort.y_test),
                       scores, hard)
    print(f"ran {len(cohort.case_ids)} replay trials -> {args.out}")
    return EXIT_OK


def cmd_rag_build(args) -> int:
    index = Bm25Index(load_corpus(args.corpus))
    print(
        f"indexed {index.n_docs} passages, vocabulary {len(index.postings)} terms, "
        f"avg length {index.avg_doc_length:.1f} tokens"
    )
    return EXIT_OK


def cmd_evaluate(args) -> int:
    name, pred_set = _read_predictions(Path(args.predictions))
    name = args.name or name
    if not _STEM.fullmatch(name):
        raise CliError(f"report name {name!r} must be {_STEM_RULE}")
    _emit_report(pred_set, name, Path(args.out_dir))
    print(f"evaluation written under {args.out_dir}")
    return EXIT_OK


def cmd_compare(args) -> int:
    name_a, pred_a = _read_predictions(Path(args.pred_a))
    name_b, pred_b = _read_predictions(Path(args.pred_b))
    if pred_a.case_ids != pred_b.case_ids:
        raise CliError(f"{args.pred_a} and {args.pred_b} must list the same case_ids in the same order")
    if not np.array_equal(pred_a.labels, pred_b.labels):
        raise CliError(f"{args.pred_a} and {args.pred_b} disagree on ground-truth labels")
    result = compare_sets(pred_a, pred_b, seed=args.seed)
    write_json(args.out, {"model_a": name_a, "model_b": name_b, **result})
    print(
        f"delong p={result['delong']['p_value']:.4f}, "
        f"mcnemar p={result['mcnemar']['p_value']:.4f} -> {args.out}"
    )
    return EXIT_OK


def cmd_importance(args) -> int:
    schema = load_schema(args.schema)
    model = load_model(args.model_file, schema)
    cohort = _prepare_cohort(Path(args.cohort), schema, args.test_fraction, args.seed)
    X, y = cohort.X_test, cohort.y_test
    predict_fn = functools.partial(predict_hard, model)
    rows = []
    for j, name in enumerate(schema.feature_order):
        res = permutation_importance(predict_fn, X, y, j, repeats=args.repeats, seed=args.seed + j)
        rows.append({"feature": name, **res})
    rows.sort(key=lambda r: -r["mean_delta_balanced_accuracy"])
    write_json(args.out, rows)
    print(f"permutation importance for {len(rows)} features -> {args.out}")
    return EXIT_OK


# The members of an evaluation report that ``report`` summarizes.
_REPORT = obj({"model_name": string(), "auroc": number(),
               "threshold_metrics": obj({"accuracy": number(), "balanced_accuracy": number()})})


def cmd_report(args) -> int:
    run_dir = Path(args.run_dir)
    manifest = run_dir / "manifest.json"
    if manifest.exists():  # a run's directory: only the reports of the run that wrote it
        rule = obj({"models": list_of(string())})
        names = load_json(manifest.read_bytes(), rule, CliError, manifest)["models"]
        reports = sorted(run_dir / "reports" / f"{name}_report.json" for name in names)
    elif any((run_dir / name).exists() for name in (".lock", "cohort.csv", "audit.jsonl")):
        raise CliError(f"unfinished run in {run_dir}: {manifest} is missing")
    else:  # reports that evaluate wrote
        reports = sorted(run_dir.glob("**/*_report.json"))
    if not reports:
        raise CliError(f"no *_report.json found under {run_dir}")
    lines = ["# Run summary", ""]
    for path in reports:
        doc = load_json(path.read_bytes(), _REPORT, CliError, path)
        m = doc["threshold_metrics"]
        lines.append(
            f"- {doc['model_name']}: accuracy {m['accuracy']:.3f}, "
            f"balanced accuracy {m['balanced_accuracy']:.3f}, AUROC {doc['auroc']:.3f}"
        )
    out = run_dir / "summary.md"
    with replacing(out) as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {out}")
    return EXIT_OK


_STEM = re.compile(r"(?!\.)[A-Za-z0-9_.-]+")
_STEM_RULE = "a file-name stem ([A-Za-z0-9_.-]+, not starting with '.')"


def _distinct_stems(specs: list[str]) -> bool:
    """Whether the output names of model specs, the spec or the id after
    ``replay:``, are distinct file-name stems."""
    names = [spec.removeprefix("replay:") for spec in specs
             if spec in ("logreg", "gnb", "mlp", "heuristic") or spec.startswith("replay:")]
    return len(set(names)) == len(names) == len(specs) and all(map(_STEM.fullmatch, names))


_NAME = string(lambda v: v != "" and v.isprintable(), "a non-empty printable string")
_PATH = nullable(_NAME)

# The keys of a run config's decoding object. genai's --temperature and
# --top-p go through the same rules.
_DECODING = {
    "temperature": number(lambda v: 0 <= v <= 2, "a number in [0, 2]"),  # NaN fails every bound
    "top_p": number(lambda v: 0 <= v <= 1, "a number in [0, 1]"),
    "max_tokens": integer(1),
    "seed": nullable(integer(0)),
}

# Every key of a run config and the rule that checks it and returns the
# value RunConfig holds; the keys of an object value are reported as the
# object's. README's run-config table lists the same keys.
_RUN_CONFIG_KEYS = {
    "seed": integer(0, "a non-negative integer"),  # required: there is no wall-clock default
    "out_dir": _NAME,
    "schema": _PATH,
    "cohort_csv": _PATH,
    "synthetic": described(f"an object whose n is an integer in [1, {MAX_ROWS}]",
                           obj({"n": integer(1, hi=MAX_ROWS)}, closed=True, n=524)),
    "models": described("a list of 'logreg', 'gnb', 'mlp', 'heuristic' or 'replay:<id>' strings "
                        f"with distinct output names, each <id> {_STEM_RULE}",
                        list_of(string()), _distinct_stems),
    "threshold": number(lambda v: 0 <= v <= 1, "a number in [0, 1]"),
    "loss": string(lambda v: v in ("weighted", "focal"), "'weighted' or 'focal'"),
    "test_fraction": number(lambda v: 0 < v < 1, "a number in (0, 1)"),
    "k": integer(1, ">= 1"),
    "decoding": described("an object with some of "
                          + ", ".join(f"{key} ({rule.what})" for key, rule in _DECODING.items()),
                          obj(_DECODING, build=DecodingParams, closed=True,
                              **DecodingParams._field_defaults)),
    "template": _PATH,
    "replay": described(f"an object with some of store ({_PATH.what}), vendor and access_date",
                        obj({"store": _PATH, "vendor": _NAME, "access_date": _NAME}, closed=True,
                            store=None, vendor="replay", access_date="1970-01-01")),
}
RunConfig = namedtuple("RunConfig", _RUN_CONFIG_KEYS)
_RUN_CONFIG = obj(_RUN_CONFIG_KEYS, build=RunConfig, closed=True, out_dir="run", schema=None,
                  cohort_csv=None, synthetic={}, models=["mlp", "heuristic"], threshold=0.5,
                  loss="weighted", test_fraction=0.2, k=5, decoding={}, template=None, replay={})
# The numeric subcommand flags, checked before any command runs; those named
# after run-config or decoding keys share their rules.
_FLAG_RULES = {**{key: _RUN_CONFIG_KEYS[key] for key in ("seed", "threshold", "test_fraction", "k")},
               **{key: _DECODING[key] for key in ("temperature", "top_p")},
               "n": integer(1, hi=MAX_ROWS), "repeats": integer(1, hi=MAX_REPEATS),
               "rag_k": integer(1)}


def cmd_run(args) -> int:
    import fcntl

    cfg = load_json(Path(args.config).read_bytes(), _RUN_CONFIG, CliError, "config")
    if cfg.replay["store"] is None and any(spec.startswith("replay:") for spec in cfg.models):
        raise CliError("replay models need a replay store (config key replay.store)")
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    # The kernel drops the flock when the run ends, however it ends. The file
    # stays: unlinking it would let one run lock the orphaned inode while
    # another creates and locks a fresh file under the same name.
    with open(out_dir / ".lock", "ab") as lock:
        try:
            fcntl.flock(lock.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise CliError(f"run directory {out_dir} is locked by another run") from None
        return _run_pipeline(cfg, out_dir)


def _run_pipeline(cfg: RunConfig, out_dir) -> int:
    seed = cfg.seed
    schema = load_schema(cfg.schema)
    # each run starts its own log, and a manifest is left only by a finished run
    audit_path = out_dir / "audit.jsonl"
    audit_path.unlink(missing_ok=True)
    (out_dir / "manifest.json").unlink(missing_ok=True)

    if cfg.cohort_csv is not None:
        cohort_path = Path(cfg.cohort_csv)
    else:
        cohort_path = out_dir / "cohort.csv"
        with replacing(cohort_path) as fh:
            fh.buffer.write(serialize_cohort(synthetic_table(cfg.synthetic["n"], seed), schema))

    cohort = _prepare_cohort(cohort_path, schema, cfg.test_fraction, seed)
    test, y_test, case_ids, split = cohort.test, cohort.y_test, cohort.case_ids, cohort.split

    reports_dir = out_dir / "reports"
    cases = _case_fields(case_ids, y_test)
    names = [spec.removeprefix("replay:") for spec in cfg.models]
    for spec, name in zip(cfg.models, names):
        if spec in ("logreg", "gnb", "mlp"):
            model = _train_one(spec, cohort.X_train, cohort.y_train, schema, seed, cfg.loss)
            save_model(model, out_dir / f"{spec}_model.json")
            scores = predict_proba(model, cohort.X_test)
            hard = (scores >= cfg.threshold).astype(int)
        elif spec == "heuristic":
            chain = rule_chain(test.columns)
            scores, hard = chain.proxy_scores(), chain.label
            with replacing(out_dir / "heuristic_traces.jsonl") as fh:
                fh.writelines(chain.trace_lines(case_ids))
        else:  # replay:<id>
            identity = ModelIdentity(cfg.replay["vendor"], name, cfg.replay["access_date"])
            scores, hard = _replay_trials(
                test, schema, cfg.replay["store"], identity, cfg.decoding, cfg.k,
                load_prompt_template(cfg.template), audit_path,
            )
        _write_predictions(out_dir / f"{name}_predictions.json", name, cases, scores, hard)
        _emit_report(
            PredictionSet(tuple(case_ids), y_test, np.asarray(scores), np.asarray(hard)),
            name, reports_dir,
        )

    write_json(out_dir / "manifest.json", {
        "crsbench_version": __version__,
        "seed": seed,
        "test_fraction": cfg.test_fraction,
        "cohort_csv": str(cohort_path),
        "cohort_checksum": cohort.checksum,
        "schema_version": schema.version,
        "schema_checksum": schema.checksum,
        "scaler_state_id": cohort.scaler.state_id,
        "n_records": cohort.rejection.accepted,
        "rejections": cohort.rejection.rejected,
        "split": {
            "train": len(split.train_ids),
            "test": len(split.test_ids),
            "prevalence_train": split.label_prevalence_train,
            "prevalence_test": split.label_prevalence_test,
        },
        "models": names,
    })
    print(f"run complete: {', '.join(names)} -> {out_dir}")
    return EXIT_OK


# --------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="crsbench")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, cohort=False, out=False):
        # whole flag names only: a stray "--mode" is not "--model-id"
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        p.set_defaults(func=func)
        if cohort:  # the flags of the one data path, _prepare_cohort
            p.add_argument("--cohort", required=True)
            p.add_argument("--schema", default=None, help="schema file (packaged default)")
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--test-fraction", type=float, default=0.2)
        if out:
            p.add_argument("--out", required=True)
        return p

    p = command("synth", cmd_synth, "generate a synthetic cohort CSV", out=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--force", action="store_true")
    p.add_argument("--schema", default=None)

    p = command("preprocess", cmd_preprocess, "parse, label, split, fit scaler", cohort=True)
    p.add_argument("--out-dir", required=True)

    p = command("train", cmd_train, "train a supervised model", cohort=True, out=True)
    p.add_argument("--model", required=True, choices=["logreg", "gnb", "mlp"])
    p.add_argument("--loss", default="weighted", choices=["weighted", "focal"])

    p = command("predict", cmd_predict, "score the held-out split with a saved model",
                cohort=True, out=True)
    p.add_argument("--model-file", required=True)
    p.add_argument("--threshold", type=float, default=0.5)

    p = command("genai", cmd_genai, "run LLM trials (replay mode)", cohort=True, out=True)
    p.add_argument("--replay-store", required=True)
    p.add_argument("--vendor", default="replay")
    p.add_argument("--model-id", required=True)
    p.add_argument("--access-date", default="1970-01-01")
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--temperature", type=float, default=0.2)
    p.add_argument("--top-p", type=float, default=0.9)
    p.add_argument("--template", default=None)
    p.add_argument("--audit-log", default=None)
    p.add_argument("--rag", action="store_true")
    p.add_argument("--rag-k", type=int, default=5)
    p.add_argument("--corpus", default=None)

    p = command("rag-build", cmd_rag_build, "validate and summarize the BM25 corpus")
    p.add_argument("--corpus", default=None)

    p = command("evaluate", cmd_evaluate, "full evaluation report for stored predictions")
    p.add_argument("--predictions", required=True)
    p.add_argument("--name", default=None)
    p.add_argument("--out-dir", required=True)

    p = command("compare", cmd_compare, "paired DeLong/McNemar/bootstrap comparison", out=True)
    p.add_argument("--pred-a", required=True)
    p.add_argument("--pred-b", required=True)
    p.add_argument("--seed", type=int, default=0)

    p = command("importance", cmd_importance, "permutation feature importance", cohort=True, out=True)
    p.add_argument("--model-file", required=True)
    p.add_argument("--repeats", type=int, default=20)

    p = command("report", cmd_report, "summarize reports under a run directory")
    p.add_argument("--run-dir", required=True)

    p = command("run", cmd_run, "orchestrate the full pipeline from a config file")
    p.add_argument("--config", required=True)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        for key, rule in _FLAG_RULES.items():
            if key in vars(args):
                checked(vars(args)[key], rule, CliError, "--" + key.replace("_", "-"))
        return args.func(args)
    except LeakageError as exc:
        print(f"leakage violation: {exc}", file=sys.stderr)
        return EXIT_LEAKAGE
    except ReplayMissError as exc:
        print(f"replay miss: {exc}", file=sys.stderr)
        return EXIT_REPLAY_MISS
    except (DivergenceError, MetricError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (CliError, CohortError, SchemaError, ModelError, ProtocolError, RagError,
            OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())

"""Operator surface: configuration loading, pipeline orchestration, artifacts.

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
import os
import re
import sys
import tempfile
from collections import namedtuple
from dataclasses import dataclass
from pathlib import Path

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
    leakage_guard,
    parse_cohort,
    serialize_cohort,
    stratified_split,
)
from .heuristic import predict_heuristic
from .jsondoc import load_json
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
    load_prompt_template,
    proxy_score,
    run_trial,
    serialize_case,
)
from .rag import Bm25Index, RagError, load_corpus
from .schema import SchemaError, load_schema
from .synthetic import GeneratorConfig, generate_synthetic

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_LEAKAGE = 3
EXIT_REPLAY_MISS = 4
EXIT_NUMERIC = 5


class CliError(ValueError):
    """Usage/validation failure; maps to exit code 2."""


def _read_cohort(cohort_path: Path, schema):
    """Read a cohort CSV once, guard its header and parse it.

    The leakage guard runs over the raw header columns before any row is
    parsed; the sanctioned label column and the id column are exempt, and any
    other blocklisted column halts the run. Returns the SHA-256 of the
    file's bytes, the parsed table and the rejection report. A missing or unreadable path and an
    empty, non-UTF-8, malformed or record-less CSV file are validation errors.
    """
    try:
        data = cohort_path.read_bytes()
    except OSError as exc:
        raise CliError(f"cannot read {cohort_path}: {exc.strerror}") from None
    if not data or data.isspace():
        raise CliError(f"{cohort_path} is empty")
    try:
        header_end = data.find(b"\n")
        header_line = (data[:header_end] if header_end >= 0 else data).decode("utf-8")
        header_line = header_line.removeprefix("\ufeff")  # as parse_cohort reads it
        columns = next(csv_mod.reader([header_line]))
        leakage_guard(
            [c for c in columns if c not in ("PATIENT_ID", "SNOT22_6MO_TOTAL")], schema.blocklist
        )
        table, report = parse_cohort(data, schema)
    except UnicodeDecodeError as exc:
        raise CliError(f"{cohort_path} is not UTF-8 text (byte {exc.start})") from None
    except csv_mod.Error as exc:
        raise CliError(f"{cohort_path} is not a readable CSV: {exc}") from None
    if not len(table):
        raise CliError(f"no valid records in {cohort_path}")
    return hashlib.sha256(data).hexdigest(), table, report


@dataclass(frozen=True)
class _Cohort:
    """A cohort read, labeled, split, scaled and encoded; test rows in case-id order."""

    checksum: str
    n_records: int
    rejection: RejectionReport
    unlabeled: list[str]
    split: CohortSplit
    scaler: Scaler
    test: list
    X_train: np.ndarray
    X_test: np.ndarray
    y_train: np.ndarray
    y_test: np.ndarray
    case_ids: list[str]


def _prepare_cohort(path: Path, schema, test_fraction: float, seed: int) -> _Cohort:
    """The one data path every subcommand uses: the scaler is fit on the
    training rows only, and both splits are encoded with it. Records are
    built only for the test rows."""
    checksum, table, rejection = _read_cohort(path, schema)
    unlabeled = table.outcome_missing
    labeled = table.take(~unlabeled) if unlabeled.any() else table
    split = stratified_split(labeled, test_fraction, seed)
    labels = labeled.labels()
    train, test = labeled.take(split.train_rows), labeled.take(split.test_rows)
    scaler = fit_scaler(train, schema)
    return _Cohort(
        checksum, len(table), rejection, table.ids[unlabeled].tolist(), split, scaler,
        test.records(),
        X_train=encode_matrix(train, schema, scaler),
        X_test=encode_matrix(test, schema, scaler),
        y_train=labels[split.train_rows],
        y_test=labels[split.test_rows],
        case_ids=test.ids.tolist(),
    )


def _replay_trials(test, schema, store, identity, params: DecodingParams, k, template, audit,
                   rag_index=None, rag_k=5):
    """Run one replayed trial per test record; returns (scores, hard labels).

    ``store``, ``params`` and ``k`` were checked where they were read: by
    ``_parse_run_config`` for ``run``, by the parser and ``main`` for
    ``genai``. A case with no parseable replicate scores 0.0. The audit log,
    if any, is closed when the trials end or fail, so it holds a line for
    each finished trial.
    """
    client = ReplayClient(store)
    scores, hard = [], []
    try:
        for rec in test:
            passages = None
            if rag_index is not None:
                passages, _ = rag_index.retrieve(serialize_case(rec, schema), k=rag_k)
            agg = run_trial(
                client, rec, schema, identity, params, k=k,
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


def _write_predictions(path: Path, name, case_ids, labels, scores, hard):
    """Write the predictions document byte for byte as ``json.dumps(doc, indent=1)``."""
    fields = {
        "model_name": json.dumps(name),
        "case_ids": _indented_list(list(case_ids)),
        "labels": _indented_list([int(v) for v in labels]),
        "scores": _indented_list(np.asarray(scores, dtype=float).tolist()),
        "hard_labels": _indented_list([int(v) for v in hard]),
    }
    body = ",\n".join(f" {json.dumps(key)}: {value}" for key, value in fields.items())
    path.write_text(f"{{\n{body}\n}}", encoding="utf-8")


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=1), encoding="utf-8")


def _read_predictions(path: Path) -> tuple[str, PredictionSet]:
    doc = load_json(path.read_bytes(), CliError, path)
    if not isinstance(doc, dict):
        raise CliError(f"{path}: predictions must be a JSON object")

    def field(key, check, what):
        if key not in doc:
            raise CliError(f"{path}: missing key {key!r}")
        if not check(doc[key]):
            raise CliError(f"{path}: {key!r} must be {what}")
        return doc[key]

    def list_of(*types):
        return lambda value: isinstance(value, list) and all(isinstance(v, types) for v in value)

    name = field("model_name", lambda value: isinstance(value, str), "a string")
    case_ids = field("case_ids", list_of(str), "a list of strings")
    labels = field("labels", list_of(int), "a list of integers")
    scores = field("scores", list_of(int, float), "a list of numbers")
    hard = field("hard_labels", list_of(int), "a list of integers")
    try:
        return name, PredictionSet(tuple(case_ids), np.array(labels), np.array(scores), np.array(hard))
    except (MetricError, OverflowError) as exc:
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
    out_dir.mkdir(parents=True, exist_ok=True)
    write_report_json(report, out_dir / f"{name}_report.json")
    (out_dir / f"{name}_report.md").write_text(_report_markdown(report), encoding="utf-8")
    write_curve_csvs(report, out_dir / "curves")


# --------------------------------------------------------------------------
# subcommands


def cmd_synth(args) -> int:
    out = Path(args.out)
    if out.exists() and not args.force:
        raise CliError(f"{out} exists; pass --force to overwrite")
    if args.n < 1:
        raise CliError("--n must be >= 1")
    schema = load_schema(args.schema)
    table = CohortTable.from_records(generate_synthetic(args.n, args.seed, GeneratorConfig()))
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_bytes(serialize_cohort(table, schema))
    labels = table.labels()
    prevalence = int(labels.sum()) / len(labels)
    print(f"wrote {len(table)} records to {out} (label prevalence {prevalence:.3f})")
    return EXIT_OK


def cmd_preprocess(args) -> int:
    schema = load_schema(args.schema)
    cohort = _prepare_cohort(Path(args.cohort), schema, args.test_fraction, args.seed)
    split, scaler, rejection = cohort.split, cohort.scaler, cohort.rejection
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "split.json", {
        "seed": split.seed,
        "train_ids": sorted(split.train_ids),
        "test_ids": sorted(split.test_ids),
        "label_prevalence_train": split.label_prevalence_train,
        "label_prevalence_test": split.label_prevalence_test,
    })
    _write_json(out_dir / "scaler.json", {
        "columns": list(scaler.columns),
        "means": list(scaler.means),
        "sds": list(scaler.sds),
        "state_id": scaler.state_id,
    })
    _write_json(out_dir / "rejections.json", {
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
    _write_predictions(Path(args.out), model.kind, cohort.case_ids, cohort.y_test, scores, hard)
    print(f"wrote {len(cohort.case_ids)} predictions to {args.out}")
    return EXIT_OK


def cmd_genai(args) -> int:
    schema = load_schema(args.schema)
    cohort = _prepare_cohort(Path(args.cohort), schema, args.test_fraction, args.seed)
    identity = ModelIdentity(args.vendor, args.model_id, args.access_date)
    template = load_prompt_template(args.template)
    audit = AuditLog(args.audit_log) if args.audit_log else None
    rag_index = Bm25Index(load_corpus(args.corpus)) if args.rag else None
    scores, hard = _replay_trials(
        cohort.test, schema, args.replay_store, identity,
        DecodingParams(args.temperature, args.top_p), args.k, template, audit,
        rag_index=rag_index, rag_k=args.rag_k,
    )
    _write_predictions(Path(args.out), args.model_id, cohort.case_ids, cohort.y_test, scores, hard)
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
    _write_json(Path(args.out), {"model_a": name_a, "model_b": name_b, **result})
    print(
        f"delong p={result['delong']['p_value']:.4f}, "
        f"mcnemar p={result['mcnemar']['p_value']:.4f} -> {args.out}"
    )
    return EXIT_OK


def cmd_importance(args) -> int:
    if args.repeats < 1:
        raise CliError(f"--repeats must be an integer >= 1, got {args.repeats}")
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
    _write_json(Path(args.out), rows)
    print(f"permutation importance for {len(rows)} features -> {args.out}")
    return EXIT_OK


def cmd_report(args) -> int:
    run_dir = Path(args.run_dir)
    reports = sorted(run_dir.glob("**/*_report.json"))
    if not reports:
        raise CliError(f"no *_report.json found under {run_dir}")
    lines = ["# Run summary", ""]
    for path in reports:
        doc = load_json(path.read_bytes(), CliError, path)
        try:
            m = doc["threshold_metrics"]
            lines.append(
                f"- {doc['model_name']}: accuracy {m['accuracy']:.3f}, "
                f"balanced accuracy {m['balanced_accuracy']:.3f}, AUROC {doc['auroc']:.3f}"
            )
        except (KeyError, TypeError, ValueError) as exc:  # a missing key or a value of the wrong type
            raise CliError(f"{path} is not an evaluation report: {exc!r}") from None
    out = run_dir / "summary.md"
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return EXIT_OK


_STEM = re.compile(r"(?!\.)[A-Za-z0-9_.-]+")
_STEM_RULE = "a file-name stem ([A-Za-z0-9_.-]+, not starting with '.')"
_PATH_RULE = "null or a non-empty printable string"


def _valid(ok: bool, value):
    """``value`` when ``ok``; otherwise the ValueError that ``_check`` reports."""
    if not ok:
        raise ValueError
    return value


def _int_from(lo: int):
    return lambda v: _valid(type(v) is int and v >= lo, v)


def _number(ok):
    return lambda v: _valid(type(v) in (int, float) and ok(v), v)  # NaN fails every ``ok``


def _string(v):
    return _valid(isinstance(v, str) and v != "" and v.isprintable(), v)


def _path(v):
    return None if v is None else _string(v)


def _object(rules: dict, build=dict, **defaults):
    """A rule for an object with some of ``rules``'s keys; ``build`` takes them over ``defaults``."""
    def check(v):
        _valid(isinstance(v, dict) and v.keys() <= rules.keys(), v)
        return build(**{**defaults, **{key: rules[key](x) for key, x in v.items()}})
    return check


def _models(specs):
    """Model specs whose output names, the spec or the id after ``replay:``, are distinct stems."""
    names = [spec.removeprefix("replay:") for spec in _valid(isinstance(specs, list), specs)
             if spec in ("logreg", "gnb", "mlp", "heuristic") or str(spec).startswith("replay:")]
    return tuple(_valid(len(set(names)) == len(names) == len(specs)
                        and all(map(_STEM.fullmatch, names)), specs))


# The keys of a run config's decoding object: the rule that checks each and
# what a valid value is. genai's --temperature and --top-p go through the same.
_DECODING = {
    "temperature": (_number(lambda v: 0 <= v <= 2), "a number in [0, 2]"),
    "top_p": (_number(lambda v: 0 <= v <= 1), "a number in [0, 1]"),
    "max_tokens": (_int_from(1), "an integer >= 1"),
    "seed": (lambda v: None if v is None else _int_from(0)(v), "null or an integer >= 0"),
}

# Every key of a run config: its default, the rule that checks it and returns
# the value RunConfig holds, and what a valid value is. README's run-config
# table lists the same keys.
_RUN_CONFIG = {
    "seed": (None, _int_from(0), "a non-negative integer"),  # required: see _parse_run_config
    "out_dir": ("run", _string, "a non-empty printable string"),
    "schema": (None, _path, _PATH_RULE),
    "cohort_csv": (None, _path, _PATH_RULE),
    "synthetic": ({}, _object({"n": _int_from(1)}, n=524), "an object whose n is an integer >= 1"),
    "models": (["mlp", "heuristic"], _models, "a list of 'logreg', 'gnb', 'mlp', 'heuristic' or "
               f"'replay:<id>' strings with distinct output names, each <id> {_STEM_RULE}"),
    "threshold": (0.5, _number(lambda v: 0 <= v <= 1), "a number in [0, 1]"),
    "loss": ("weighted", lambda v: _valid(v in ("weighted", "focal"), v), "'weighted' or 'focal'"),
    "test_fraction": (0.2, _number(lambda v: 0 < v < 1), "a number in (0, 1)"),
    "k": (5, _int_from(1), ">= 1"),
    "decoding": ({}, _object({key: rule for key, (rule, _) in _DECODING.items()}, DecodingParams),
                 "an object with some of "
                 + ", ".join(f"{key} ({what})" for key, (_, what) in _DECODING.items())),
    "template": (None, _path, _PATH_RULE),
    "replay": ({}, _object({"store": _path, "vendor": _string, "access_date": _string},
                           store=None, vendor="replay", access_date="1970-01-01"),
               f"an object with some of store ({_PATH_RULE}), vendor and access_date"),
}
RunConfig = namedtuple("RunConfig", _RUN_CONFIG)
# Subcommand flags named after run-config or decoding keys, checked by the same rules.
_FLAG_RULES = {**{key: _RUN_CONFIG[key][1:] for key in ("seed", "threshold", "test_fraction", "k")},
               **{key: _DECODING[key] for key in ("temperature", "top_p")}}


def _check(name: str, rule, what: str, value):
    """``value`` as ``rule`` returns it; a bad value is a CliError naming ``name``."""
    try:
        return rule(value)
    except (TypeError, ValueError):
        raise CliError(f"{name} must be {what}, got {value!r}") from None


def _parse_run_config(config) -> RunConfig:
    """Check every key of a run config, whatever models it lists, before
    anything is written; a bad value is a validation error naming its key."""
    if not isinstance(config, dict):
        raise CliError(f"config must be a JSON object, got {type(config).__name__}")
    unknown = sorted(config.keys() - _RUN_CONFIG.keys())
    if unknown:
        raise CliError(f"config key {unknown[0]!r} is unknown")
    if "seed" not in config:
        raise CliError("config key seed is required (there is no wall-clock default)")
    cfg = RunConfig(*(_check(f"config key {key}", rule, what, config.get(key, default))
                      for key, (default, rule, what) in _RUN_CONFIG.items()))
    if cfg.replay["store"] is None and any(spec.startswith("replay:") for spec in cfg.models):
        raise CliError("replay models need a replay store (config key replay.store)")
    return cfg


def cmd_run(args) -> int:
    cfg = _parse_run_config(load_json(Path(args.config).read_bytes(), CliError, args.config))
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    lock = out_dir / ".lock"
    _acquire_run_lock(lock)
    try:
        return _run_pipeline(cfg, out_dir)
    finally:
        lock.unlink(missing_ok=True)


def _acquire_run_lock(lock: Path) -> None:
    """Create ``lock`` holding this process's pid, or fail if a live process
    holds it. The pid is written to a temporary file that is then hard-linked
    as ``lock``, so no other run can find the lock without its pid. A lock
    that is empty, unreadable or names a dead pid was left by a crashed run
    and is replaced once."""
    fd, tmp = tempfile.mkstemp(prefix=f"{lock.name}.", dir=lock.parent)
    try:
        os.fchmod(fd, 0o644)  # mkstemp makes it 0600; other users' runs must read the pid
        with os.fdopen(fd, "w", encoding="ascii") as fh:
            fh.write(str(os.getpid()))
        try:
            os.link(tmp, lock)
        except FileExistsError:
            holder = _lock_holder(lock)
            if holder is not None:
                raise CliError(f"run directory {lock.parent} is locked by process {holder}") from None
            lock.unlink(missing_ok=True)
            try:
                os.link(tmp, lock)
            except FileExistsError:
                raise CliError(f"run directory {lock.parent} is locked by another process") from None
    finally:
        os.unlink(tmp)


def _lock_holder(lock: Path) -> int | None:
    """The live pid recorded in ``lock``, or None when the lock is stale."""
    try:
        pid = int(lock.read_text(encoding="ascii"))
    except (OSError, ValueError):
        return None
    if pid <= 0:
        return None
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return None
    except PermissionError:  # alive, owned by another user
        pass
    return pid


def _run_pipeline(cfg: RunConfig, out_dir) -> int:
    seed = cfg.seed
    schema = load_schema(cfg.schema)
    audit_path = out_dir / "audit.jsonl"
    audit_path.unlink(missing_ok=True)  # each run starts its own log

    if cfg.cohort_csv is not None:
        cohort_path = Path(cfg.cohort_csv)
    else:
        cohort_path = out_dir / "cohort.csv"
        # The generated records are dropped once they are columns, before the
        # CSV is rendered; a run that renders them from records peaks higher.
        cohort_path.write_bytes(serialize_cohort(CohortTable.from_records(
            generate_synthetic(cfg.synthetic["n"], seed, GeneratorConfig())), schema))

    cohort = _prepare_cohort(cohort_path, schema, cfg.test_fraction, seed)
    test, y_test, case_ids, split = cohort.test, cohort.y_test, cohort.case_ids, cohort.split

    reports_dir = out_dir / "reports"
    names = [spec.removeprefix("replay:") for spec in cfg.models]
    for spec, name in zip(cfg.models, names):
        if spec in ("logreg", "gnb", "mlp"):
            model = _train_one(spec, cohort.X_train, cohort.y_train, schema, seed, cfg.loss)
            save_model(model, out_dir / f"{spec}_model.json")
            scores = predict_proba(model, cohort.X_test)
            hard = (scores >= cfg.threshold).astype(int)
        elif spec == "heuristic":
            preds = [predict_heuristic(r) for r in test]
            scores = np.array([proxy_score(p.label, p.confidence) for p in preds])
            hard = np.array([p.label for p in preds])
            with (out_dir / "heuristic_traces.jsonl").open("w", encoding="utf-8") as fh:
                for r, p in zip(test, preds):
                    fh.write(json.dumps({"case_id": r.patient_id, **p.to_dict()}) + "\n")
        else:  # replay:<id>
            identity = ModelIdentity(cfg.replay["vendor"], name, cfg.replay["access_date"])
            scores, hard = _replay_trials(
                test, schema, cfg.replay["store"], identity, cfg.decoding, cfg.k,
                load_prompt_template(cfg.template), AuditLog(audit_path),
            )
        _write_predictions(out_dir / f"{name}_predictions.json", name, case_ids, y_test, scores, hard)
        _emit_report(
            PredictionSet(tuple(case_ids), y_test, np.asarray(scores), np.asarray(hard)),
            name, reports_dir,
        )

    _write_json(out_dir / "manifest.json", {
        "crsbench_version": __version__,
        "seed": seed,
        "test_fraction": cfg.test_fraction,
        "cohort_csv": str(cohort_path),
        "cohort_checksum": cohort.checksum,
        "schema_version": schema.version,
        "schema_checksum": schema.checksum,
        "scaler_state_id": cohort.scaler.state_id,
        "n_records": cohort.n_records,
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
        for key, (rule, what) in _FLAG_RULES.items():
            if key in vars(args):
                _check("--" + key.replace("_", "-"), rule, what, vars(args)[key])
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

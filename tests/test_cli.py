import contextlib
import csv
import fcntl
import gc
import io
import json
import os
import re
import resource
import signal
import subprocess
import sys
import tempfile
import time
import warnings
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import crsbench
from crsbench import cli
from crsbench.cli import (
    EXIT_LEAKAGE,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_REPLAY_MISS,
    EXIT_VALIDATION,
    RunConfig,
    _case_fields,
    _prepare_cohort,
    _write_predictions,
    main,
)
from crsbench.cohort import (
    PatientRecord,
    label_records,
    parse_cohort,
    serialize_cohort,
    stratified_split,
)
from crsbench.heuristic import predict_heuristic
from crsbench.jsondoc import checked, load_json
from crsbench.metrics import PredictionSet, evaluate
from crsbench.protocol import (
    DecodingParams,
    ModelIdentity,
    ReplayClient,
    build_prompt,
    case_blocks,
    load_prompt_template,
    run_trial,
    serialize_case,
    store_replay_responses,
)
from crsbench.rag import Bm25Index, load_corpus
from crsbench.schema import load_schema
from crsbench.synthetic import generate_synthetic, synthetic_table
from conftest import time_bound
from oracles import (
    pr_points_per_threshold,
    prepare_cohort_reference,
    roc_points_per_threshold,
    transcript_bytes,
)


@pytest.fixture
def cohort_csv(tmp_path):
    out = tmp_path / "cohort.csv"
    assert main(["synth", "--n", "80", "--seed", "1", "--out", str(out)]) == EXIT_OK
    return out


def test_synth_writes_csv_and_respects_force(tmp_path, cohort_csv, schema):
    records, report = parse_cohort(cohort_csv.read_bytes(), schema)
    assert report.rejected == 0
    assert len(records) == 80
    assert main(["synth", "--n", "80", "--seed", "1", "--out", str(cohort_csv)]) == EXIT_VALIDATION
    assert main(
        ["synth", "--n", "80", "--seed", "1", "--out", str(cohort_csv), "--force"]
    ) == EXIT_OK


def test_synth_rejects_bad_n(tmp_path):
    assert main(["synth", "--n", "0", "--seed", "1", "--out", str(tmp_path / "x.csv")]) == EXIT_VALIDATION


def test_preprocess_artifacts(tmp_path, cohort_csv):
    out_dir = tmp_path / "prep"
    code = main(["preprocess", "--cohort", str(cohort_csv), "--out-dir", str(out_dir), "--seed", "3"])
    assert code == EXIT_OK
    split = json.loads((out_dir / "split.json").read_text())
    assert split["seed"] == 3
    assert len(split["train_ids"]) + len(split["test_ids"]) == 80
    assert len(split["test_ids"]) == 16
    scaler = json.loads((out_dir / "scaler.json").read_text())
    assert set(scaler["columns"]) == {"SNOT22_BLN_TOTAL", "Age", "BLN_CT_TOTAL", "BLN_ENDO_TOTAL"}
    rej = json.loads((out_dir / "rejections.json").read_text())
    assert rej["rows_total"] == 80 and rej["accepted"] == 80


def test_missing_cohort_is_validation_error(tmp_path):
    assert main(
        ["preprocess", "--cohort", str(tmp_path / "nope.csv"), "--out-dir", str(tmp_path / "o")]
    ) == EXIT_VALIDATION


def test_postop_column_aborts_with_leakage_code(tmp_path, cohort_csv):
    lines = cohort_csv.read_text().splitlines()
    tainted = tmp_path / "tainted.csv"
    tainted.write_text(
        "\n".join([lines[0] + ",POSTOP_ENDO_SCORE"] + [l + ",3" for l in lines[1:]]) + "\n"
    )
    code = main(["preprocess", "--cohort", str(tainted), "--out-dir", str(tmp_path / "o")])
    assert code == EXIT_LEAKAGE


def test_blocklisted_feature_name_is_leakage_on_every_encoding_command(tmp_path, cohort_csv):
    # the CSV header guard exempts the label column; the encoder's guard does not
    doc = json.loads(resources.files("crsbench.data").joinpath("schema.json").read_text())
    doc["feature_order"].append("SNOT22_6MO_TOTAL")
    tainted = tmp_path / "schema.json"
    tainted.write_text(json.dumps(doc))
    store = tmp_path / "store"
    store.mkdir()
    for argv in (
        ["preprocess", "--out-dir", str(tmp_path / "prep")],
        ["genai", "--replay-store", str(store), "--model-id", "m", "--out", str(tmp_path / "p.json")],
        ["train", "--model", "logreg", "--out", str(tmp_path / "m.json")],
    ):
        assert main([*argv, "--cohort", str(cohort_csv), "--schema", str(tainted)]) == EXIT_LEAKAGE


def test_train_predict_evaluate_flow(tmp_path, cohort_csv):
    model_file = tmp_path / "logreg.json"
    assert main(
        ["train", "--cohort", str(cohort_csv), "--model", "logreg", "--out", str(model_file)]
    ) == EXIT_OK
    preds = tmp_path / "preds.json"
    assert main(
        ["predict", "--model-file", str(model_file), "--cohort", str(cohort_csv), "--out", str(preds)]
    ) == EXIT_OK
    doc = json.loads(preds.read_text())
    assert doc["model_name"] == "logreg"
    assert len(doc["case_ids"]) == 16
    assert set(doc["hard_labels"]) <= {0, 1}
    report_dir = tmp_path / "reports"
    assert main(
        ["evaluate", "--predictions", str(preds), "--out-dir", str(report_dir)]
    ) == EXIT_OK
    report = json.loads((report_dir / "logreg_report.json").read_text())
    assert 0.0 <= report["auroc"] <= 1.0
    assert (report_dir / "logreg_report.md").exists()
    assert (report_dir / "curves" / "logreg_roc.csv").exists()


def test_compare_command(tmp_path, cohort_csv):
    model_file = tmp_path / "gnb.json"
    assert main(
        ["train", "--cohort", str(cohort_csv), "--model", "gnb", "--out", str(model_file)]
    ) == EXIT_OK
    pred_a = tmp_path / "a.json"
    assert main(
        ["predict", "--model-file", str(model_file), "--cohort", str(cohort_csv), "--out", str(pred_a)]
    ) == EXIT_OK
    out = tmp_path / "cmp.json"
    assert main(
        ["compare", "--pred-a", str(pred_a), "--pred-b", str(pred_a), "--out", str(out)]
    ) == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["delong"]["flagged_zero_variance"] is True
    assert doc["winners"]["auroc"] == "tie"


def test_compare_single_class_predictions_is_numeric_failure(tmp_path):
    preds = tmp_path / "p.json"
    preds.write_text(json.dumps({
        "model_name": "broken",
        "case_ids": ["a", "b", "c"],
        "labels": [1, 1, 1],
        "scores": [0.5, 0.6, 0.7],
        "hard_labels": [1, 1, 1],
    }))
    assert main(
        ["compare", "--pred-a", str(preds), "--pred-b", str(preds), "--out", str(tmp_path / "o.json")]
    ) == EXIT_NUMERIC


def _run_cli(*argv, timeout=30, module="crsbench.cli", **popen):
    """Run the CLI in a fresh interpreter, as ``python -m module``; a hang
    fails the test at ``timeout``."""
    src = str(Path(crsbench.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", module, *argv],
        capture_output=True, text=True, timeout=timeout, env=env, **popen,
    )


def test_package_runs_as_the_cli():
    """``python -m crsbench`` is the ``crsbench`` command."""
    package, cli = _run_cli("--help", module="crsbench"), _run_cli("--help")
    assert cli.returncode == 0 and cli.stdout.startswith("usage: crsbench")
    assert (package.returncode, package.stdout, package.stderr) == (0, cli.stdout, "")


def _main_in_process(capsys, *argv, timeout=30):
    """Run ``main(argv)`` in this process, as ``_run_cli`` runs it in a fresh
    one; an exception that escapes ``main`` fails the test, and so does a run
    longer than ``timeout`` seconds."""
    capsys.readouterr()  # drop what the fixtures printed
    with time_bound(timeout):
        code = main(list(argv))
    out, err = capsys.readouterr()
    return subprocess.CompletedProcess(argv, code, out, err)


GOOD_PREDICTIONS = {
    "model_name": "m",
    "case_ids": ["a", "b", "c"],
    "labels": [0, 1, 1],
    "scores": [0.1, 0.2, 0.3],
    "hard_labels": [0, 0, 1],
}


@pytest.mark.parametrize(
    "change",
    [
        pytest.param({"scores": [0.1, float("nan"), 0.3]}, id="nan-score"),
        pytest.param({"scores": [0.1, float("inf"), 0.3]}, id="inf-score"),
        pytest.param({"labels": [0, 2, 1]}, id="label-2"),
        pytest.param({"hard_labels": [0, -1, 1]}, id="hard-label-minus-1"),
        pytest.param({"case_ids": ["a", "b", "a"]}, id="duplicate-case-id"),
        pytest.param({"hard_labels": None}, id="missing-hard-labels"),
        pytest.param({"model_name": None}, id="missing-model-name"),
        pytest.param({"scores": "0.1 0.2 0.3"}, id="scores-not-a-list"),
        pytest.param({"labels": [0, "1", 1]}, id="label-not-an-integer"),
        pytest.param({"case_ids": [1, 2, 3]}, id="case-ids-not-strings"),
    ],
)
def test_evaluate_rejects_bad_predictions_with_validation_code(tmp_path, change):
    doc = {k: v for k, v in {**GOOD_PREDICTIONS, **change}.items() if v is not None}
    preds = tmp_path / "p.json"
    preds.write_text(json.dumps(doc))
    proc = _run_cli("evaluate", "--predictions", str(preds), "--out-dir", str(tmp_path / "ev"))
    assert proc.returncode == EXIT_VALIDATION, proc.stderr
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1
    assert not (tmp_path / "ev").exists()


@pytest.mark.parametrize(
    "change",
    [
        pytest.param({"case_ids": ["c", "b", "a"]}, id="reversed-case-ids"),
        pytest.param({"case_ids": ["a", "b", "d"]}, id="other-case-ids"),
        pytest.param({"labels": [1, 1, 0], "hard_labels": [1, 0, 0]}, id="other-labels"),
    ],
)
def test_compare_mismatched_prediction_files_is_validation_error(tmp_path, change):
    pred_a, pred_b = tmp_path / "a.json", tmp_path / "b.json"
    pred_a.write_text(json.dumps(GOOD_PREDICTIONS))
    pred_b.write_text(json.dumps({**GOOD_PREDICTIONS, **change}))
    out = tmp_path / "cmp.json"
    proc = _run_cli("compare", "--pred-a", str(pred_a), "--pred-b", str(pred_b), "--out", str(out))
    assert proc.returncode == EXIT_VALIDATION, proc.stderr
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1
    assert not out.exists()


def _drop(key):
    def change(doc):
        del doc[key]
        return doc
    return change


def _truncate_first_param(doc):
    first = next(iter(doc["params"].values()))
    first["data"] = first["data"][:-1]
    return doc


def _bias_of(value):
    def change(doc):
        doc["params"]["b"]["data"] = [value]
        return doc
    return change


@pytest.mark.parametrize(
    "change",
    [
        pytest.param(_drop("params"), id="missing-params"),
        pytest.param(_drop("kind"), id="missing-kind"),
        pytest.param(_drop("schema_checksum"), id="missing-schema-checksum"),
        pytest.param(_drop("feature_names"), id="missing-feature-names"),
        pytest.param(lambda doc: [doc], id="not-an-object"),
        pytest.param(_truncate_first_param, id="data-shorter-than-shape"),
        pytest.param(lambda doc: {**doc, "kind": "forest"}, id="unknown-kind"),
        pytest.param(lambda doc: {**doc, "params": {"w": doc["params"]["w"]}}, id="missing-param-b"),
        pytest.param(lambda doc: {**doc, "params": {"w": [1.0], "b": [0.0]}}, id="param-not-an-object"),
        pytest.param(
            lambda doc: {**doc, "params": {**doc["params"], "w": {"shape": [3], "data": [0.0] * 3}}},
            id="w-shorter-than-features",
        ),
        pytest.param(_bias_of(float("nan")), id="nan-parameter"),
        pytest.param(_bias_of(float("-inf")), id="infinite-parameter"),
        pytest.param(_bias_of("0.1"), id="string-parameter"),
        pytest.param(_bias_of(True), id="boolean-parameter"),
    ],
)
def test_malformed_model_file_is_validation_error(tmp_path, cohort_csv, change, capsys):
    model_file = tmp_path / "logreg.json"
    assert main(
        ["train", "--cohort", str(cohort_csv), "--model", "logreg", "--out", str(model_file)]
    ) == EXIT_OK
    model_file.write_text(json.dumps(change(json.loads(model_file.read_text()))))
    for argv in (
        ["predict", "--model-file", str(model_file), "--cohort", str(cohort_csv),
         "--out", str(tmp_path / "preds.json")],
        ["importance", "--model-file", str(model_file), "--cohort", str(cohort_csv),
         "--repeats", "1", "--out", str(tmp_path / "imp.json")],
    ):
        proc = _main_in_process(capsys, *argv)
        assert proc.returncode == EXIT_VALIDATION, proc.stderr
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.strip().splitlines()) == 1
    assert not (tmp_path / "preds.json").exists()
    assert not (tmp_path / "imp.json").exists()


@pytest.mark.parametrize(
    "kind, param, value, code",
    [
        pytest.param("gnb", "variances", -1.0, EXIT_VALIDATION, id="gnb-negative-variance"),
        pytest.param("gnb", "variances", 0.0, EXIT_VALIDATION, id="gnb-zero-variance"),
        pytest.param("gnb", "priors", -1.0, EXIT_VALIDATION, id="gnb-negative-prior"),
        pytest.param("logreg", "w", 1e308, EXIT_OK, id="logreg-saturating-weight"),
    ],
)
def test_predict_writes_finite_scores_or_fails_in_one_line(tmp_path, cohort_csv, kind, param, value,
                                                          code):
    model_file, out = tmp_path / "m.json", tmp_path / "p.json"
    assert main(["train", "--cohort", str(cohort_csv), "--model", kind, "--out", str(model_file)]) == EXIT_OK
    doc = json.loads(model_file.read_text())
    doc["params"][param]["data"][0] = value
    model_file.write_text(json.dumps(doc))
    proc = _run_cli("predict", "--model-file", str(model_file), "--cohort", str(cohort_csv),
                    "--out", str(out))
    if code == EXIT_OK:  # a saturated score is a valid 0.0 or 1.0, and numpy warns of nothing
        assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
        assert np.isfinite(json.loads(out.read_text())["scores"]).all()
    else:
        _one_error_line(proc, code)
        assert not out.exists()


def test_predictions_json_that_is_not_an_object_is_validation_error(tmp_path):
    preds = tmp_path / "p.json"
    preds.write_text("[1, 2, 3]")
    assert main(["evaluate", "--predictions", str(preds), "--out-dir", str(tmp_path / "ev")]) == EXIT_VALIDATION


def test_cli_import_does_not_load_scipy():
    src = str(Path(crsbench.__file__).resolve().parents[1])
    code = "import sys, crsbench.cli; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_importance_command(tmp_path, cohort_csv):
    model_file = tmp_path / "logreg.json"
    assert main(
        ["train", "--cohort", str(cohort_csv), "--model", "logreg", "--out", str(model_file)]
    ) == EXIT_OK
    out = tmp_path / "imp.json"
    assert main(
        ["importance", "--model-file", str(model_file), "--cohort", str(cohort_csv),
         "--repeats", "3", "--out", str(out)]
    ) == EXIT_OK
    rows = json.loads(out.read_text())
    assert len(rows) == 21
    deltas = [r["mean_delta_balanced_accuracy"] for r in rows]
    assert deltas == sorted(deltas, reverse=True)


def test_rag_build_command():
    assert main(["rag-build"]) == EXIT_OK


def test_genai_replay_miss_exit_code(tmp_path, cohort_csv):
    empty_store = tmp_path / "store"
    empty_store.mkdir()
    code = main([
        "genai", "--replay-store", str(empty_store), "--cohort", str(cohort_csv),
        "--model-id", "model-x", "--out", str(tmp_path / "p.json"),
    ])
    assert code == EXIT_REPLAY_MISS


def test_genai_replay_flow(tmp_path, cohort_csv, schema):
    # seed the store with canned responses for every test-split prompt
    table, _ = parse_cohort(cohort_csv.read_bytes(), schema)
    labeled, labels, _ = label_records(table.records())
    split = stratified_split(labeled, 0.2, seed=0)
    template = load_prompt_template()
    store = tmp_path / "store"
    for rec in labeled:
        if rec.patient_id not in split.test_ids:
            continue
        _, prompt_hash = build_prompt([serialize_case(rec, schema)], template)
        reply = f"PREDICTION: {labels[rec.patient_id]}\nCONFIDENCE: somewhat confident"
        store_replay_responses(store, prompt_hash, [reply] * 5)

    out = tmp_path / "genai_preds.json"
    audit = tmp_path / "audit.jsonl"
    code = main([
        "genai", "--replay-store", str(store), "--cohort", str(cohort_csv),
        "--model-id", "model-x", "--audit-log", str(audit), "--out", str(out),
    ])
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["hard_labels"] == doc["labels"]  # replay echoed the truth
    assert len(audit.read_text().splitlines()) == 1 + len(doc["case_ids"])


def test_genai_live_mode_rejected(tmp_path, cohort_csv, capsys):
    # there is no --mode flag, and it must not be taken for an abbreviation of --model-id
    with pytest.raises(SystemExit) as info:
        main([
            "genai", "--mode", "live", "--replay-store", str(tmp_path), "--cohort", str(cohort_csv),
            "--model-id", "m", "--out", str(tmp_path / "p.json"),
        ])
    assert info.value.code == EXIT_VALIDATION
    assert "unrecognized arguments: --mode live" in capsys.readouterr().err


def test_run_pipeline_and_report(tmp_path):
    config = {
        "seed": 2,
        "out_dir": str(tmp_path / "run"),
        "synthetic": {"n": 80},
        "models": ["logreg", "heuristic"],
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    assert main(["run", "--config", str(cfg)]) == EXIT_OK
    run_dir = tmp_path / "run"
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["models"] == ["logreg", "heuristic"]
    assert manifest["seed"] == 2
    assert manifest["split"]["test"] == 16
    assert (run_dir / "heuristic_traces.jsonl").exists()
    with open(run_dir / ".lock", "ab") as lock:  # released after the run
        fcntl.flock(lock.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
    assert main(["report", "--run-dir", str(run_dir)]) == EXIT_OK
    summary = (run_dir / "summary.md").read_text()
    assert "logreg" in summary and "heuristic" in summary


def test_report_summarizes_only_the_models_of_the_last_run(tmp_path, capsys):
    out_dir, cfg = tmp_path / "run", tmp_path / "c.json"
    config = {"seed": 3, "out_dir": str(out_dir), "synthetic": {"n": 80}, "models": ["logreg", "gnb"]}
    cfg.write_text(json.dumps(config))
    assert main(["run", "--config", str(cfg)]) == EXIT_OK
    config.update(seed=4, models=["logreg"])
    cfg.write_text(json.dumps(config))
    assert main(["run", "--config", str(cfg)]) == EXIT_OK
    assert (out_dir / "reports" / "gnb_report.json").exists()  # seed 3's, left behind
    assert main(["report", "--run-dir", str(out_dir)]) == EXIT_OK
    summary = (out_dir / "summary.md").read_text().splitlines()
    assert [line.split(":")[0] for line in summary[2:]] == ["- logreg"]


@pytest.mark.parametrize("change, message", [
    (lambda m: m.update(models=["logreg", "gnb"]), "reports/gnb_report.json"),
    (lambda m: m.pop("models"), "manifest.json"),
    (lambda m: m.update(models="logreg"), "manifest.json"),
    (lambda m: m.update(models=["logreg", 5]), "manifest.json"),
])
def test_report_on_a_manifest_it_cannot_follow_is_one_line_validation_error(
        tmp_path, capsys, change, message):
    out_dir, cfg = tmp_path / "run", tmp_path / "c.json"
    cfg.write_text(json.dumps({"seed": 3, "out_dir": str(out_dir), "synthetic": {"n": 80},
                               "models": ["logreg"]}))
    assert main(["run", "--config", str(cfg)]) == EXIT_OK
    manifest = json.loads((out_dir / "manifest.json").read_text())
    change(manifest)
    (out_dir / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["report", "--run-dir", str(out_dir)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err, err
    assert not (out_dir / "summary.md").exists()


def test_a_failed_run_leaves_no_manifest_of_an_earlier_run(tmp_path, capsys):
    out_dir, cfg = tmp_path / "run", tmp_path / "c.json"
    config = {"seed": 3, "out_dir": str(out_dir), "synthetic": {"n": 80}, "models": ["gnb"]}
    cfg.write_text(json.dumps(config))
    assert main(["run", "--config", str(cfg)]) == EXIT_OK
    assert json.loads((out_dir / "manifest.json").read_text())["seed"] == 3
    config.update(seed=4, models=["gnb", "replay:m"], replay={"store": str(tmp_path / "none")})
    cfg.write_text(json.dumps(config))
    assert main(["run", "--config", str(cfg)]) == EXIT_REPLAY_MISS
    assert (out_dir / "cohort.csv").exists() and not (out_dir / "manifest.json").exists()


@pytest.mark.parametrize("cohort, second, code", [
    ("synthetic", "replay:m", EXIT_REPLAY_MISS),  # leaves cohort.csv and audit.jsonl
    ("csv", "replay:m", EXIT_REPLAY_MISS),  # leaves audit.jsonl
    ("csv", "logreg", EXIT_VALIDATION),  # leaves only .lock: logreg's model file cannot be written
])
def test_report_refuses_an_unfinished_run(tmp_path, capsys, cohort_csv, cohort, second, code):
    """A run that failed part way leaves its finished models' reports and no
    manifest; ``report`` refuses the directory. A directory of reports that
    ``evaluate`` wrote holds no lock, cohort or audit log, and is summarized."""
    out_dir, cfg = tmp_path / "run", tmp_path / "c.json"
    config = {"seed": 3, "out_dir": str(out_dir), "synthetic": {"n": 80},
              "models": ["gnb", second], "replay": {"store": str(tmp_path / "none")}}
    if cohort == "csv":
        config["cohort_csv"] = str(cohort_csv)
    cfg.write_text(json.dumps(config))
    (out_dir / "logreg_model.json").mkdir(parents=True)
    assert main(["run", "--config", str(cfg)]) == code
    assert (out_dir / "reports" / "gnb_report.json").exists()
    assert (out_dir / "cohort.csv").exists() == (cohort == "synthetic")
    assert (out_dir / "audit.jsonl").exists() == (second != "logreg")
    line = _one_error_line(_main_in_process(capsys, "report", "--run-dir", str(out_dir)),
                           EXIT_VALIDATION)
    assert str(out_dir / "manifest.json") in line
    assert not (out_dir / "summary.md").exists()

    preds = out_dir / "gnb_predictions.json"
    assert main(["evaluate", "--predictions", str(preds), "--out-dir", str(tmp_path / "ev")]) == EXIT_OK
    assert main(["report", "--run-dir", str(tmp_path / "ev")]) == EXIT_OK
    assert (tmp_path / "ev" / "summary.md").read_text().startswith("# Run summary\n\n- gnb:")


@pytest.mark.parametrize("seed, n", [(2, 12), (2, 16), (0, 20)])
def test_a_split_that_leaves_a_class_out_of_the_test_part_fails_before_training(
        tmp_path, capsys, seed, n):
    out_dir, cfg = tmp_path / "run", tmp_path / "c.json"
    cfg.write_text(json.dumps({"seed": seed, "out_dir": str(out_dir), "synthetic": {"n": n},
                               "models": ["logreg", "gnb", "mlp", "heuristic"]}))
    line = _one_error_line(_main_in_process(capsys, "run", "--config", str(cfg)), EXIT_VALIDATION)
    assert "test_fraction 0.2 puts 0 of the 2 cases of class 0 in the test split" in line
    assert sorted(p.name for p in out_dir.iterdir()) == [".lock", "cohort.csv"]


def test_run_requires_seed(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"out_dir": str(tmp_path / "r")}))
    assert main(["run", "--config", str(cfg)]) == EXIT_VALIDATION


def _lock_run_config(tmp_path):
    """A quick run config and its run directory, created empty."""
    out_dir = tmp_path / "run"
    out_dir.mkdir()
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"seed": 1, "out_dir": str(out_dir), "synthetic": {"n": 40},
                               "models": ["heuristic"]}))
    return cfg, out_dir


@contextlib.contextmanager
def _lock_holder(lock):
    """A child process that holds the flock on ``lock``; SIGKILLed on exit."""
    with subprocess.Popen(
        [sys.executable, "-c",
         "import fcntl, sys, time\n"
         "f = open(sys.argv[1], 'ab')\n"
         "fcntl.flock(f.fileno(), fcntl.LOCK_EX)\n"
         "print('held', flush=True)\n"
         "time.sleep(120)\n",
         str(lock)],
        stdout=subprocess.PIPE, text=True,
    ) as holder:
        try:
            assert holder.stdout.readline() == "held\n"
            yield
        finally:
            holder.kill()


def test_run_lock_conflict(tmp_path, capsys):
    cfg, out_dir = _lock_run_config(tmp_path)
    with open(out_dir / ".lock", "ab") as lock:
        fcntl.flock(lock.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        proc = _main_in_process(capsys, "run", "--config", str(cfg))
    assert proc.returncode == EXIT_VALIDATION
    assert proc.stderr == f"error: run directory {out_dir} is locked by another run\n"
    assert [p.name for p in out_dir.iterdir()] == [".lock"]  # the refused run wrote nothing


def test_a_second_run_is_refused_while_the_first_holds_the_lock(tmp_path, monkeypatch, capsys):
    cfg, out_dir = _lock_run_config(tmp_path)
    inner = []

    def pipeline_with_a_second_run(run_cfg, run_dir):
        inner.append(main(["run", "--config", str(cfg)]))
        return EXIT_OK

    monkeypatch.setattr(cli, "_run_pipeline", pipeline_with_a_second_run)
    assert _main_in_process(capsys, "run", "--config", str(cfg)).returncode == EXIT_OK
    assert inner == [EXIT_VALIDATION]


def test_a_live_unrelated_pid_in_the_lock_file_does_not_block_a_run(tmp_path, capsys):
    cfg, out_dir = _lock_run_config(tmp_path)
    with subprocess.Popen(["sleep", "60"]) as sleeper:
        try:
            (out_dir / ".lock").write_text(str(sleeper.pid))  # what the pid-file lock wrote
            proc = _main_in_process(capsys, "run", "--config", str(cfg))
        finally:
            sleeper.kill()
    assert proc.returncode == EXIT_OK, proc.stderr


def test_bad_json_config_is_validation_error(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text("{not json")
    assert main(["run", "--config", str(cfg)]) == EXIT_VALIDATION


def _plant_replay_store(store, cohort_csv, schema, entry: bytes):
    """Write ``entry`` as the replay entry of every test-split prompt."""
    store.mkdir()
    for prompt_hash in _test_split_prompt_hashes(cohort_csv, schema):
        (store / f"{prompt_hash}.json").write_bytes(entry)


@pytest.mark.parametrize(
    "entry",
    [
        pytest.param(b"{}", id="no-responses"),
        pytest.param(b'{"responses": [1, 1, 1, 1, 1]}', id="non-string-responses"),
        pytest.param(b"[1]", id="not-an-object"),
        pytest.param(b'{"responses": "PREDICTION: 1"}', id="responses-a-string"),
        pytest.param(b'{"responses": ["PREDICTION: 1",', id="torn-json"),
    ],
)
def test_unusable_replay_entry_is_replay_miss(tmp_path, cohort_csv, schema, entry):
    store = tmp_path / "store"
    _plant_replay_store(store, cohort_csv, schema, entry)
    out = tmp_path / "p.json"
    proc = _run_cli("genai", "--replay-store", str(store), "--cohort", str(cohort_csv),
                    "--model-id", "m", "--out", str(out))
    assert proc.returncode == EXIT_REPLAY_MISS, proc.stderr
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda bad, good: bad.write_bytes(b""), id="empty"),
        pytest.param(lambda bad, good: bad.write_bytes(good.replace(b"\n", b"\n\xff", 3)),
                     id="not-utf8"),
        pytest.param(lambda bad, good: bad.write_bytes(good.replace(b"\n", b"\r")),
                     id="carriage-returns-only"),
        pytest.param(lambda bad, good: bad.mkdir(), id="a-directory"),
    ],
)
def test_unreadable_cohort_csv_is_validation_error(tmp_path, cohort_csv, make, capsys):
    bad = tmp_path / "bad.csv"
    make(bad, cohort_csv.read_bytes())
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"seed": 1, "out_dir": str(tmp_path / "run"),
                               "cohort_csv": str(bad), "models": ["logreg"]}))
    for argv in (
        ["train", "--cohort", str(bad), "--model", "logreg", "--out", str(tmp_path / "m.json")],
        ["run", "--config", str(cfg)],
    ):
        proc = _main_in_process(capsys, *argv)
        assert proc.returncode == EXIT_VALIDATION, proc.stderr
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.strip().splitlines()) == 1
    assert not (tmp_path / "m.json").exists()


def test_stale_run_lock_is_replaced_and_live_one_is_not(tmp_path, capsys):
    dead = subprocess.run([sys.executable, "-c", "import os; print(os.getpid())"],
                          capture_output=True, text=True, timeout=30)
    cfg, out_dir = _lock_run_config(tmp_path)
    lock = out_dir / ".lock"

    lock.write_text(dead.stdout.strip())
    proc = _main_in_process(capsys, "run", "--config", str(cfg))
    assert proc.returncode == EXIT_OK, proc.stderr

    with _lock_holder(lock):
        pass  # the holder is SIGKILLed: it gets no chance to clean up
    proc = _main_in_process(capsys, "run", "--config", str(cfg))
    assert proc.returncode == EXIT_OK, proc.stderr

    with _lock_holder(lock):
        proc = _main_in_process(capsys, "run", "--config", str(cfg))
    assert proc.returncode == EXIT_VALIDATION
    assert "locked by another run" in proc.stderr
    assert lock.exists()


def _test_split_prompt_hashes(cohort_csv, schema):
    """Prompt hash of each test-split case of ``cohort_csv`` (seed 0), in case-id order."""
    table, _ = parse_cohort(cohort_csv.read_bytes(), schema)
    split = stratified_split(table, 0.2, seed=0)
    template = load_prompt_template()
    by_id = {r.patient_id: r for r in table.records()}
    return [build_prompt([serialize_case(by_id[i], schema)], template)[1]
            for i in sorted(split.test_ids)]


def _one_error_line(proc, code):
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1, proc.stderr
    return lines[0]


def test_replay_miss_message_has_no_stray_quotes(tmp_path, cohort_csv, schema):
    store = tmp_path / "store"
    store.mkdir()
    first = _test_split_prompt_hashes(cohort_csv, schema)[0]
    proc = _run_cli("genai", "--replay-store", str(store), "--cohort", str(cohort_csv),
                    "--model-id", "m", "--out", str(tmp_path / "p.json"))
    line = _one_error_line(proc, EXIT_REPLAY_MISS)
    assert line == f"replay miss: replay store has no entry for prompt hash {first}"


def test_fifo_replay_entry_is_replay_miss_not_a_hang(tmp_path, cohort_csv, schema, capsys):
    store = tmp_path / "store"
    _plant_test_split(cohort_csv, schema, store)
    first = _test_split_prompt_hashes(cohort_csv, schema)[0]
    (store / f"{first}.json").unlink()
    os.mkfifo(store / f"{first}.json")  # no writer: a blocking open never returns
    proc = _main_in_process(capsys, "genai", "--replay-store", str(store), "--cohort",
                            str(cohort_csv), "--model-id", "m", "--out", str(tmp_path / "p.json"),
                            timeout=5)
    line = _one_error_line(proc, EXIT_REPLAY_MISS)
    assert line == (f"replay miss: replay entry for prompt hash {first} is unusable: "
                    "not a regular file")


def test_replay_model_without_store_is_validation_error(tmp_path, cohort_csv, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"seed": 0, "out_dir": str(tmp_path / "run"),
                               "cohort_csv": str(cohort_csv), "models": ["replay:m"]}))
    line = _one_error_line(_main_in_process(capsys, "run", "--config", str(cfg)), EXIT_VALIDATION)
    assert "replay.store" in line


def test_unknown_decoding_key_is_validation_error(tmp_path, cohort_csv, capsys):
    store = tmp_path / "store"
    store.mkdir()
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"seed": 0, "out_dir": str(tmp_path / "run"),
                               "cohort_csv": str(cohort_csv), "models": ["replay:m"],
                               "replay": {"store": str(store)},
                               "decoding": {"temprature": 0.3}}))
    line = _one_error_line(_main_in_process(capsys, "run", "--config", str(cfg)), EXIT_VALIDATION)
    assert "temprature" in line


def test_genai_rag_k_zero_fails_before_the_audit_log_is_opened(tmp_path, cohort_csv, capsys):
    store, log = tmp_path / "store", tmp_path / "a.jsonl"
    store.mkdir()
    proc = _main_in_process(capsys, "genai", "--replay-store", str(store), "--cohort", str(cohort_csv),
                            "--model-id", "m", "--rag", "--rag-k", "0", "--audit-log", str(log),
                            "--out", str(tmp_path / "p.json"))
    assert _one_error_line(proc, EXIT_VALIDATION) == "error: --rag-k must be an integer >= 1, got 0"
    assert sorted(os.listdir(tmp_path)) == ["cohort.csv", "store"]


def test_genai_k_zero_is_validation_error(tmp_path, cohort_csv, capsys):
    store = tmp_path / "store"
    store.mkdir()
    out = tmp_path / "p.json"
    proc = _main_in_process(capsys, "genai", "--replay-store", str(store), "--cohort", str(cohort_csv),
                            "--model-id", "m", "--k", "0", "--out", str(out))
    line = _one_error_line(proc, EXIT_VALIDATION)
    assert "k must be >= 1, got 0" in line
    assert not out.exists()


def _assert_same_prepared_cohort(path, schema, seed):
    got = _prepare_cohort(path, schema, 0.2, seed)
    want = prepare_cohort_reference(path, schema, 0.2, seed)
    assert got.checksum == want.checksum
    assert got.rejection == want.rejection
    assert got.rejection.accepted == len(want.records)
    assert got.unlabeled == want.unlabeled
    assert got.split[:5] == want.split[:5]  # ids, seed and prevalences
    assert np.array_equal(got.split.train_rows, want.split.train_rows)
    assert np.array_equal(got.split.test_rows, want.split.test_rows)
    assert got.scaler.state_id == want.scaler.state_id
    assert got.test.records() == want.test
    assert got.X_train.tobytes() == want.X_train.tobytes()
    assert got.X_test.tobytes() == want.X_test.tobytes()
    for a, b in ((got.y_train, want.y_train), (got.y_test, want.y_test)):
        assert a.dtype == b.dtype and a.tolist() == b.tolist()
    assert got.case_ids == want.case_ids


@pytest.mark.parametrize("n", [50, 524, 5000])
@pytest.mark.parametrize("seed", range(5))
def test_prepare_cohort_matches_per_command_chain(tmp_path, schema, seed, n):
    path = tmp_path / "cohort.csv"
    path.write_bytes(serialize_cohort(generate_synthetic(n, seed=seed), schema))
    _assert_same_prepared_cohort(path, schema, seed)


def test_prepare_cohort_matches_per_command_chain_on_a_csv_with_rejected_rows(tmp_path, schema):
    """The large-cohort benchmark's input shape: valid rows with one row in a
    thousand broken (a placeholder, an out-of-range value, a record invariant)."""
    rng = np.random.default_rng(7)
    lines = serialize_cohort(generate_synthetic(5000, seed=7), schema).decode().splitlines()
    col = {name: i for i, name in enumerate(lines[0].split(","))}
    for j, (name, value) in enumerate([("SNOT22_BLN_TOTAL", "NA"), ("BLN_CT_TOTAL", "31"),
                                       ("Age", "17")] * 2):
        row = lines[int(rng.integers(1, len(lines)))].split(",")
        row[col["PATIENT_ID"]], row[col[name]] = f"reject_{j:05d}", value
        lines.insert(int(rng.integers(1, len(lines))), ",".join(row))
    path = tmp_path / "cohort.csv"
    path.write_text("\n".join(lines) + "\n")
    assert _prepare_cohort(path, schema, 0.2, 7).rejection.rejected == 6
    _assert_same_prepared_cohort(path, schema, 7)


@pytest.mark.parametrize("age_min", [18, 0])
def test_prepare_cohort_matches_per_command_chain_on_unlabeled_and_repeated_rows(tmp_path, age_min):
    """Rows rejected by a cell, by a record invariant (an age of 17 passes a
    schema minimum of 0) and by a repeated id, and rows without a 6-month
    outcome, in the same file."""
    doc = json.loads(resources.files("crsbench.data").joinpath("schema.json").read_bytes())
    next(c for c in doc["columns"] if c["name"] == "Age")["min"] = age_min
    schema = load_schema(_write(tmp_path / "schema.json", json.dumps(doc).encode()))
    rng = np.random.default_rng(11)
    lines = serialize_cohort(generate_synthetic(3000, seed=11), schema).decode().splitlines()
    col = {name: i for i, name in enumerate(lines[0].split(","))}
    for i in rng.choice(np.arange(1, len(lines)), size=120, replace=False).tolist():
        row = lines[i].split(",")
        row[col["SNOT22_6MO_TOTAL"]] = ["", "NA", "null"][i % 3]
        lines[i] = ",".join(row)
    for j, (name, value) in enumerate([("SEX", "x"), ("Age", "17"), ("PATIENT_ID", None)] * 4):
        row = lines[int(rng.integers(1, len(lines)))].split(",")
        if value is not None:  # a repeated id otherwise
            row[col["PATIENT_ID"]], row[col[name]] = f"reject_{j:05d}", value
        lines.insert(int(rng.integers(1, len(lines))), ",".join(row))
    path = tmp_path / "cohort.csv"
    path.write_text("\n".join(lines) + "\n")
    got = _prepare_cohort(path, schema, 0.2, 11)
    reasons = [why for _, why in got.rejection.rejections]
    assert len(reasons) == 12 and len(got.unlabeled) == 120
    assert sum(why.startswith("duplicate PATIENT_ID") for why in reasons) == 4
    assert ("age below 18: 17" in reasons) == (age_min == 0)
    _assert_same_prepared_cohort(path, schema, 11)


def test_run_builds_records_only_for_the_test_split(tmp_path, schema, monkeypatch, capsys):
    """The cohort stays a table all the way through: a run on 2,000 rows,
    400 of them in the test split, constructs no PatientRecord."""
    cohort = tmp_path / "cohort.csv"
    cohort.write_bytes(serialize_cohort(generate_synthetic(2000, seed=3), schema))
    built = []
    original = PatientRecord.__new__
    monkeypatch.setattr(PatientRecord, "__new__",
                        lambda cls, *args, **kwargs: (built.append(1), original(cls, *args, **kwargs))[1])
    cfg = _write(tmp_path / "c.json", json.dumps({
        "seed": 3, "out_dir": str(tmp_path / "run"), "cohort_csv": str(cohort),
        "models": ["logreg", "gnb", "heuristic"]}).encode())
    assert _main_in_process(capsys, "run", "--config", cfg).returncode == EXIT_OK
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert manifest["split"]["test"] == 400
    assert len(built) == 0


def test_synthetic_run_and_genai_build_no_records(tmp_path, schema, monkeypatch, capsys):
    """A run that synthesizes its cohort and replays a model, and a genai
    with retrieval on that cohort, construct no PatientRecord."""
    cohort = synthetic_table(300, seed=5)
    test = cohort.take(stratified_split(cohort, 0.2, seed=5).test_rows)
    template, index, store = load_prompt_template(), Bm25Index(load_corpus()), tmp_path / "store"
    for block in case_blocks(test, schema):
        for passages in (None, index.retrieve(block, k=5)[0]):
            store_replay_responses(store, build_prompt([block], template, passages)[1],
                                   ["PREDICTION: 1\nCONFIDENCE: neutral"] * 5)
    built = []
    original = PatientRecord.__new__
    monkeypatch.setattr(PatientRecord, "__new__",
                        lambda cls, *args, **kwargs: (built.append(1), original(cls, *args, **kwargs))[1])
    run_dir = tmp_path / "run"
    cfg = _write(tmp_path / "c.json", json.dumps({
        "seed": 5, "out_dir": str(run_dir), "synthetic": {"n": 300},
        "models": ["heuristic", "replay:m"], "replay": {"store": str(store)}}).encode())
    assert _main_in_process(capsys, "run", "--config", cfg).returncode == EXIT_OK
    proc = _main_in_process(capsys, "genai", "--replay-store", str(store), "--rag",
                            "--cohort", str(run_dir / "cohort.csv"), "--seed", "5",
                            "--model-id", "m-rag", "--out", str(tmp_path / "rag.json"))
    assert proc.returncode == EXIT_OK, proc.stderr
    assert len(json.loads((tmp_path / "rag.json").read_text())["case_ids"]) == len(test) == 60
    assert len(built) == 0


REPLAY_VARIANTS = [
    ["PREDICTION: 1\nCONFIDENCE: very confident"] * 5,
    ["PREDICTION: 0\nCONFIDENCE: somewhat unsure"] * 3 + ["PREDICTION: 1\nCONFIDENCE: neutral"] * 2,
    ["PREDICTION: 1\nCONFIDENCE: very confident", "PREDICTION: 0\nCONFIDENCE: neutral"] * 2
    + ["no answer"],
    ["no answer"] * 5,
]


def test_genai_and_run_replay_write_identical_predictions(tmp_path, cohort_csv, schema):
    store = tmp_path / "store"
    for i, prompt_hash in enumerate(_test_split_prompt_hashes(cohort_csv, schema)):
        store_replay_responses(store, prompt_hash, REPLAY_VARIANTS[i % len(REPLAY_VARIANTS)])
    genai_out, genai_audit = tmp_path / "genai.json", tmp_path / "genai_audit.jsonl"
    assert main(["genai", "--replay-store", str(store), "--cohort", str(cohort_csv),
                 "--model-id", "m", "--audit-log", str(genai_audit),
                 "--out", str(genai_out)]) == EXIT_OK
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"seed": 0, "out_dir": str(tmp_path / "run"),
                               "cohort_csv": str(cohort_csv), "models": ["replay:m"],
                               "replay": {"store": str(store)}}))
    assert main(["run", "--config", str(cfg)]) == EXIT_OK
    via_genai = json.loads(genai_out.read_text())
    via_run = json.loads((tmp_path / "run" / "m_predictions.json").read_text())
    assert len(set(via_genai["scores"])) == 4  # every response variant was scored
    for key in ("case_ids", "labels", "scores", "hard_labels"):
        assert via_genai[key] == via_run[key]

    def untimed(path):
        docs = [json.loads(line) for line in path.read_text().splitlines()]
        for doc in docs[1:]:
            doc.pop("timestamp")
        return docs

    assert untimed(genai_audit) == untimed(tmp_path / "run" / "audit.jsonl")


def test_traces_curves_and_audit_lines_have_the_bytes_of_their_oracle_encodings(
        tmp_path, cohort_csv, schema):
    store = tmp_path / "store"
    escaped = ['PREDICTION: 0\nCONFIDENCE: neutral\n"R\u00e9sum\u00e9" \\ \u2014 \ud83d\x07'] * 5
    variants = [*REPLAY_VARIANTS, escaped]
    for i, prompt_hash in enumerate(_test_split_prompt_hashes(cohort_csv, schema)):
        store_replay_responses(store, prompt_hash, variants[i % len(variants)])
    run_dir, genai_audit, cfg = tmp_path / "run", tmp_path / "genai_audit.jsonl", tmp_path / "c.json"
    cfg.write_text(json.dumps({"seed": 0, "out_dir": str(run_dir), "cohort_csv": str(cohort_csv),
                               "models": ["logreg", "heuristic", "replay:m"],
                               "replay": {"store": str(store)}}))
    assert main(["run", "--config", str(cfg)]) == EXIT_OK
    assert main(["genai", "--replay-store", str(store), "--cohort", str(cohort_csv),
                 "--model-id", "m", "--audit-log", str(genai_audit),
                 "--out", str(tmp_path / "genai.json")]) == EXIT_OK
    test = prepare_cohort_reference(cohort_csv, schema, 0.2, 0).test

    traces = "".join(json.dumps({"case_id": r.patient_id, **predict_heuristic(r).to_dict()}) + "\n"
                     for r in test)
    assert (run_dir / "heuristic_traces.jsonl").read_bytes() == traces.encode()

    def csv_bytes(rows):
        text = io.StringIO()
        csv.writer(text).writerows(rows)
        return text.getvalue().encode()

    for name in ("logreg", "heuristic", "m"):
        doc = json.loads((run_dir / f"{name}_predictions.json").read_text())
        report = evaluate(PredictionSet(tuple(doc["case_ids"]), np.array(doc["labels"]),
                                        np.array(doc["scores"]), np.array(doc["hard_labels"])), name)
        labels, scores = np.array(doc["labels"]), np.array(doc["scores"])
        curves = {curve: [list(points[0]), *(point.values() for point in points)] for curve, points in (
            ("roc", roc_points_per_threshold(labels, scores)),
            ("pr", pr_points_per_threshold(labels, scores)), ("net_benefit", report.net_benefit_curve))}
        curves["reliability"] = [list(report.reliability[0]._fields), *map(tuple, report.reliability)]
        for curve, rows in curves.items():
            assert (run_dir / "reports" / "curves" / f"{name}_{curve}.csv").read_bytes() == csv_bytes(rows)

    # the trials of both audit logs: vendor, access date and decoding at their defaults
    client, identity = ReplayClient(store), ModelIdentity("replay", "m", "1970-01-01")
    template = load_prompt_template()
    untimed = [transcript_bytes(run_trial(client, r.patient_id, serialize_case(r, schema), identity,
                                          DecodingParams(), template), include_timestamp=False)
               for r in test]
    for audit in (run_dir / "audit.jsonl", genai_audit):
        header, *lines = audit.read_bytes().split(b"\n")[:-1]
        assert header == b'{"audit_schema_version": 1}'
        assert [re.sub(rb', "timestamp": [^,]+}$', b"}", line) for line in lines] == untimed


def test_preprocess_reads_ids_behind_a_byte_order_mark(tmp_path, cohort_csv):
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + cohort_csv.read_bytes())
    for path, out in ((cohort_csv, "plain"), (bom, "bom")):
        assert main(["preprocess", "--cohort", str(path), "--out-dir", str(tmp_path / out)]) == EXIT_OK
    split = json.loads((tmp_path / "bom" / "split.json").read_text())
    assert split == json.loads((tmp_path / "plain" / "split.json").read_text())
    assert all(i.startswith("syn_") for i in split["train_ids"] + split["test_ids"])


def test_preprocess_rejects_repeated_patient_ids(tmp_path):
    cohort = tmp_path / "c.csv"
    assert main(["synth", "--n", "200", "--seed", "3", "--out", str(cohort)]) == EXIT_OK
    lines = cohort.read_text().splitlines()
    dup = tmp_path / "dup.csv"
    dup.write_text("\n".join(lines + lines[1:41]) + "\n")  # rows 200-239 repeat rows 0-39
    assert main(["preprocess", "--cohort", str(dup), "--out-dir", str(tmp_path / "dup")]) == EXIT_OK
    rej = json.loads((tmp_path / "dup" / "rejections.json").read_text())
    assert (rej["rows_total"], rej["accepted"]) == (240, 200)
    first_id = lines[1].split(",")[0]
    assert rej["rejections"][0] == {"row": 200, "reason": f"duplicate PATIENT_ID {first_id} (first at row 0)"}
    split = json.loads((tmp_path / "dup" / "split.json").read_text())
    assert (len(split["train_ids"]), len(split["test_ids"])) == (160, 40)

    # a blank id on row 3 becomes case_0003, which a later row also claims
    rows = [line.split(",", 1) for line in lines]
    rows[4][0], rows[9][0] = "", "case_0003"
    clash = tmp_path / "clash.csv"
    clash.write_text("\n".join(",".join(r) for r in rows) + "\n")
    assert main(["preprocess", "--cohort", str(clash), "--out-dir", str(tmp_path / "clash")]) == EXIT_OK
    rej = json.loads((tmp_path / "clash" / "rejections.json").read_text())
    assert rej["accepted"] == 199
    assert rej["rejections"] == [{"row": 8, "reason": "duplicate PATIENT_ID case_0003 (first at row 3)"}]
    split = json.loads((tmp_path / "clash" / "split.json").read_text())
    assert len(split["train_ids"]) + len(split["test_ids"]) == 199


@pytest.mark.parametrize(
    "change, key",
    [
        pytest.param({"k": "abc"}, "k", id="k-not-an-integer"),
        pytest.param({"replay": "st"}, "replay", id="replay-not-an-object"),
    ],
)
def test_replay_config_of_the_wrong_type_is_validation_error(tmp_path, cohort_csv, capsys, change,
                                                            key):
    store = tmp_path / "store"
    store.mkdir()
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"seed": 0, "out_dir": str(tmp_path / "run"),
                               "cohort_csv": str(cohort_csv), "models": ["replay:m"],
                               "replay": {"store": str(store)}, **change}))
    line = _one_error_line(_main_in_process(capsys, "run", "--config", str(cfg)), EXIT_VALIDATION)
    assert f"config key {key} " in line


def _plant_test_split(cohort_csv, schema, store, n_cases=None):
    """Replay entries for the first ``n_cases`` test-split cases (all by default)."""
    reply = "PREDICTION: 1\nCONFIDENCE: neutral"
    for prompt_hash in _test_split_prompt_hashes(cohort_csv, schema)[:n_cases]:
        store_replay_responses(store, prompt_hash, [reply] * 5)


def test_killed_genai_leaves_only_whole_audit_lines(tmp_path, schema):
    cohort = tmp_path / "c.csv"
    assert main(["synth", "--n", "5000", "--seed", "2", "--out", str(cohort)]) == EXIT_OK
    store, audit = tmp_path / "store", tmp_path / "audit.jsonl"
    _plant_test_split(cohort, schema, store)
    src = str(Path(crsbench.__file__).resolve().parents[1])
    proc = subprocess.Popen(
        [sys.executable, "-m", "crsbench.cli", "genai", "--replay-store", str(store),
         "--cohort", str(cohort), "--model-id", "m", "--audit-log", str(audit),
         "--out", str(tmp_path / "p.json")],
        env=dict(os.environ, PYTHONPATH=src), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline and proc.poll() is None:
            if audit.exists() and audit.stat().st_size > 200:  # the header and part of a trial
                break
            time.sleep(0.001)
        proc.send_signal(signal.SIGKILL)
    finally:
        proc.wait(timeout=30)
    assert proc.returncode == -signal.SIGKILL  # killed mid-run, not finished
    lines = audit.read_bytes().split(b"\n")
    assert lines[-1] == b""  # the file ends at a line break
    docs = [json.loads(line) for line in lines[:-1]]
    assert docs[0] == {"audit_schema_version": 1}
    assert 1 <= len(docs) - 1 < 1000


def test_replay_miss_leaves_the_finished_trials_in_the_audit_log(tmp_path, cohort_csv, schema):
    store, audit = tmp_path / "store", tmp_path / "audit.jsonl"
    _plant_test_split(cohort_csv, schema, store, n_cases=6)  # trial 7 misses
    assert main(["genai", "--replay-store", str(store), "--cohort", str(cohort_csv),
                 "--model-id", "m", "--audit-log", str(audit),
                 "--out", str(tmp_path / "p.json")]) == EXIT_REPLAY_MISS
    lines = audit.read_text().splitlines()
    assert len(lines) == 1 + 6
    assert [json.loads(line)["aggregate"]["final_label"] for line in lines[1:]] == [1] * 6


def test_trial_commands_close_the_audit_log(tmp_path, cohort_csv, schema):
    full, partial = tmp_path / "full", tmp_path / "partial"
    _plant_test_split(cohort_csv, schema, full)
    _plant_test_split(cohort_csv, schema, partial, n_cases=3)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"seed": 0, "out_dir": str(tmp_path / "run"),
                               "cohort_csv": str(cohort_csv), "models": ["replay:m"],
                               "replay": {"store": str(partial)}}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["genai", "--replay-store", str(full), "--cohort", str(cohort_csv),
                     "--model-id", "m", "--audit-log", str(tmp_path / "a.jsonl"),
                     "--out", str(tmp_path / "p.json")]) == EXIT_OK
        assert main(["run", "--config", str(cfg)]) == EXIT_REPLAY_MISS
        gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
    assert len((tmp_path / "run" / "audit.jsonl").read_text().splitlines()) == 1 + 3


def test_each_run_starts_its_own_audit_log_and_genai_appends(tmp_path, cohort_csv, schema):
    store = tmp_path / "store"
    _plant_test_split(cohort_csv, schema, store)
    n_test = len(_test_split_prompt_hashes(cohort_csv, schema))
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"seed": 0, "out_dir": str(tmp_path / "run"),
                               "cohort_csv": str(cohort_csv), "models": ["replay:m"],
                               "replay": {"store": str(store)}}))
    genai = ["genai", "--replay-store", str(store), "--cohort", str(cohort_csv), "--model-id", "m",
             "--audit-log", str(tmp_path / "a.jsonl"), "--out", str(tmp_path / "p.json")]
    for _ in range(2):
        assert main(["run", "--config", str(cfg)]) == EXIT_OK
        assert main(genai) == EXIT_OK
    assert len((tmp_path / "run" / "audit.jsonl").read_text().splitlines()) == 1 + n_test
    assert len((tmp_path / "a.jsonl").read_text().splitlines()) == 1 + 2 * n_test


@pytest.mark.parametrize(
    "change, key",
    [
        pytest.param({"threshold": "x"}, "threshold", id="threshold-not-a-number"),
        pytest.param({"threshold": 1.5}, "threshold", id="threshold-above-one"),
        pytest.param({"threshold": True}, "threshold", id="threshold-a-boolean"),
        pytest.param({"loss": "hinge"}, "loss", id="unknown-loss"),
        pytest.param({"seed": "abc"}, "seed", id="seed-a-string"),
        pytest.param({"seed": 1.7}, "seed", id="seed-not-integral"),
        pytest.param({"seed": -1}, "seed", id="seed-negative"),
        pytest.param({"test_fraction": "x"}, "test_fraction", id="test-fraction-not-a-number"),
        pytest.param({"test_fraction": 1.5}, "test_fraction", id="test-fraction-above-one"),
        pytest.param({"test_fraction": 0}, "test_fraction", id="test-fraction-zero"),
        pytest.param({"synthetic": {"n": "x"}}, "synthetic", id="synthetic-n-not-a-number"),
        pytest.param({"synthetic": {"n": 0}}, "synthetic", id="synthetic-n-zero"),
        pytest.param({"synthetic": {"n": 40.0}}, "synthetic", id="synthetic-n-not-an-integer"),
        pytest.param({"synthetic": "big"}, "synthetic", id="synthetic-not-an-object"),
        pytest.param({"models": "mlp"}, "models", id="models-a-string"),
        pytest.param({"models": ["mlp", "svm"]}, "models", id="models-unknown-kind"),
        pytest.param({"models": ["replay:"]}, "models", id="models-replay-without-id"),
        pytest.param({"models": [1]}, "models", id="models-not-strings"),
        pytest.param({"modles": ["gnb"]}, "'modles'", id="unknown-key"),
        pytest.param({"out_dir": 5}, "out_dir", id="out-dir-not-a-string"),
        pytest.param({"schema": 5}, "schema", id="schema-not-a-string"),
        pytest.param({"cohort_csv": 5}, "cohort_csv", id="cohort-csv-not-a-string"),
        pytest.param({"replay": {"store": 5}}, "replay", id="replay-store-not-a-string"),
        pytest.param({"models": ["gnb"], "k": 0}, "k", id="k-zero-without-replay-models"),
        pytest.param({"models": ["gnb"], "template": 5}, "template", id="template-not-a-string"),
        pytest.param({"models": ["gnb"], "decoding": {"temprature": 1}}, "decoding",
                     id="unknown-decoding-key-without-replay-models"),
        pytest.param({"models": ["gnb"], "replay": {"stor": "s"}}, "replay", id="unknown-replay-key"),
        pytest.param({"decoding": {"max_tokens": "x", "seed": "y"}}, "decoding",
                     id="decoding-values-not-integers"),
        pytest.param({"models": ["replay:../escaped"]}, "models", id="replay-id-escapes-out-dir"),
        pytest.param({"models": ["gnb", "replay:gnb"]}, "models", id="replay-id-repeats-a-model"),
        pytest.param({"models": ["gnb", "gnb"]}, "models", id="model-listed-twice"),
        pytest.param({"k": "5"}, "k", id="k-a-string"),
        pytest.param({"k": 5.0}, "k", id="k-a-float"),
        pytest.param({"k": True}, "k", id="k-a-boolean"),
        pytest.param({"synthetic": {"n": 40, "m": 1}}, "synthetic", id="unknown-synthetic-key"),
        pytest.param({"replay": {"store": "s", "x": 1}}, "replay", id="unknown-replay-key-beside-store"),
    ],
)
def test_bad_run_settings_fail_before_anything_is_written(tmp_path, cohort_csv, capsys, change, key):
    out_dir = tmp_path / "run"
    cfg = tmp_path / "c.json"
    config = {"seed": 0, "out_dir": str(out_dir), "cohort_csv": str(cohort_csv),
              "models": ["logreg", "mlp"], **change}
    if "synthetic" in change:  # the synthetic cohort is made only without a cohort_csv
        del config["cohort_csv"]
    cfg.write_text(json.dumps(config))
    line = _one_error_line(_main_in_process(capsys, "run", "--config", str(cfg)), EXIT_VALIDATION)
    assert f"config key {key} " in line
    assert not out_dir.exists()


@pytest.mark.parametrize("config", [5, [1], "seed"])
def test_run_config_that_is_not_an_object_is_validation_error(tmp_path, capsys, config):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    line = _one_error_line(_main_in_process(capsys, "run", "--config", str(cfg)), EXIT_VALIDATION)
    assert "config must be a JSON object" in line


@pytest.mark.parametrize(
    "case_ids, scores",
    [
        pytest.param([], [], id="empty"),
        pytest.param(["only"], [0.25], id="one-element"),
        pytest.param(["a", "b", "c", "d"], [float("nan"), float("inf"), -float("inf"), 1e-300],
                     id="non-finite"),
        pytest.param(["Zoë", "患者_1", "\u2028", 'q"uote\\'], [0.1, 0.2, 0.3, 1 / 3],
                     id="non-ascii"),
    ],
)
def test_predictions_file_is_laid_out_as_json_dumps_indent_1(tmp_path, case_ids, scores):
    labels = np.arange(len(case_ids)) % 2
    hard = 1 - labels
    path = tmp_path / "p.json"
    _write_predictions(path, "mlp-é", _case_fields(case_ids, labels), np.array(scores), hard)
    doc = {"model_name": "mlp-é", "case_ids": case_ids, "labels": labels.tolist(),
           "scores": scores, "hard_labels": hard.tolist()}
    assert path.read_bytes() == json.dumps(doc, indent=1).encode("utf-8")


def _write(path: Path, data: bytes) -> str:
    path.write_bytes(data)
    return str(path)


@pytest.fixture
def gnb_model(tmp_path, cohort_csv):
    out = tmp_path / "gnb.json"
    assert main(["train", "--cohort", str(cohort_csv), "--model", "gnb", "--out", str(out)]) == EXIT_OK
    return out


@pytest.mark.parametrize(
    "argv, flag",
    [
        pytest.param(["synth", "--n", "40", "--seed", "-1"], "--seed", id="synth-seed-negative"),
        pytest.param(["train", "--model", "gnb", "--seed", "-1"], "--seed", id="train-seed-negative"),
        pytest.param(["compare", "--seed", "-1"], "--seed", id="compare-seed-negative"),
        pytest.param(["predict", "--threshold", "7"], "--threshold", id="threshold-above-one"),
        pytest.param(["predict", "--threshold", "nan"], "--threshold", id="threshold-nan"),
        pytest.param(["preprocess", "--test-fraction", "1"], "--test-fraction", id="test-fraction-one"),
        pytest.param(["genai", "--model-id", "m", "--k", "-2"], "--k", id="k-negative"),
        pytest.param(["genai", "--model-id", "m", "--temperature", "nan"], "--temperature",
                     id="temperature-nan"),
        pytest.param(["genai", "--model-id", "m", "--top-p", "1.5"], "--top-p", id="top-p-above-one"),
        pytest.param(["importance", "--repeats", "0"], "--repeats", id="repeats-zero"),
        pytest.param(["importance", "--repeats", "-1"], "--repeats", id="repeats-negative"),
        pytest.param(["synth", "--n", "0", "--seed", "1"], "--n", id="synth-n-zero"),
    ],
)
def test_bad_flag_values_fail_before_anything_is_written(tmp_path, cohort_csv, gnb_model, capsys,
                                                         argv, flag):
    # every other flag is valid, so the command would otherwise run
    out, cohort = tmp_path / "out", str(cohort_csv)
    preds = _write(tmp_path / "p.json", json.dumps(GOOD_PREDICTIONS).encode())
    rest = {
        "synth": ["--out", str(out)],
        "train": ["--cohort", cohort, "--out", str(out)],
        "compare": ["--pred-a", preds, "--pred-b", preds, "--out", str(out)],
        "predict": ["--cohort", cohort, "--model-file", str(gnb_model), "--out", str(out)],
        "preprocess": ["--cohort", cohort, "--out-dir", str(out)],
        "genai": ["--cohort", cohort, "--replay-store", str(tmp_path), "--out", str(out)],
        "importance": ["--cohort", cohort, "--model-file", str(gnb_model), "--out", str(out)],
    }[argv[0]]
    line = _one_error_line(_main_in_process(capsys, *argv, *rest), EXIT_VALIDATION)
    assert line.startswith(f"error: {flag} must be ")
    assert not out.exists()


def test_row_and_repeat_counts_have_an_upper_bound():
    """``synth --n``, a run config's ``synthetic.n`` and ``importance
    --repeats`` are refused past their bounds by the rules ``main`` and
    ``run`` check before any command runs. The rules are called directly: a
    command asking for 10**30 rows would grow memory until it was killed."""
    for key, bound in (("n", cli.MAX_ROWS), ("repeats", cli.MAX_REPEATS)):
        rule = cli._FLAG_RULES[key]
        assert checked(bound, rule, cli.CliError) == bound
        for value in (bound + 1, 10**30):
            with pytest.raises(cli.CliError) as bad:
                checked(value, rule, cli.CliError, f"--{key}")
            assert str(bad.value).startswith(f"--{key} must be an integer in [1, {bound}], got ")

    def config(n):
        return load_json(json.dumps({"seed": 0, "synthetic": {"n": n}}), cli._RUN_CONFIG, cli.CliError,
                         "config")

    assert config(cli.MAX_ROWS).synthetic == {"n": cli.MAX_ROWS}
    for n in (cli.MAX_ROWS + 1, 10**30):
        with pytest.raises(cli.CliError) as bad:
            config(n)
        assert str(bad.value).startswith("config key synthetic must be an object whose n is an "
                                         f"integer in [1, {cli.MAX_ROWS}], got ")


def _report_dir(tmp_path: Path, doc) -> list[str]:
    run_dir = tmp_path / "reports"
    run_dir.mkdir()
    (run_dir / "m_report.json").write_text(json.dumps(doc))
    return ["report", "--run-dir", str(run_dir)]


GOOD_REPORT = {"model_name": "m", "auroc": 0.5,
               "threshold_metrics": {"accuracy": 0.5, "balanced_accuracy": 0.5}}


def _predict_with_model(tmp_path: Path, cohort, **changes) -> list[str]:
    """predict with a logreg model file whose top-level keys ``changes`` replace."""
    model_file = tmp_path / "m.json"
    assert main(["train", "--cohort", str(cohort), "--model", "logreg", "--out", str(model_file)]) == EXIT_OK
    model_file.write_text(json.dumps({**json.loads(model_file.read_text()), **changes}))
    return ["predict", "--model-file", str(model_file), "--cohort", str(cohort),
            "--out", str(tmp_path / "p.json")]


def _evaluate(tmp_path: Path, **changes) -> list[str]:
    return ["evaluate", "--out-dir", str(tmp_path / "ev"), "--predictions",
            _write(tmp_path / "p.json", json.dumps({**GOOD_PREDICTIONS, **changes}).encode())]


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda tmp, cohort: ["run", "--config", str(tmp)], id="run-config-a-directory"),
        pytest.param(lambda tmp, cohort: ["run", "--config", _write(tmp / "c.json", b'{"seed": "\xff"}')],
                     id="run-config-not-utf8"),
        pytest.param(lambda tmp, cohort: ["evaluate", "--out-dir", str(tmp / "ev"),
                                          "--predictions", _write(tmp / "p.json", b'{"\xff": 1}')],
                     id="predictions-not-utf8"),
        pytest.param(lambda tmp, cohort: ["train", "--cohort", str(cohort), "--model", "gnb",
                                          "--out", str(tmp)], id="train-out-a-directory"),
        pytest.param(lambda tmp, cohort: _report_dir(tmp, {"model_name": "m", "auroc": 0.5}),
                     id="report-without-threshold-metrics"),
        pytest.param(lambda tmp, cohort: _report_dir(tmp, [1]), id="report-a-list"),
        pytest.param(lambda tmp, cohort: ["rag-build", "--corpus", _write(
            tmp / "corpus.json", json.dumps([{"source_tag": "s", "text": "t"}]).encode())],
                     id="corpus-entry-without-passage-id"),
        pytest.param(lambda tmp, cohort: ["evaluate", "--out-dir", str(tmp / "ev"), "--predictions", _write(
            tmp / "p.json", json.dumps({**GOOD_PREDICTIONS, "model_name": "../escaped"}).encode())],
                     id="model-name-escapes-out-dir"),
        pytest.param(lambda tmp, cohort: ["genai", "--replay-store", "", "--cohort", str(cohort),
                                          "--model-id", "m", "--out", str(tmp / "p.json")],
                     id="replay-store-empty"),
        pytest.param(lambda tmp, cohort: ["evaluate", "--out-dir", str(tmp / "ev"), "--name", ".hidden",
                                          "--predictions", _write(tmp / "p.json",
                                                                  json.dumps(GOOD_PREDICTIONS).encode())],
                     id="name-not-a-stem"),
        pytest.param(lambda tmp, cohort: _predict_with_model(tmp, cohort, feature_names="x" * 21),
                     id="model-feature-names-a-string"),
        pytest.param(lambda tmp, cohort: _predict_with_model(tmp, cohort, feature_names=list(range(21))),
                     id="model-feature-names-integers"),
        pytest.param(lambda tmp, cohort: _predict_with_model(tmp, cohort, class_weights="ab"),
                     id="model-class-weights-a-string"),
        pytest.param(lambda tmp, cohort: _predict_with_model(tmp, cohort, metadata=5),
                     id="model-metadata-a-number"),
        pytest.param(lambda tmp, cohort: _predict_with_model(tmp, cohort, training_seed="x"),
                     id="model-training-seed-a-string"),
        pytest.param(lambda tmp, cohort: _predict_with_model(
            tmp, cohort, loss_config={"kind": "weighted", "gamma": "2", "alpha": 0.25}),
                     id="model-gamma-a-string"),
        pytest.param(lambda tmp, cohort: _report_dir(tmp, {**GOOD_REPORT, "model_name": None}),
                     id="report-model-name-null"),
        pytest.param(lambda tmp, cohort: _report_dir(tmp, {**GOOD_REPORT, "auroc": True}),
                     id="report-auroc-a-boolean"),
        pytest.param(lambda tmp, cohort: _evaluate(tmp, labels=[False, True, True]),
                     id="predictions-labels-booleans"),
        pytest.param(lambda tmp, cohort: _evaluate(tmp, scores=[True, False, True]),
                     id="predictions-scores-booleans"),
    ],
)
def test_bad_input_at_the_cli_boundary_is_one_line_validation_error(tmp_path, cohort_csv, capsys, make):
    argv = make(tmp_path, cohort_csv)
    before = sorted(tmp_path.iterdir())
    _one_error_line(_main_in_process(capsys, *argv), EXIT_VALIDATION)
    assert sorted(tmp_path.iterdir()) == before  # nothing written, in or out of the output dirs


def test_readme_run_config_table_lists_every_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("| key | default | rule |", 1)[1].split("\n\n", 1)[0]
    assert re.findall(r"^\| `(\w+)` \|", table, re.M) == list(RunConfig._fields)


# Documents that json.loads cannot read although they are UTF-8: an integer
# past the interpreter's 4,300-digit limit, and nesting past its recursion limit.
UNREADABLE_JSON = {
    "long-integer": b'{"seed": ' + b"9" * 5000 + b"}",
    "deep-nesting": b"[" * 100_000 + b"]" * 100_000,
}


def _json_boundary_argv(boundary, tmp, cohort, schema, doc: bytes):
    """The argv whose ``boundary`` document is ``doc``; every other input is valid."""
    path = _write(tmp / "doc.json", doc)
    cohort = str(cohort)
    if boundary == "report":
        (tmp / "reports").mkdir()
        _write(tmp / "reports" / "m_report.json", doc)
        return ["report", "--run-dir", str(tmp / "reports")]
    if boundary == "replay-entry":
        _plant_replay_store(tmp / "store", Path(cohort), schema, doc)
        return ["genai", "--replay-store", str(tmp / "store"), "--cohort", cohort,
                "--model-id", "m", "--out", str(tmp / "p.json")]
    return {
        "run-config": ["run", "--config", path],
        "predictions": ["evaluate", "--predictions", path, "--out-dir", str(tmp / "ev")],
        "model": ["predict", "--model-file", path, "--cohort", cohort, "--out", str(tmp / "p.json")],
        "corpus": ["rag-build", "--corpus", path],
        "schema": ["preprocess", "--schema", path, "--cohort", cohort, "--out-dir", str(tmp / "pre")],
    }[boundary]


@pytest.mark.parametrize("defect", list(UNREADABLE_JSON))
@pytest.mark.parametrize("boundary, code", [
    ("run-config", EXIT_VALIDATION), ("predictions", EXIT_VALIDATION), ("model", EXIT_VALIDATION),
    ("corpus", EXIT_VALIDATION), ("report", EXIT_VALIDATION), ("schema", EXIT_VALIDATION),
    ("replay-entry", EXIT_REPLAY_MISS),
])
def test_unreadable_json_at_each_boundary_is_one_line_error(tmp_path, cohort_csv, schema, capsys,
                                                            boundary, code, defect):
    argv = _json_boundary_argv(boundary, tmp_path, cohort_csv, schema, UNREADABLE_JSON[defect])
    line = _one_error_line(_main_in_process(capsys, *argv), code)
    assert "not UTF-8 JSON" in line


# -- artifact writes ----------------------------------------------------------


def test_a_failed_write_leaves_the_old_artifact_whole(tmp_path, gnb_model):
    cohort, out = tmp_path / "c.csv", tmp_path / "p.json"
    assert main(["synth", "--n", "524", "--seed", "1", "--out", str(cohort)]) == EXIT_OK
    argv = ("predict", "--cohort", str(cohort), "--model-file", str(gnb_model), "--out", str(out))
    assert main(list(argv)) == EXIT_OK
    before, names = out.read_bytes(), sorted(os.listdir(tmp_path))
    limit = 2048  # bytes the child may write to any one file
    assert len(before) > limit
    # Python ignores SIGXFSZ, so a write past the limit raises EFBIG
    proc = _run_cli(*argv, timeout=60, preexec_fn=lambda: resource.setrlimit(
        resource.RLIMIT_FSIZE, (limit, limit)))
    assert _one_error_line(proc, EXIT_VALIDATION) == "error: [Errno 27] File too large"
    assert out.read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == names  # no temporary file is left


@pytest.mark.parametrize("command", ["train", "predict", "genai", "compare", "importance"])
def test_every_out_flag_creates_its_directory(tmp_path, cohort_csv, gnb_model, schema, capsys,
                                              command):
    cohort, model, store, preds = str(cohort_csv), str(gnb_model), tmp_path / "store", tmp_path / "p.json"
    if command == "genai":
        _plant_test_split(cohort_csv, schema, store)
    if command == "compare":
        assert main(["predict", "--cohort", cohort, "--model-file", model, "--out", str(preds)]) == EXIT_OK
    argv = {
        "train": ["--cohort", cohort, "--model", "gnb"],
        "predict": ["--cohort", cohort, "--model-file", model],
        "genai": ["--cohort", cohort, "--replay-store", str(store), "--model-id", "m"],
        "compare": ["--pred-a", str(preds), "--pred-b", str(preds)],
        "importance": ["--cohort", cohort, "--model-file", model, "--repeats", "2"],
    }[command]
    out = tmp_path / "new" / "dir" / "out.json"
    proc = _main_in_process(capsys, command, *argv, "--out", str(out))
    assert proc.returncode == EXIT_OK, proc.stderr
    assert json.loads(out.read_text())


def test_an_out_path_that_is_not_a_regular_file_is_written_in_place(tmp_path, cohort_csv, gnb_model,
                                                                     capsys):
    preds, link = tmp_path / "p.json", tmp_path / "sink.json"
    assert main(["predict", "--cohort", str(cohort_csv), "--model-file", str(gnb_model),
                 "--out", str(preds)]) == EXIT_OK
    link.symlink_to(os.devnull)
    names = sorted(os.listdir(tmp_path))
    proc = _main_in_process(capsys, "compare", "--pred-a", str(preds), "--pred-b", str(preds),
                            "--out", str(link))
    assert proc.returncode == EXIT_OK, proc.stderr
    assert link.is_symlink() and os.readlink(link) == os.devnull
    assert sorted(os.listdir(tmp_path)) == names


def test_an_out_symlink_to_a_file_is_written_through(tmp_path, cohort_csv, gnb_model, capsys):
    """A symlinked --out (as /dev/stdout is when the shell redirects it to a
    file) keeps its link and the file it names gets the new document."""
    preds, target, link = tmp_path / "p.json", tmp_path / "target.json", tmp_path / "link.json"
    assert main(["predict", "--cohort", str(cohort_csv), "--model-file", str(gnb_model),
                 "--out", str(preds)]) == EXIT_OK
    target.write_text("old")
    link.symlink_to(target)
    names = sorted(os.listdir(tmp_path))
    proc = _main_in_process(capsys, "compare", "--pred-a", str(preds), "--pred-b", str(preds),
                            "--out", str(link))
    assert proc.returncode == EXIT_OK, proc.stderr
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert json.loads(target.read_text())["model_a"]
    assert sorted(os.listdir(tmp_path)) == names


# -- the schema boundary --------------------------------------------------------

_SCHEMA = json.loads(resources.files("crsbench.data").joinpath("schema.json").read_bytes())


def _schema_argvs(tmp_path, cohort_csv, doc) -> list[list[str]]:
    """synth and preprocess (parse, split, scale, encode) under the schema ``doc``."""
    path = _write(tmp_path / "schema.json", json.dumps(doc).encode())
    return [["synth", "--n", "40", "--seed", "1", "--force", "--out", str(tmp_path / "s.csv"),
             "--schema", path],
            ["preprocess", "--cohort", str(cohort_csv), "--out-dir", str(tmp_path / "prep"),
             "--schema", path]]


def _changed_schema(change):
    doc = json.loads(json.dumps(_SCHEMA))
    changed = change(doc)
    return doc if changed is None else changed


@pytest.mark.parametrize(
    "change",
    [
        pytest.param(lambda doc: [], id="a-list"),
        pytest.param(lambda doc: doc.update(columns=[1]), id="column-a-number"),
        pytest.param(lambda doc: doc.update(encodings={"A": 1}), id="encoding-a-number"),
        pytest.param(lambda doc: doc["encodings"].update(SEX={"Female": "0", "Male": "1"}),
                     id="string-codes"),
        pytest.param(lambda doc: doc["columns"][1].update(min="x"), id="string-min"),
        pytest.param(lambda doc: doc["continuous"].append("SEX"), id="enum-column-continuous"),
        pytest.param(lambda doc: doc.update(blocklist=[1]), id="number-in-blocklist"),
        pytest.param(lambda doc: doc["columns"][3].update(required="no"), id="string-required"),
        pytest.param(lambda doc: doc["columns"][2].update(name="FOO"), id="column-without-field"),
    ],
)
def test_schema_of_the_wrong_shape_is_a_validation_error(tmp_path, cohort_csv, capsys, change):
    for argv in _schema_argvs(tmp_path, cohort_csv, _changed_schema(change)):
        line = _one_error_line(_main_in_process(capsys, *argv), EXIT_VALIDATION)
        assert line.startswith("error: ") and "schema" in line, line


# -- fuzz of every JSON boundary ------------------------------------------------

_TEXT = st.text(st.characters(exclude_characters="/"), max_size=8)  # a drawn path stays relative
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 12) | st.floats() | _TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_TEXT, inner, max_size=3),
    max_leaves=6,
)


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory, schema):
    """An 80-row cohort, a store that replays every test case of it, and a
    valid document of each boundary of ``_json_boundary_argv`` over them; the
    values the fuzz draws replace parts of these documents."""
    root = tmp_path_factory.mktemp("fuzz")
    cohort = root / "cohort.csv"
    assert main(["synth", "--n", "80", "--seed", "1", "--out", str(cohort)]) == EXIT_OK
    (root / "schema.json").write_bytes(
        resources.files("crsbench.data").joinpath("schema.json").read_bytes())
    (root / "template.txt").write_text(load_prompt_template(), encoding="utf-8")
    store = root / "store"
    store.mkdir()
    _plant_test_split(cohort, schema, store)
    config = {
        "seed": 0, "out_dir": "run", "schema": str(root / "schema.json"), "cohort_csv": str(cohort),
        "synthetic": {"n": 40}, "models": ["gnb", "heuristic", "replay:m"], "threshold": 0.5,
        "loss": "weighted", "test_fraction": 0.2, "k": 2, "template": str(root / "template.txt"),
        "decoding": {"temperature": 0.2, "top_p": 0.9, "max_tokens": 64, "seed": 3},
        "replay": {"store": str(store), "vendor": "v", "access_date": "2026-01-01"},
    }
    assert set(config) == set(RunConfig._fields)
    assert main(["train", "--cohort", str(cohort), "--model", "logreg", "--out", str(root / "m.json")]) == EXIT_OK
    preds = _write(root / "p.json", json.dumps(GOOD_PREDICTIONS).encode())
    assert main(["evaluate", "--predictions", preds, "--out-dir", str(root / "ev")]) == EXIT_OK
    docs = {
        "run-config": config,
        "predictions": GOOD_PREDICTIONS,
        "model": json.loads((root / "m.json").read_text()),
        "corpus": json.loads(resources.files("crsbench.data").joinpath("corpus.json").read_bytes()),
        "report": json.loads((root / "ev" / "m_report.json").read_text()),
        "schema": _SCHEMA,
        "replay-entry": {"responses": ["PREDICTION: 1\nCONFIDENCE: high", "PREDICTION: 0",
                                       "CONFIDENCE: low", "PREDICTION: 0\nCONFIDENCE: neutral",
                                       "PREDICTION: 1\nCONFIDENCE: very low"]},
    }
    return root, cohort, docs


def _nodes(node, at=()):
    """The path and value of ``node`` and of every value inside it."""
    yield at, node
    inner = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in inner:
        yield from _nodes(value, (*at, key))


@st.composite
def _mutated(draw, doc):
    """``doc`` with the value at one path, the root and nested ones included,
    dropped or replaced, or with a key added to the object there. A new value
    is an arbitrary JSON value or a string the document holds."""
    doc = json.loads(json.dumps(doc))
    nodes = list(_nodes(doc))
    words = sorted({v for _, v in nodes if isinstance(v, str) and "/" not in v})
    where, node = draw(st.sampled_from(nodes))
    value = draw(_JSON | st.sampled_from(words)) if words else draw(_JSON)
    how = draw(st.sampled_from(["drop", "add", "replace"]))
    if how == "add" and isinstance(node, dict):
        node[draw(_TEXT.filter(lambda k: k not in node))] = value
        return doc
    if not where:
        return value
    *outer, last = where
    parent = doc
    for key in outer:
        parent = parent[key]
    if how == "drop":
        del parent[last]
    else:
        parent[last] = value
    return doc


@pytest.mark.parametrize("boundary", ["run-config", "predictions", "model", "corpus", "report",
                                      "schema", "replay-entry"])
@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_json_document_exits_with_a_documented_code(fuzz_inputs, schema, capsys, boundary,
                                                           data):
    root, cohort, docs = fuzz_inputs
    doc = json.dumps(data.draw(_mutated(docs[boundary]))).encode()
    work = Path(tempfile.mkdtemp(dir=root))
    argvs = [_json_boundary_argv(boundary, work, cohort, schema, doc)]
    if boundary == "schema":  # synth serializes a cohort under the schema, preprocess parses one
        argvs.append(["synth", "--n", "40", "--seed", "1", "--out", str(work / "s.csv"),
                      "--schema", str(work / "doc.json")])
    cwd = os.getcwd()
    os.chdir(work)  # a run config's out_dir is relative, by the base config or by its default
    try:
        for argv in argvs:
            proc = _main_in_process(capsys, *argv, timeout=60)
            assert proc.returncode in (EXIT_OK, EXIT_VALIDATION, EXIT_LEAKAGE, EXIT_REPLAY_MISS,
                                       EXIT_NUMERIC)
            assert len(proc.stderr.splitlines()) <= 1 and "Traceback" not in proc.stderr, proc.stderr
    finally:
        os.chdir(cwd)

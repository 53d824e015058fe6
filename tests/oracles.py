"""Independent brute-force oracles, written before (and apart from) the
implementations they check. Table-driven and O(n^2) on purpose."""

from __future__ import annotations

import json
from fractions import Fraction
from types import SimpleNamespace

import numpy as np

# --- rule-engine oracle ----------------------------------------------------
# Bracket tables as (inclusive_low, exclusive_high, multiplier) rows, scanned
# linearly; None bounds mean open-ended.

SNOT_TABLE = [
    (None, 25, 0.5),
    (25, 40, 0.7),
    (40, 60, 1.0),
    (60, 80, 1.1),
    (80, None, 1.2),
]
ENDO_TABLE = [
    (None, 4, 0.8),
    (4, 7, 0.9),
    (7, 11, 1.0),
    (11, None, 1.1),
]
CT_TABLE = [
    (None, 7, 0.85),
    (7, 13, 1.0),
    (13, None, 1.1),
]
PENALTIES = {
    "depression": 0.7,
    "fibromyalgia": 0.7,
    "smoker": 0.85,
    "copd": 0.8,
    "asthma": 0.9,
    "osa": 0.9,
    "diabetes": 0.9,
    "gerd": 0.95,
    "asa_intolerance": 0.9,
    "previous_surgery": 0.85,
}
CONFIDENCE_TABLE = [
    (15.0, None, "very confident"),
    (10.0, 15.0, "somewhat confident"),
    (6.0, 10.0, "neutral"),
    (3.0, 6.0, "somewhat unsure"),
    (0.0, 3.0, "not at all confident"),
]


def _lookup(table, value):
    for lo, hi, mult in table:
        if (lo is None or value >= lo) and (hi is None or value < hi):
            return mult
    raise AssertionError(f"no bracket for {value}")


def oracle_rule(baseline, endo, ct, polyps, flags: dict, age):
    """Full rule chain as a flat table walk. Returns (delta, label, confidence)."""
    delta = 0.45 * baseline
    delta *= _lookup(SNOT_TABLE, baseline)
    delta *= _lookup(ENDO_TABLE, endo)
    delta *= _lookup(CT_TABLE, ct)
    if polyps:
        delta *= 1.05
    for name, on in flags.items():
        if on:
            delta *= PENALTIES[name]
    if age >= 65:
        delta *= 0.9
    label = 1 if delta > 9.0 else 0
    d = abs(delta - 9.0)
    confidence = None
    for lo, hi, word in CONFIDENCE_TABLE:
        if d >= lo and (hi is None or d < hi):
            confidence = word
            break
    return delta, label, confidence


# --- per-record rule chain and case renderer --------------------------------
# ``crsbench.heuristic`` and ``crsbench.protocol.serialize_case`` as they were
# before both worked on columns: one record at a time, brackets as if-chains,
# the trace a growing list and the case block built with attrgetters. The
# columnar rule chain and renderer must reproduce them byte for byte.


def _severity_multipliers_reference(snot22_baseline, endoscopy_total, ct_total, crs_polyps):
    if snot22_baseline < 25:
        snot = 0.5
    elif snot22_baseline < 40:
        snot = 0.7
    elif snot22_baseline < 60:
        snot = 1.0
    elif snot22_baseline < 80:
        snot = 1.1
    else:
        snot = 1.2

    if endoscopy_total <= 3:
        endo = 0.8
    elif endoscopy_total <= 6:
        endo = 0.9
    elif endoscopy_total <= 10:
        endo = 1.0
    else:
        endo = 1.1

    if ct_total <= 6:
        ct = 0.85
    elif ct_total <= 12:
        ct = 1.0
    else:
        ct = 1.1

    factors = [("snot_bracket", snot), ("endoscopy_bracket", endo), ("ct_bracket", ct)]
    if crs_polyps:
        factors.append(("polyps", 1.05))
    return factors


_PENALTY_TABLE_REFERENCE = (
    ("depression", "depression", 0.7),
    ("fibromyalgia", "fibromyalgia", 0.7),
    ("smoker", "smoker", 0.85),
    ("copd", "copd", 0.8),
    ("asthma", "asthma", 0.9),
    ("osa", "osa", 0.9),
    ("diabetes", "diabetes", 0.9),
    ("gerd", "gerd", 0.95),
    ("asa_intolerance", "asa_intolerance", 0.9),
    ("previous_surgery", "previous_surgery", 0.85),
)


def _penalty_multipliers_reference(record):
    factors = [
        (name, mult) for attr, name, mult in _PENALTY_TABLE_REFERENCE if getattr(record, attr)
    ]
    if record.age >= 65:
        factors.append(("age65", 0.9))
    return factors


def _confidence_band_reference(delta: float) -> str:
    d = abs(delta - 9.0)
    if d >= 15:
        return "very confident"
    if d >= 10:
        return "somewhat confident"
    if d >= 6:
        return "neutral"
    if d >= 3:
        return "somewhat unsure"
    return "not at all confident"


def predict_heuristic_reference(record) -> SimpleNamespace:
    """The full rule chain on one record; ``confidence`` is the band's word."""
    base = 0.45 * record.snot22_baseline
    trace = _severity_multipliers_reference(
        record.snot22_baseline, record.endoscopy_total, record.ct_total, record.crs_polyps
    )
    trace.extend(_penalty_multipliers_reference(record))
    delta = base
    for _, mult in trace:
        delta *= mult
    return SimpleNamespace(
        base_improvement=base,
        factor_trace=tuple(trace),
        adjusted_improvement=delta,
        predicted_6mo=max(0.0, record.snot22_baseline - delta),
        label=int(delta > 9.0),
        confidence=_confidence_band_reference(delta),
    )


def serialize_case_reference(record, schema) -> str:
    import operator

    from crsbench.cohort import COLUMN_TO_FIELD

    lines = [f"PATIENT_ID: {record.patient_id}"]
    for name in schema.column_names:
        if name in ("PATIENT_ID", "SNOT22_6MO_TOTAL"):
            continue
        value = operator.attrgetter(COLUMN_TO_FIELD[name])(record)
        lines.append(f"{name}: {int(value) if isinstance(value, bool) else value}")
    return "\n".join(lines)


def transcript_bytes(transcript, include_timestamp: bool = True) -> bytes:
    """A trial transcript as sorted-key JSON, the audit log's encoding."""
    doc = transcript.to_dict()
    if not include_timestamp:
        doc.pop("timestamp")
    return json.JSONEncoder(sort_keys=True).encode(doc).encode("utf-8")


def parse_response_reference(raw: str) -> tuple:
    """``crsbench.protocol.parse_response`` from its docstring, with no memo:
    (prediction, confidence, parser status). The first "PREDICTION:" field,
    in any case, names a token; less its trailing ".,;" it must be 0 or 1.
    The rest of the line after the first "CONFIDENCE:" field, lower-cased
    with its whitespace runs collapsed, must be one of the five levels."""
    import re

    from crsbench.protocol import ParserStatus
    from crsbench.vocab import Confidence

    field = re.search(r"prediction\s*:\s*(\S+)", raw, re.IGNORECASE)
    if field is None:
        return None, None, ParserStatus.MISSING_PREDICTION
    token = field.group(1).rstrip(".,;")
    if token not in ("0", "1"):
        return None, None, ParserStatus.MALFORMED
    field = re.search(r"confidence\s*:\s*([^\n\r]+)", raw, re.IGNORECASE)
    stated = " ".join(field.group(1).lower().split()) if field else None
    for level in Confidence:
        if level.value == stated:
            return int(token), level, ParserStatus.OK
    return int(token), None, ParserStatus.MISSING_CONFIDENCE


def aggregate_reference(outputs) -> tuple:
    """``crsbench.protocol.aggregate_replicates`` from its docstring, in exact
    arithmetic: a majority vote over the valid (status ``ok``) replicates; a
    tie goes to the sign of their mean proxy score (the confidence's value,
    negated for a 0); no valid replicate, or a mean of exactly 0, gives
    label 0 with a flag. Returns (final_label, mean_proxy, vote_counts,
    n_valid, flag), the mean as the float nearest the exact one."""
    from crsbench.vocab import CONFIDENCE_VALUE

    valid = [o for o in outputs if o.parser_status.value == "ok"]
    if not valid:
        return 0, None, (0, 0), 0, "unparseable"
    ones = sum(1 for o in valid if o.prediction == 1)
    zeros = len(valid) - ones
    total = sum(Fraction(CONFIDENCE_VALUE[o.confidence]) * (1 if o.prediction == 1 else -1)
                for o in valid)
    mean = Fraction(total) / len(valid)
    if ones != zeros:
        label, flag = int(ones > zeros), None
    elif mean != 0:
        label, flag = int(mean > 0), "tie_broken_by_proxy"
    else:
        label, flag = 0, "residual_tie"
    return label, float(mean), (zeros, ones), len(valid), flag


# --- ranking-metric oracles ------------------------------------------------


def auc_pair_count(labels, scores) -> float:
    """O(n0*n1) explicit pair enumeration: concordant + half ties."""
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=float)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    diff = pos[:, None] - neg[None, :]
    return (np.sum(diff > 0) + 0.5 * np.sum(diff == 0)) / (len(pos) * len(neg))


def ap_step_sum(labels, scores) -> float:
    """AP as sum over distinct thresholds of (recall step) * precision."""
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=float)
    n_pos = int(np.sum(labels == 1))
    thresholds = sorted(set(scores.tolist()), reverse=True)
    ap = 0.0
    prev_recall = 0.0
    for t in thresholds:
        taken = scores >= t
        tp = int(np.sum(taken & (labels == 1)))
        precision = tp / int(np.sum(taken))
        recall = tp / n_pos
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return ap


def sequential_bootstrap_values(metric, labels, scores, hard_labels, n_resamples, seed, cap=None):
    """Bootstrap metric values drawn one resample at a time, redrawing any
    resample that lost a class. Returns (values, redraws), or None as soon as
    the redraws exceed ``cap``."""
    labels = np.asarray(labels)
    rng = np.random.default_rng(seed)
    n = len(labels)
    values, redraws = [], 0
    while len(values) < n_resamples:
        idx = rng.integers(0, n, size=n)
        if len(np.unique(labels[idx])) < 2:
            redraws += 1
            if cap is not None and redraws > cap:
                return None
            continue
        resample = SimpleNamespace(
            labels=labels[idx], scores=np.asarray(scores)[idx], hard_labels=np.asarray(hard_labels)[idx]
        )
        values.append(metric(resample))
    return np.array(values), redraws


def paired_bootstrap_auc_diff_ci(labels, scores_a, scores_b, n_resamples=2000, seed=0):
    """Percentile CI of AUC(a) - AUC(b) under case-level paired resampling."""
    labels = np.asarray(labels)
    scores_a = np.asarray(scores_a, dtype=float)
    scores_b = np.asarray(scores_b, dtype=float)
    rng = np.random.default_rng(seed)
    n = len(labels)
    diffs = []
    while len(diffs) < n_resamples:
        idx = rng.integers(0, n, size=n)
        if len(np.unique(labels[idx])) < 2:
            continue
        diffs.append(
            auc_pair_count(labels[idx], scores_a[idx])
            - auc_pair_count(labels[idx], scores_b[idx])
        )
    return float(np.percentile(diffs, 2.5)), float(np.percentile(diffs, 97.5))


def roc_points_per_threshold(labels, scores) -> list[dict]:
    """ROC points by counting ``scores >= t`` afresh at every distinct t."""
    labels = np.asarray(labels, dtype=int)
    scores = np.asarray(scores, dtype=float)
    n1 = int(np.sum(labels == 1))
    n0 = int(np.sum(labels == 0))
    points = [{"threshold": float("inf"), "fpr": 0.0, "tpr": 0.0}]
    for t in sorted(set(scores.tolist()), reverse=True):
        pred = scores >= t
        points.append(
            {
                "threshold": float(t),
                "fpr": float(np.sum(pred & (labels == 0))) / n0 if n0 else 0.0,
                "tpr": float(np.sum(pred & (labels == 1))) / n1 if n1 else 0.0,
            }
        )
    return points


def pr_points_per_threshold(labels, scores) -> list[dict]:
    """P-R points by counting ``scores >= t`` afresh at every distinct t."""
    labels = np.asarray(labels, dtype=int)
    scores = np.asarray(scores, dtype=float)
    n1 = int(np.sum(labels == 1))
    points = []
    for t in sorted(set(scores.tolist()), reverse=True):
        pred = scores >= t
        tp = int(np.sum(pred & (labels == 1)))
        taken = int(np.sum(pred))
        points.append(
            {
                "threshold": float(t),
                "recall": tp / n1 if n1 else 0.0,
                "precision": tp / taken if taken else 1.0,
            }
        )
    return points


# --- tail-probability oracle -------------------------------------------------


def sign_test_p(k: int, total: int) -> float:
    """Two-sided exact sign-test p, min(1, 2 * P(X <= k)) for X ~ Bin(total, 1/2),
    from Pascal's triangle in exact fractions."""
    row = [Fraction(1)]
    for _ in range(total):
        row = [(a + b) / 2 for a, b in zip([Fraction(0)] + row, row + [Fraction(0)])]
    return float(min(Fraction(1), 2 * sum(row[: k + 1])))


# --- training-kernel oracles -------------------------------------------------
# The straightforward forms of the classifier kernels: a masked two-branch
# sigmoid, a two-log cross-entropy, a matmul outer product with a boolean ReLU
# scatter and allocating momentum updates. The lean MLP kernels in
# ``crsbench.models`` must reproduce these bit for bit; its Newton logreg fit
# must match the gradient-descent fit here within a stated tolerance.

_EPS = 1e-7


def sigmoid_two_branch(z):
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _loss_terms(p, y, loss, class_weights):
    p = np.clip(np.asarray(p, dtype=float), _EPS, 1.0 - _EPS)
    y = np.asarray(y, dtype=float)
    if loss.kind == "focal":
        pos = -loss.alpha * (1.0 - p) ** loss.gamma * np.log(p)
        neg = -(1.0 - loss.alpha) * p**loss.gamma * np.log(1.0 - p)
        return y * pos + (1.0 - y) * neg
    w = np.where(y == 1, class_weights[1], class_weights[0])
    return -w * (y * np.log(p) + (1.0 - y) * np.log(1.0 - p))


def _loss_grad_z(p, y, loss, class_weights):
    p = np.clip(np.asarray(p, dtype=float), _EPS, 1.0 - _EPS)
    y = np.asarray(y, dtype=float)
    if loss.kind == "weighted":
        w = np.where(y == 1, class_weights[1], class_weights[0])
        return w * (p - y)
    g, a = loss.gamma, loss.alpha
    grad_pos = a * (1.0 - p) ** g * (g * p * np.log(p) - (1.0 - p))
    grad_neg = (1.0 - a) * p**g * (p - g * (1.0 - p) * np.log(1.0 - p))
    return y * grad_pos + (1.0 - y) * grad_neg


def mlp_loss_and_grads_reference(params, X, y, loss, class_weights):
    n = X.shape[0]
    pre_hidden = X @ params["W1"] + params["b1"]
    hidden = np.maximum(0.0, pre_hidden)
    p = sigmoid_two_branch(hidden @ params["W2"] + params["b2"]).ravel()
    value = float(np.mean(_loss_terms(p, y, loss, class_weights)))
    gz = (_loss_grad_z(p, y, loss, class_weights) / n)[:, None]
    grads = {"W2": hidden.T @ gz, "b2": gz.sum(axis=0)}
    dhidden = gz @ params["W2"].T
    dhidden[pre_hidden <= 0] = 0.0
    grads["W1"] = X.T @ dhidden
    grads["b1"] = dhidden.sum(axis=0)
    return value, grads


def mlp_forward_reference(params, X):
    """The forward pass as one whole-matrix product: three (n, hidden) arrays."""
    hidden = np.maximum(0.0, X @ params["W1"] + params["b1"])
    return sigmoid_two_branch(hidden @ params["W2"] + params["b2"]).ravel()


class ReferenceDivergence(Exception):
    def __init__(self, epoch):
        self.epoch = epoch
        super().__init__(epoch)


def train_mlp_reference(X, y, params, loss, optimizer, class_weights, seed):
    """SGD with momentum and early stopping, one fancy-index gather per batch.

    ``params`` are the initial weights; returns ``(best_params, metadata)``.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    rng = np.random.default_rng(seed)
    n = X.shape[0]
    order = rng.permutation(n)
    n_val = max(1, int(round(n * optimizer.val_fraction)))
    val_idx, train_idx = order[:n_val], order[n_val:]
    Xt, yt = X[train_idx], y[train_idx]
    Xv, yv = X[val_idx], y[val_idx]
    params = {k: v.copy() for k, v in params.items()}
    velocity = {k: np.zeros_like(v) for k, v in params.items()}
    best = {k: v.copy() for k, v in params.items()}
    best_val, best_epoch, patience_left = np.inf, -1, optimizer.patience
    train_loss, epochs_run = np.nan, 0
    for epoch in range(optimizer.max_epochs):
        epochs_run = epoch + 1
        perm = rng.permutation(len(Xt))
        batch_losses = []
        for start in range(0, len(Xt), optimizer.batch_size):
            idx = perm[start : start + optimizer.batch_size]
            value, grads = mlp_loss_and_grads_reference(params, Xt[idx], yt[idx], loss, class_weights)
            if not np.isfinite(value):
                raise ReferenceDivergence(epoch)
            batch_losses.append(value)
            for key in params:
                velocity[key] = optimizer.momentum * velocity[key] - optimizer.learning_rate * grads[key]
                params[key] = params[key] + velocity[key]
        train_loss = float(np.mean(batch_losses))
        val_loss = float(np.mean(_loss_terms(mlp_forward_reference(params, Xv), yv, loss, class_weights)))
        if not np.isfinite(val_loss):
            raise ReferenceDivergence(epoch)
        if val_loss < best_val - 1e-12:
            best_val, best_epoch, patience_left = val_loss, epoch, optimizer.patience
            best = {k: v.copy() for k, v in params.items()}
        else:
            patience_left -= 1
            if patience_left <= 0:
                break
    return best, {"final_train_loss": train_loss, "final_val_loss": float(best_val),
                  "best_epoch": best_epoch, "epochs_run": epochs_run}


def train_logreg_reference(X, y, class_weights, l2=0.0, learning_rate=0.5, momentum=0.9,
                           max_epochs=5000, tol=1e-7):
    """Full-batch gradient descent with momentum, rebuilding the class weights
    every epoch, on the objective ``train_logreg`` minimises.

    Returns ``(params, metadata)``; the metadata holds ``train_logreg``'s keys
    but ``iterations``.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    loss = SimpleNamespace(kind="weighted")
    n, d = X.shape
    w, b = np.zeros(d), 0.0
    vw, vb = np.zeros(d), 0.0
    grad_norm = np.inf
    for epoch in range(max_epochs):
        p = sigmoid_two_branch(X @ w + b)
        gz = _loss_grad_z(p, y, loss, class_weights) / n
        gw = X.T @ gz + l2 * w
        gb = float(np.sum(gz))
        grad_norm = float(np.sqrt(np.sum(gw**2) + gb**2))
        if grad_norm < tol:
            break
        vw = momentum * vw - learning_rate * gw
        vb = momentum * vb - learning_rate * gb
        w = w + vw
        b = b + vb
        if not np.isfinite(w).all():
            raise ReferenceDivergence(epoch)
    final_loss = float(np.mean(_loss_terms(sigmoid_two_branch(X @ w + b), y, loss, class_weights)))
    return {"w": w, "b": np.array([b])}, {"final_train_loss": final_loss, "grad_norm": grad_norm, "l2": l2}


# --- scalar label oracle ------------------------------------------------------
# One case's label as ``crsbench.cohort.CohortTable.labels`` gives it for a
# whole column.


def derive_label(snot22_baseline: int, snot22_6mo: int) -> int:
    """1 iff the 6-month reduction reaches the MCID (>= 8.9 points)."""
    from crsbench.cohort import MCID_REDUCTION, CohortError

    if not (0 <= snot22_baseline <= 110 and 0 <= snot22_6mo <= 110):
        raise CohortError("SNOT-22 totals must lie in [0,110]")
    return int((snot22_baseline - snot22_6mo) >= MCID_REDUCTION)


# --- per-row encoder oracle -------------------------------------------------
# The record-at-a-time form of ``crsbench.cohort.encode_matrix``: the leakage
# guard per row, a ``tuple.index`` lookup per cell and ``scaler_transform`` per
# continuous value. The columnar encoder must reproduce its matrix bit for bit.


def scaler_transform(scaler, column: str, value: float) -> float:
    """One value of ``column`` standardized by a fitted ``Scaler``."""
    i = scaler.columns.index(column)
    return (value - scaler.means[i]) / scaler.sds[i]


def encode_row_reference(record, schema, scaler) -> list[float]:
    from crsbench.cohort import COLUMN_TO_FIELD, leakage_guard

    leakage_guard(list(schema.feature_order), schema.blocklist)
    values = []
    for name in schema.feature_order:
        raw = getattr(record, COLUMN_TO_FIELD[name])
        spec = schema.column(name)
        if spec.kind == "enum":
            values.append(float(schema.encodings[name][raw]))
        elif spec.kind == "bool":
            values.append(1.0 if raw else 0.0)
        elif name in schema.continuous:
            values.append(scaler_transform(scaler, name, float(raw)))
        else:
            values.append(float(raw))
    return values


def encode_matrix_reference(records, schema, scaler) -> np.ndarray:
    return np.array([encode_row_reference(r, schema, scaler) for r in records], dtype=float)


# --- per-command data path ----------------------------------------------------
# The read -> label -> split -> by-id -> scaler -> encode -> y chain that each
# CLI subcommand used to spell out for itself, reading with the row-at-a-time
# parser below. ``cli._prepare_cohort`` must give the same split, scaler
# state, matrix bytes, labels and case ids.


def prepare_cohort_reference(path, schema, test_fraction, seed) -> SimpleNamespace:
    import hashlib

    from crsbench.cohort import encode_matrix, fit_scaler, label_records, stratified_split

    data = path.read_bytes()
    records, rejection = dedupe_reference(*parse_cohort_reference(data, schema))
    labeled, labels, unlabeled = label_records(records)
    split = stratified_split(labeled, test_fraction, seed)
    by_id = {r.patient_id: r for r in labeled}
    train = [by_id[i] for i in sorted(split.train_ids)]
    test = [by_id[i] for i in sorted(split.test_ids)]
    scaler = fit_scaler(train, schema)
    return SimpleNamespace(
        checksum=hashlib.sha256(data).hexdigest(),
        records=records,
        rejection=rejection,
        unlabeled=unlabeled,
        split=split,
        scaler=scaler,
        test=test,
        X_train=encode_matrix(train, schema, scaler),
        X_test=encode_matrix(test, schema, scaler),
        y_train=np.array([labels[r.patient_id] for r in train]),
        y_test=np.array([labels[r.patient_id] for r in test]),
        case_ids=[r.patient_id for r in test],
    )


# --- row-at-a-time cohort parser ----------------------------------------------
# ``crsbench.cohort.parse_cohort`` as it was before it parsed in column blocks:
# a ``csv.DictReader`` dict and a kwargs dict per row, every cell stripped and
# checked on its own. Kept verbatim (helpers included) so the block parser is
# checked against code it does not share. It predates the duplicate-id rule
# and the byte-order-mark fix; ``dedupe_reference`` applies the former.


def _is_placeholder(value: str) -> bool:
    from crsbench.schema import PLACEHOLDERS

    return value.strip().lower() in PLACEHOLDERS


def _parse_cell(raw: str, spec, schema):
    """Parse one non-placeholder cell per its column spec. Raises ValueError."""
    value = raw.strip()
    if spec.kind == "int":
        parsed = int(value)
        if spec.min is not None and parsed < spec.min:
            raise ValueError(f"{spec.name}={parsed} below {spec.min}")
        if spec.max is not None and parsed > spec.max:
            raise ValueError(f"{spec.name}={parsed} above {spec.max}")
        return parsed
    if spec.kind == "bool":
        if value == "0":
            return False
        if value == "1":
            return True
        raise ValueError(f"{spec.name}: expected 0/1, got {value!r}")
    if spec.kind == "enum":
        if value not in schema.encodings[spec.name]:
            raise ValueError(f"{spec.name}: unknown category {value!r}")
        return value
    return value  # id


def parse_cohort_reference(csv_bytes: bytes, schema):
    """Parse a canonical cohort CSV into validated records.

    Rows with placeholders or malformed values in required fields are dropped
    and counted; a missing required column is a hard error naming the column.
    """
    import csv
    import io

    from crsbench.cohort import COLUMN_TO_FIELD, CohortError, PatientRecord, RejectionReport
    from crsbench.schema import SchemaError

    text = csv_bytes.decode("utf-8")
    reader = csv.DictReader(io.StringIO(text))
    header = reader.fieldnames
    if header is None:
        raise SchemaError("csv has no header row")
    for required in schema.required_columns:
        if required not in header:
            raise SchemaError(f"missing required column: {required}")

    records: list[PatientRecord] = []
    rejections: list[tuple[int, str]] = []
    rows_total = 0
    for idx, row in enumerate(reader):
        rows_total += 1
        kwargs = {}
        reason = None
        for spec in schema.columns:
            raw = row.get(spec.name)
            # a literal enum category ("None" insurance) beats the placeholder rule
            is_category = (
                raw is not None
                and spec.kind == "enum"
                and raw.strip() in schema.encodings[spec.name]
            )
            if not is_category and (raw is None or _is_placeholder(raw)):
                if spec.required:
                    reason = f"missing required field {spec.name}"
                    break
                if spec.name == "PATIENT_ID":
                    kwargs["patient_id"] = f"case_{idx:04d}"
                else:
                    kwargs[COLUMN_TO_FIELD[spec.name]] = None
                continue
            try:
                kwargs[COLUMN_TO_FIELD[spec.name]] = _parse_cell(raw, spec, schema)
            except ValueError as exc:
                reason = str(exc)
                break
        if reason is not None:
            rejections.append((idx, reason))
            continue
        try:
            records.append(PatientRecord(**kwargs))
        except CohortError as exc:
            rejections.append((idx, str(exc)))
    return records, RejectionReport(rows_total, len(records), tuple(rejections))


def dedupe_reference(records, report):
    """Reject each accepted row whose patient id repeats an earlier accepted row's."""
    from crsbench.cohort import RejectionReport

    rejected = {idx for idx, _ in report.rejections}
    accepted_rows = [idx for idx in range(report.rows_total) if idx not in rejected]
    kept, first_at, extra = [], {}, []
    for idx, rec in zip(accepted_rows, records):
        if rec.patient_id in first_at:
            extra.append(
                (idx, f"duplicate PATIENT_ID {rec.patient_id} (first at row {first_at[rec.patient_id]})")
            )
        else:
            first_at[rec.patient_id] = idx
            kept.append(rec)
    rejections = tuple(sorted(report.rejections + tuple(extra)))
    return kept, RejectionReport(report.rows_total, len(kept), rejections)


def save_model_reference(model) -> bytes:
    """The bytes of a model file as one ``json.dumps`` of the whole document."""
    doc = {
        "kind": model.kind,
        "feature_names": list(model.feature_names),
        "training_seed": model.training_seed,
        "loss_config": model.loss_config._asdict() if model.loss_config else None,
        "class_weights": list(model.class_weights),
        "schema_checksum": model.schema_checksum,
        "metadata": model.metadata,
        "params": {
            k: {"shape": list(v.shape), "data": v.ravel().tolist()}
            for k, v in model.params.items()
        },
    }
    return json.dumps(doc).encode("utf-8")

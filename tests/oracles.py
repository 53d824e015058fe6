"""Independent brute-force oracles, written before (and apart from) the
implementations they check. Table-driven and O(n^2) on purpose."""

from __future__ import annotations

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


def sequential_bootstrap_values(metric, labels, scores, hard_labels, n_resamples, seed):
    """Bootstrap metric values drawn one resample at a time, redrawing any
    resample that lost a class. Returns (values, redraws)."""
    labels = np.asarray(labels)
    rng = np.random.default_rng(seed)
    n = len(labels)
    values, redraws = [], 0
    while len(values) < n_resamples:
        idx = rng.integers(0, n, size=n)
        if len(np.unique(labels[idx])) < 2:
            redraws += 1
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

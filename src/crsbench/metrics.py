"""Evaluation and statistical-comparison engine.

Confusion/threshold metrics, tie-aware ranking metrics, calibration, decision
curves, paired tests (DeLong, McNemar), case-level bootstrap intervals, and
permutation feature importance. All functions are pure.

Every ranking quantity (mid-ranks, AUROC, AP, ROC/PR points, DeLong
placements) comes from one stable sort grouped by distinct score, as in the
fast DeLong algorithm of Sun & Xu (IEEE SPL 2014); ``evaluate`` sorts once
for AUROC, AP and the curves and counts once for AP and the curves, whose
rows it renders as the lines of the ROC and P-R files. The three tail
probabilities the paired tests need are closed forms over ``math``.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .jsondoc import replacing, write_json
from .records import record_type

CM_LAYOUT_NOTE = "[tn, fp; fn, tp] with class 0 = row 0"


class MetricError(ValueError):
    pass


@record_type
class ConfusionMatrix(NamedTuple):
    tn: int
    fp: int
    fn: int
    tp: int

    def _checked(self):
        if min(self.tn, self.fp, self.fn, self.tp) < 0:
            raise MetricError("confusion counts must be non-negative")
        return self

    @property
    def n(self) -> int:
        return self.tn + self.fp + self.fn + self.tp

    def as_rows(self) -> list[list[int]]:
        return [[self.tn, self.fp], [self.fn, self.tp]]


@record_type
class PredictionSet(NamedTuple):
    """Aligned per-case outputs for one model on one split."""

    case_ids: tuple[str, ...]
    labels: np.ndarray
    scores: np.ndarray
    hard_labels: np.ndarray

    def _checked(self):
        arrays = {}
        for name in ("labels", "hard_labels"):
            raw = np.asarray(getattr(self, name))
            if not np.all((raw == 0) | (raw == 1)):
                raise MetricError(f"{name} must be 0 or 1")
            arrays[name] = raw.astype(int)
        arrays["scores"] = scores = np.asarray(self.scores, dtype=float)
        n = len(self.case_ids)
        if not (len(arrays["labels"]) == len(scores) == len(arrays["hard_labels"]) == n):
            raise MetricError("PredictionSet fields must share one length")
        if not np.all(np.isfinite(scores)):
            raise MetricError("scores must be finite")
        if len(set(self.case_ids)) != n:
            raise MetricError("case_ids must be unique")
        return self._replace(**arrays)


def confusion(labels, hard_labels) -> ConfusionMatrix:
    labels = np.asarray(labels, dtype=int)
    hard = np.asarray(hard_labels, dtype=int)
    if labels.shape != hard.shape:
        raise MetricError("labels and hard_labels must be aligned")
    return ConfusionMatrix(
        tn=int(np.sum((labels == 0) & (hard == 0))),
        fp=int(np.sum((labels == 0) & (hard == 1))),
        fn=int(np.sum((labels == 1) & (hard == 0))),
        tp=int(np.sum((labels == 1) & (hard == 1))),
    )


def _ratio(num: int, den: int, flags: list[str], name: str) -> float:
    if den == 0:
        flags.append(f"{name}: zero denominator, reported as 0")
        return 0.0
    return num / den


def threshold_metrics(cm: ConfusionMatrix) -> dict:
    """Accuracy, per-class precision/recall, positive-class F1, balanced accuracy.

    Undefined ratios (zero denominators) are reported as 0 with a flag.
    """
    if cm.n == 0:
        raise MetricError("empty confusion matrix")
    flags: list[str] = []
    precision0 = _ratio(cm.tn, cm.tn + cm.fn, flags, "precision0")
    recall0 = _ratio(cm.tn, cm.tn + cm.fp, flags, "recall0")
    precision1 = _ratio(cm.tp, cm.tp + cm.fp, flags, "precision1")
    recall1 = _ratio(cm.tp, cm.tp + cm.fn, flags, "recall1")
    f1_den = 2 * cm.tp + cm.fp + cm.fn
    f1_pos = _ratio(2 * cm.tp, f1_den, flags, "f1_pos")
    return {
        "accuracy": (cm.tn + cm.tp) / cm.n,
        "precision0": precision0,
        "recall0": recall0,
        "precision1": precision1,
        "recall1": recall1,
        "f1_pos": f1_pos,
        "balanced_accuracy": (recall0 + recall1) / 2.0,
        "flags": flags,
    }


def balanced_accuracy(labels, hard_labels) -> float:
    return threshold_metrics(confusion(labels, hard_labels))["balanced_accuracy"]


class _Ranking(NamedTuple):
    """Cases grouped by distinct score after one stable ascending sort."""

    order: np.ndarray  # the stable argsort of the scores
    value: np.ndarray  # each group's score, as first met in input order
    size: np.ndarray  # cases per group
    pos: np.ndarray  # positives per group

    def per_case(self, per_group: np.ndarray) -> np.ndarray:
        """Spread one value per group back to the cases, in input order."""
        out = np.empty(len(self.order))
        out[self.order] = np.repeat(per_group, self.size)
        return out


def _rank(labels, scores) -> _Ranking:
    """Validate 0/1 labels and NaN-free scores; sort and group them once."""
    raw = np.asarray(labels)
    scores = np.asarray(scores, dtype=float)
    if raw.ndim != 1 or raw.shape != scores.shape:
        raise MetricError("labels and scores must be aligned 1-D arrays")
    if np.any(np.isnan(scores)):
        raise MetricError("scores must not be NaN")
    if not np.all((raw == 0) | (raw == 1)):
        raise MetricError("labels must be 0 or 1")
    labels = raw.astype(int)
    order = np.argsort(scores, kind="mergesort")
    z = scores[order]
    new_group = np.ones(len(z), dtype=bool)
    # `!=` rather than np.diff: inf - inf is NaN and would split tied infinities
    new_group[1:] = z[1:] != z[:-1]
    start = np.flatnonzero(new_group)
    size = np.diff(np.append(start, len(z)))
    cum_pos = np.concatenate(([0], np.cumsum(labels[order])))
    return _Ranking(order, z[start], size, cum_pos[start + size] - cum_pos[start])


def _midranks(before: np.ndarray, size: np.ndarray) -> np.ndarray:
    """1-based mid-rank of a tied group of ``size`` cases above ``before`` cases."""
    i, j = before, before + size
    return 0.5 * (i + j - 1) + 1.0


def _below(counts: np.ndarray) -> np.ndarray:
    """Cases in all lower groups, per group."""
    return np.cumsum(counts) - counts


def _rank_sum_auc(rank_sum: float, m: int, n0: int) -> float:
    return (rank_sum - m * (m + 1) / 2.0) / (m * n0)


def _auroc(r: _Ranking) -> float:
    """Tie-aware AUROC: (concordant + 0.5 * tied) / (n0 * n1), via mid-ranks."""
    m = int(np.sum(r.pos))
    n0 = len(r.order) - m
    if m == 0 or n0 == 0:
        raise MetricError("auroc requires both classes")
    # mid-ranks are half-integers, so this sum is exact in any order
    rank_sum = float(np.sum(_midranks(_below(r.size), r.size) * r.pos))
    return _rank_sum_auc(rank_sum, m, n0)


class _Counts(NamedTuple):
    """Every ROC and P-R operating point as integer counts: the distinct
    scores, highest first, with the cases (``taken``) and the positives
    (``tp``) scoring at or above each, out of ``n0`` negatives and ``n1``
    positives."""

    threshold: np.ndarray
    taken: np.ndarray
    tp: np.ndarray
    n0: int
    n1: int


def _descending_counts(r: _Ranking) -> _Counts:
    n1 = int(np.sum(r.pos))
    return _Counts(r.value[::-1], np.cumsum(r.size[::-1]), np.cumsum(r.pos[::-1]),
                   len(r.order) - n1, n1)


def _average_precision(c: _Counts) -> float:
    """Step-wise P-R integral; tied scores handled as one operating point."""
    if c.n1 == 0:
        raise MetricError("average_precision requires at least one positive")
    # cumsum adds the per-group terms left to right, highest score first
    return float(np.cumsum(c.tp / c.taken * np.diff(c.tp, prepend=0) / c.n1)[-1])


def brier(labels, probabilities) -> float:
    labels = np.asarray(labels, dtype=float)
    p = np.asarray(probabilities, dtype=float)
    if np.any((p < 0) | (p > 1)):
        raise MetricError("probabilities must lie in [0,1]")
    if len(p) == 0:
        raise MetricError("empty input")
    return float(np.mean((p - labels) ** 2))


class ReliabilityBin(NamedTuple):
    bin_center: float
    mean_prob: float | None  # None for empty bins
    empirical_rate: float | None
    count: int


def reliability_curve(labels, probabilities) -> list[ReliabilityBin]:
    """Ten equal-width bins on [0,1]; empty bins are emitted, not dropped."""
    bins = 10
    labels = np.asarray(labels, dtype=float)
    p = np.asarray(probabilities, dtype=float)
    idx = np.minimum((p * bins).astype(int), bins - 1) if len(p) else np.array([], dtype=int)
    out = []
    for b in range(bins):
        mask = idx == b
        count = int(np.sum(mask))
        center = (b + 0.5) / bins
        if count == 0:
            out.append(ReliabilityBin(center, None, None, 0))
        else:
            out.append(
                ReliabilityBin(center, float(p[mask].mean()), float(labels[mask].mean()), count)
            )
    return out


def net_benefit(labels, probabilities, thresholds) -> list[dict]:
    """Decision curve: NB(t) = TP/n - (FP/n) * t/(1-t), with reference curves."""
    labels = np.asarray(labels, dtype=int)
    p = np.asarray(probabilities, dtype=float)
    n = len(labels)
    if n == 0:
        raise MetricError("empty input")
    prevalence = float(np.mean(labels))
    rows = []
    for t in thresholds:
        if not (0.0 < t < 1.0):
            raise MetricError(f"threshold must lie strictly inside (0,1): {t}")
        treat = p >= t
        tp = int(np.sum(treat & (labels == 1)))
        fp = int(np.sum(treat & (labels == 0)))
        odds = t / (1.0 - t)
        rows.append(
            {
                "threshold": float(t),
                "net_benefit": tp / n - (fp / n) * odds,
                "treat_all": prevalence - (1.0 - prevalence) * odds,
                "treat_none": 0.0,
            }
        )
    return rows


def _normal_two_sided_p(z: float) -> float:
    """2 * P(Z > |z|) for a standard normal Z."""
    return math.erfc(abs(z) / math.sqrt(2.0))


def _chi2_1df_sf(x: float) -> float:
    """P(X > x) for X chi-square with one degree of freedom."""
    return math.erfc(math.sqrt(x / 2.0))


def _sign_test_p(k: int, total: int) -> float:
    """Two-sided exact binomial p: min(1, 2 * P(X <= k)), X ~ Bin(total, 1/2)."""
    tail = sum(math.comb(total, i) for i in range(k + 1))
    return min(1.0, 2.0 * (tail / 2**total))


def _delong_placements(labels, scores):
    """AUC and per-case structural components from one sort of all cases.

    A case's placement is its mid-rank among all cases minus its mid-rank
    within its own class, both read off the same groups.
    """
    r = _rank(labels, scores)
    is_pos = np.asarray(labels) == 1
    m = int(np.sum(r.pos))
    n = len(r.order) - m
    neg = r.size - r.pos
    mid = _midranks(_below(r.size), r.size)
    auc = _rank_sum_auc(float(np.sum(mid * r.pos)), m, n)
    v01 = r.per_case((mid - _midranks(_below(r.pos), r.pos)) / n)[is_pos]  # per positive
    v10 = r.per_case(1.0 - (mid - _midranks(_below(neg), neg)) / m)[~is_pos]  # per negative
    return auc, v01, v10


def delong_test(labels, scores_a, scores_b) -> dict:
    """Paired DeLong comparison of two correlated AUCs.

    AUC estimates use the same mid-rank formulation as ``evaluate``'s AUROC,
    so they match it bit-for-bit. Zero variance (e.g. identical score
    vectors) yields a flagged p-value of 1.
    """
    labels = np.asarray(labels)
    scores_a = np.asarray(scores_a, dtype=float)
    scores_b = np.asarray(scores_b, dtype=float)
    if not (len(labels) == len(scores_a) == len(scores_b)):
        raise MetricError("inputs must be aligned")
    if labels.size == 0 or labels.min() == labels.max():
        raise MetricError("delong_test requires both classes")

    auc_a, v01_a, v10_a = _delong_placements(labels, scores_a)
    auc_b, v01_b, v10_b = _delong_placements(labels, scores_b)
    m, n = len(v01_a), len(v10_a)

    def cov(u, v):  # 2x2 sample covariance of one class's paired placements
        return np.cov(np.vstack([u, v]), ddof=1) if len(u) >= 2 else np.zeros((2, 2))

    cov_matrix = cov(v01_a, v01_b) / m + cov(v10_a, v10_b) / n
    variance = cov_matrix[0, 0] + cov_matrix[1, 1] - 2.0 * cov_matrix[0, 1]
    diff = auc_a - auc_b

    flagged = False
    if variance <= 0:
        z, p_value, flagged = 0.0, 1.0, True
        se = 0.0
    else:
        se = math.sqrt(variance)
        z = diff / se
        p_value = _normal_two_sided_p(z)
    return {
        "auc_a": auc_a,
        "auc_b": auc_b,
        "variance": float(variance),
        "z": float(z),
        "p_value": p_value,
        "ci_95_diff": (diff - 1.96 * se, diff + 1.96 * se),
        "flagged_zero_variance": flagged,
    }


MCNEMAR_EXACT_CUTOFF = 25


def mcnemar(labels, hard_a, hard_b) -> dict:
    """McNemar paired test on discordant counts.

    Exact binomial p for b+c < 25, else chi-square with continuity correction.
    """
    labels = np.asarray(labels, dtype=int)
    hard_a = np.asarray(hard_a, dtype=int)
    hard_b = np.asarray(hard_b, dtype=int)
    if not (labels.shape == hard_a.shape == hard_b.shape):
        raise MetricError("inputs must be aligned")
    a_right = hard_a == labels
    b_right = hard_b == labels
    b_count = int(np.sum(a_right & ~b_right))
    c_count = int(np.sum(~a_right & b_right))
    total = b_count + c_count
    if total == 0:
        return {"b_count": 0, "c_count": 0, "statistic": 0.0, "p_value": 1.0,
                "method": "degenerate", "flagged": True}
    if total < MCNEMAR_EXACT_CUTOFF:
        p = _sign_test_p(min(b_count, c_count), total)
        return {"b_count": b_count, "c_count": c_count, "statistic": float(min(b_count, c_count)),
                "p_value": p, "method": "exact_binomial", "flagged": False}
    statistic = (abs(b_count - c_count) - 1.0) ** 2 / total
    p = _chi2_1df_sf(statistic)
    return {"b_count": b_count, "c_count": c_count, "statistic": statistic,
            "p_value": p, "method": "chi2_cc", "flagged": False}


# Indices per block of bootstrap draws (0.5 MB of int64): a block holds
# max(1, DRAWS // n) resamples of n cases, so its size is bounded at any n.
DRAWS = 65_536


def bootstrap_ci(pred_set: PredictionSet, n_resamples: int, seed: int) -> dict:
    """Case-level percentile bootstrap of a PredictionSet's accuracy.

    Resamples that lose a class are redrawn; exceeding the redraw cap (10x
    the resample budget) is a hard error. Each block of resamples is one
    ``integers`` call, whose rows get the indices one call per resample would;
    rows that lose a class are redraws, counted up to the last row kept.
    """
    if n_resamples < 100:
        raise MetricError("n_resamples must be >= 100")
    n = len(pred_set.case_ids)
    rng = np.random.default_rng(seed)
    correct = pred_set.labels == pred_set.hard_labels
    point = float(np.mean(correct))
    positive = pred_set.labels == 1
    values, need, redraws = [], n_resamples, 0
    cap = 10 * n_resamples
    while need:
        idx = rng.integers(0, n, size=(max(1, DRAWS // n), n))
        positives = np.count_nonzero(positive[idx], axis=1)
        kept = np.flatnonzero((positives > 0) & (positives < n))[:need]
        redraws += (int(kept[-1]) + 1 if len(kept) == need else len(idx)) - len(kept)
        if redraws > cap:
            raise MetricError("bootstrap redraw cap exceeded; metric undefined on this data")
        # np.mean's quotient of the same integers
        values.append(np.count_nonzero(correct[idx[kept]], axis=1) / n)
        need -= len(kept)
    ordered = sorted(np.concatenate(values).tolist())
    return {
        "point": point,
        "lo95": _percentile(ordered, 2.5),
        "hi95": _percentile(ordered, 97.5),
        "n_resamples": n_resamples,
        "redraws": redraws,
    }


def _percentile(ordered: list[float], q: float) -> float:
    """``np.percentile(ordered, q)`` of the ascending floats ``ordered`` by
    numpy's default linear rule, with its operations in its order, so the
    bits agree. ``np.percentile`` imports ``numpy.ma`` on its first call."""
    last = len(ordered) - 1
    index = last * (q / 100)
    if index >= last:  # numpy reads the last value on both sides, as index -1
        lo, a, b = -1, ordered[-1], ordered[-1]
    else:
        lo = math.floor(index)
        a, b = ordered[lo], ordered[lo + 1]
    g = index - lo
    return b - (b - a) * (1 - g) if g >= 0.5 else a + (b - a) * g


def permutation_importance(
    predict_fn, X, y, feature_index: int, repeats: int = 20, seed: int = 0
) -> dict:
    """Mean decrease in balanced accuracy when one feature column is shuffled.

    ``predict_fn`` maps an (n, d) matrix to hard 0/1 labels.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    column = X[:, feature_index]
    if np.all(column == column[0]):
        return {"mean_delta_balanced_accuracy": 0.0, "sd": 0.0, "flag": "constant"}
    baseline = balanced_accuracy(y, predict_fn(X))
    rng = np.random.default_rng(seed)
    Xp, negative, positive = X.copy(), y == 0, y == 1
    tn, tp = np.empty(repeats, dtype=int), np.empty(repeats, dtype=int)
    for r in range(repeats):
        Xp[:, feature_index] = column[rng.permutation(len(column))]
        hard = np.asarray(predict_fn(Xp), dtype=int)
        tn[r] = np.count_nonzero(negative & (hard == 0))
        tp[r] = np.count_nonzero(positive & (hard == 1))
    # balanced_accuracy's operations on counts kept per repeat, not a (repeats, n)
    # label matrix; 0/1 hard labels make tn + fp = n0 and tp + fn = n1
    n0, n1 = int(np.count_nonzero(negative)), int(np.count_nonzero(positive))
    deltas = baseline - ((tn / n0 if n0 else 0.0) + (tp / n1 if n1 else 0.0)) / 2.0
    return {
        "mean_delta_balanced_accuracy": float(deltas.mean()),
        "sd": float(deltas.std(ddof=1)) if repeats > 1 else 0.0,
        "flag": None,
    }


DEFAULT_NB_THRESHOLDS = tuple(np.round(np.arange(0.05, 1.0, 0.05), 4))


class EvaluationReport(NamedTuple):
    """One model's evaluation; ``roc`` and ``pr`` are the data lines of its
    ROC and P-R files, the ROC's ``inf,0.0,0.0`` first."""

    model_name: str
    cm: ConfusionMatrix
    metrics: dict
    auroc: float
    average_precision: float
    brier: float | None
    reliability: list[ReliabilityBin]
    net_benefit_curve: list[dict]
    roc: list[str]
    pr: list[str]
    calibration_on_rescaled_proxy: bool = False

    def to_dict(self) -> dict:
        return {
            "model_name": self.model_name,
            "confusion_matrix": {"layout": CM_LAYOUT_NOTE, "rows": self.cm.as_rows()},
            "threshold_metrics": self.metrics,
            "auroc": self.auroc,
            "average_precision": self.average_precision,
            "brier": self.brier,
            "calibration_on_rescaled_proxy": self.calibration_on_rescaled_proxy,
            "reliability": [b._asdict() for b in self.reliability],
            "net_benefit": self.net_benefit_curve,
        }


def evaluate(pred_set: PredictionSet, model_name: str = "model") -> EvaluationReport:
    """Build the full report for one model on one split, with net benefit at
    ``DEFAULT_NB_THRESHOLDS``.

    Hard-label models ranked by a signed proxy score in [-1,1] get their
    calibration block computed on the linear rescale (s+1)/2, flagged as such.
    """
    scores = pred_set.scores
    rescaled = bool(np.any(scores < 0) or np.any(scores > 1))
    probs = (scores + 1.0) / 2.0 if rescaled else scores
    cm = confusion(pred_set.labels, pred_set.hard_labels)
    ranking = _rank(pred_set.labels, scores)
    metrics = threshold_metrics(cm)
    auroc = _auroc(ranking)  # raises on one class, whose curves would divide by 0
    counts = _descending_counts(ranking)
    roc, pr = _curve_lines(counts)
    return EvaluationReport(
        model_name=model_name,
        cm=cm,
        metrics=metrics,
        auroc=auroc,
        average_precision=_average_precision(counts),
        brier=brier(pred_set.labels, probs),
        reliability=reliability_curve(pred_set.labels, probs),
        net_benefit_curve=net_benefit(pred_set.labels, probs, DEFAULT_NB_THRESHOLDS),
        roc=roc,
        pr=pr,
        calibration_on_rescaled_proxy=rescaled,
    )


def compare(pred_a: PredictionSet, pred_b: PredictionSet, n_resamples: int = 2000, seed: int = 0) -> dict:
    """Head-to-head paired comparison block: DeLong, McNemar, bootstrap CIs."""
    if pred_a.case_ids != pred_b.case_ids:
        raise MetricError("prediction sets must share case_ids exactly")
    if not np.array_equal(pred_a.labels, pred_b.labels):
        raise MetricError("prediction sets disagree on ground-truth labels")
    delong = delong_test(pred_a.labels, pred_a.scores, pred_b.scores)
    mcn = mcnemar(pred_a.labels, pred_a.hard_labels, pred_b.hard_labels)
    boot_a = bootstrap_ci(pred_a, n_resamples, seed)
    boot_b = bootstrap_ci(pred_b, n_resamples, seed)
    winners = {
        "auroc": "a" if delong["auc_a"] > delong["auc_b"] else "b" if delong["auc_b"] > delong["auc_a"] else "tie",
        "accuracy": "a" if boot_a["point"] > boot_b["point"] else "b" if boot_b["point"] > boot_a["point"] else "tie",
    }
    return {"delong": delong, "mcnemar": mcn,
            "bootstrap_accuracy": {"a": boot_a, "b": boot_b}, "winners": winners}


def write_curve_csvs(report: EvaluationReport, out_dir: str | Path) -> None:
    """CSV curve files (ROC, P-R, reliability, net benefit) for plotting, with
    the bytes ``csv.writer`` writes, of a report ``evaluate`` built."""
    def dump(name, lines):
        with replacing(Path(out_dir) / f"{report.model_name}_{name}.csv") as fh:
            fh.writelines(lines)

    dump("roc", ["threshold,fpr,tpr\r\n", *report.roc])
    dump("pr", ["threshold,recall,precision\r\n", *report.pr])
    dump("reliability", _csv_lines(
        ["bin_center", "mean_prob", "empirical_rate", "count"],
        [(b.bin_center, b.mean_prob, b.empirical_rate, b.count) for b in report.reliability],
    ))
    dump("net_benefit", _csv_lines(
        ["threshold", "net_benefit", "treat_all", "treat_none"],
        [(r["threshold"], r["net_benefit"], r["treat_all"], r["treat_none"])
         for r in report.net_benefit_curve],
    ))


def _curve_lines(c: _Counts) -> tuple[list[str], list[str]]:
    """The data lines of the ROC and of the P-R file, printing each distinct
    number once: a threshold once for both files, and an FPR, TPR or recall,
    each ``k / n`` for an integer count ``k``, once per distinct ``k``. Texts
    are found by count, never by float value, which would take -0.0 for 0.0."""
    thresholds = list(map(float.__repr__, c.threshold.tolist()))
    fpr = _fraction_texts(c.taken - c.tp, c.n0)
    tpr = _fraction_texts(c.tp, c.n1)
    precision = map(float.__repr__, (c.tp / c.taken).tolist())
    roc = ["inf,0.0,0.0\r\n"]
    roc += [f"{t},{f},{p}\r\n" for t, f, p in zip(thresholds, fpr, tpr)]
    return roc, [f"{t},{r},{p}\r\n" for t, r, p in zip(thresholds, tpr, precision)]


def _fraction_texts(k: np.ndarray, n: int) -> list[str]:
    """``float.__repr__(k[i] / n)`` for each count, each distinct count
    printed once. numpy divides the same two integers to the same bits."""
    distinct, at = np.unique(k, return_inverse=True)
    texts = np.array(list(map(float.__repr__, (distinct / n).tolist())), dtype=object)
    return texts[at].tolist()


def _csv_field(value) -> str:
    """A number or None as ``csv.writer`` writes it: a float (a subclass too)
    by ``float.__repr__``, None as nothing, anything else by ``str``."""
    if isinstance(value, float):
        return float.__repr__(value)
    return "" if value is None else str(value)


def _csv_lines(headers, rows):
    """A header and rows of numbers as the lines ``csv.writer`` writes: fields
    joined by commas, each line ended by ``\\r\\n``. No field needs quoting."""
    yield ",".join(headers) + "\r\n"
    for row in rows:
        yield ",".join(map(_csv_field, row)) + "\r\n"


def write_report_json(report: EvaluationReport, path: str | Path) -> None:
    write_json(path, report.to_dict())

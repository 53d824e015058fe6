import contextlib
import csv
import errno
import io
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crsbench import metrics
from crsbench.jsondoc import replacing
from crsbench.metrics import (
    ConfusionMatrix,
    MetricError,
    PredictionSet,
    balanced_accuracy,
    bootstrap_ci,
    brier,
    compare,
    confusion,
    delong_test,
    evaluate,
    mcnemar,
    net_benefit,
    permutation_importance,
    reliability_curve,
    threshold_metrics,
    write_curve_csvs,
    write_report_json,
)
from conftest import auroc, average_precision, time_bound
from oracles import (
    ap_step_sum,
    auc_pair_count,
    pr_points_per_threshold,
    roc_points_per_threshold,
    sequential_bootstrap_values,
    sign_test_p,
)


def _random_instance(rng, n=None, tie_prone=False):
    n = n or int(rng.integers(10, 200))
    labels = rng.integers(0, 2, size=n)
    if labels.sum() == 0:
        labels[0] = 1
    if labels.sum() == n:
        labels[0] = 0
    if tie_prone:
        scores = rng.integers(0, 5, size=n) / 4.0
    else:
        scores = rng.uniform(size=n)
    return labels, scores


# --- confusion and threshold metrics ----------------------------------------


def test_confusion_layout():
    labels = [0, 0, 0, 1, 1, 1, 1]
    hard = [0, 1, 1, 0, 1, 1, 1]
    cm = confusion(labels, hard)
    assert (cm.tn, cm.fp, cm.fn, cm.tp) == (1, 2, 1, 3)
    assert cm.as_rows() == [[1, 2], [1, 3]]
    assert cm.n == 7


def test_threshold_metrics_values():
    m = threshold_metrics(ConfusionMatrix(tn=5, fp=15, fn=7, tp=78))
    assert m["accuracy"] == pytest.approx(83 / 105)
    assert m["precision0"] == pytest.approx(5 / 12)
    assert m["recall0"] == pytest.approx(5 / 20)
    assert m["precision1"] == pytest.approx(78 / 93)
    assert m["recall1"] == pytest.approx(78 / 85)
    assert m["balanced_accuracy"] == pytest.approx((5 / 20 + 78 / 85) / 2)
    assert m["flags"] == []


def test_threshold_metrics_zero_denominators_flagged():
    # no true class-0 cases at all: recall0 undefined
    m = threshold_metrics(ConfusionMatrix(tn=0, fp=0, fn=5, tp=10))
    assert m["recall0"] == 0.0
    assert any("recall0" in f for f in m["flags"])
    # nothing ever predicted class 0: precision0 undefined
    m = threshold_metrics(ConfusionMatrix(tn=0, fp=5, fn=0, tp=10))
    assert m["precision0"] == 0.0
    assert any("precision0" in f for f in m["flags"])
    with pytest.raises(MetricError):
        threshold_metrics(ConfusionMatrix(0, 0, 0, 0))


def test_negative_counts_rejected():
    with pytest.raises(MetricError):
        ConfusionMatrix(-1, 0, 0, 1)


# --- ranking metrics vs oracles ----------------------------------------------


def test_auroc_hand_case():
    labels = [0, 0, 1, 1]
    scores = [0.1, 0.4, 0.35, 0.8]
    assert auroc(labels, scores) == pytest.approx(0.75)


def test_auroc_handles_ties():
    labels = [0, 1, 0, 1]
    scores = [0.5, 0.5, 0.5, 0.5]
    assert auroc(labels, scores) == 0.5


def test_auroc_requires_both_classes():
    with pytest.raises(MetricError):
        auroc([1, 1], [0.1, 0.2])


def test_auroc_matches_pair_count_oracle(rng):
    for _ in range(200):
        labels, scores = _random_instance(rng, tie_prone=bool(rng.integers(0, 2)))
        assert abs(auroc(labels, scores) - auc_pair_count(labels, scores)) <= 1e-12


def test_average_precision_matches_step_sum_oracle(rng):
    for _ in range(200):
        labels, scores = _random_instance(rng, tie_prone=bool(rng.integers(0, 2)))
        assert abs(average_precision(labels, scores) - ap_step_sum(labels, scores)) <= 1e-12


def test_average_precision_perfect_ranking():
    assert average_precision([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9]) == 1.0


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 10)), min_size=4, max_size=60))
def test_auroc_complement_symmetry(pairs):
    labels = np.array([p[0] for p in pairs])
    scores = np.array([p[1] for p in pairs], dtype=float)
    if len(np.unique(labels)) < 2:
        return
    # flipping labels and negating scores leaves AUROC unchanged
    assert auroc(labels, scores) == pytest.approx(auroc(1 - labels, -scores), abs=1e-12)
    assert auroc(1 - labels, scores) == pytest.approx(1.0 - auroc(labels, scores), abs=1e-12)


def _both_classes(labels):
    labels[:2] = [0, 1]
    return labels


def _curve_instances(rng):
    """Instances ``evaluate`` accepts: both classes, probabilities or signed proxy scores."""
    for _ in range(100):
        yield _random_instance(rng, tie_prone=bool(rng.integers(0, 2)))
    for n in (2, 7, 40):
        yield _both_classes(rng.integers(0, 2, size=n)), np.full(n, 0.25)  # all tied
    for _ in range(20):
        n = int(rng.integers(2, 60))
        yield _both_classes(rng.integers(0, 2, size=n)), rng.choice([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0], size=n)


def _evaluated(labels, scores):
    ids = tuple(f"c{i}" for i in range(len(labels)))
    return evaluate(PredictionSet(ids, labels, scores, (scores >= 0.5).astype(int)))


def _csv_rows(points) -> list[str]:
    """The lines ``csv.writer`` writes for the values of each point, which
    tell 0.0 from -0.0 and print the inf threshold."""
    text = io.StringIO(newline="")
    csv.writer(text).writerows(point.values() for point in points)
    return text.getvalue().splitlines(keepends=True)


def test_roc_and_pr_points_match_per_threshold_oracle(rng):
    for labels, scores in _curve_instances(rng):
        report = _evaluated(labels, scores)
        assert report.roc == _csv_rows(roc_points_per_threshold(labels, scores))
        assert report.pr == _csv_rows(pr_points_per_threshold(labels, scores))


def test_ranking_on_empty_input():
    with pytest.raises(MetricError, match="empty"):
        _evaluated(np.array([], dtype=int), np.array([]))


def test_nan_score_raises_instead_of_hanging():
    with time_bound(5.0):
        for fn in (auroc, average_precision):
            with pytest.raises(MetricError):
                fn([0, 1, 1], [0.1, float("nan"), 0.3])
        with pytest.raises(MetricError):
            delong_test([0, 1, 1], [0.1, float("nan"), 0.3], [0.1, 0.2, 0.3])


def test_ranking_rejects_labels_outside_zero_one():
    with pytest.raises(MetricError):
        auroc([0, 2, 1], [0.1, 0.2, 0.3])
    with pytest.raises(MetricError):
        average_precision([0, 1], [0.1, 0.2, 0.3])
    for fn in (auroc, average_precision):
        with pytest.raises(MetricError):
            fn([0, 0.5, 1], [0.1, 0.2, 0.3])
    with pytest.raises(MetricError):
        delong_test([0, 0.5, 1], [0.1, 0.2, 0.3], [0.3, 0.2, 0.1])


def test_prediction_set_validates_on_construction():
    good = dict(case_ids=("a", "b"), labels=[0, 1], scores=[0.1, 0.9], hard_labels=[0, 1])
    PredictionSet(**good)
    for bad in (
        dict(scores=[0.1, float("nan")]),
        dict(scores=[0.1, float("inf")]),
        dict(labels=[0, 2]),
        dict(labels=[0, 0.5]),
        dict(hard_labels=[0, -1]),
        dict(case_ids=("a", "a")),
        dict(case_ids=("a",)),
    ):
        with pytest.raises(MetricError):
            PredictionSet(**{**good, **bad})


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 1), st.floats(), st.floats(), st.integers(0, 1)),
        min_size=1,
        max_size=40,
    )
)
def test_metrics_return_or_raise_metric_error_on_arbitrary_floats(rows):
    labels, scores_a, scores_b, hard = (np.array(column) for column in zip(*rows))
    ids = tuple(f"c{i}" for i in range(len(rows)))
    calls = [
        lambda: auroc(labels, scores_a),
        lambda: average_precision(labels, scores_a),
        lambda: delong_test(labels, scores_a, scores_b),
        lambda: evaluate(PredictionSet(ids, labels, scores_a, hard)),
        lambda: compare(
            PredictionSet(ids, labels, scores_a, hard),
            PredictionSet(ids, labels, scores_b, 1 - hard),
            n_resamples=100,
        ),
    ]
    with time_bound(10.0):
        for call in calls:
            try:
                call()
            except MetricError:
                pass


# --- calibration --------------------------------------------------------------


def test_brier_basics():
    assert brier([1, 0], [1.0, 0.0]) == 0.0
    assert brier([1, 0], [0.0, 1.0]) == 1.0
    assert brier([1], [0.8]) == pytest.approx(0.04)
    with pytest.raises(MetricError):
        brier([1], [1.2])


def test_reliability_curve_emits_empty_bins():
    bins = reliability_curve([1, 0], [0.95, 0.96])
    assert len(bins) == 10
    assert bins[0].count == 0 and bins[0].mean_prob is None
    assert bins[9].count == 2
    assert bins[9].empirical_rate == 0.5
    assert [b.bin_center for b in bins] == pytest.approx([(i + 0.5) / 10 for i in range(10)])


def test_reliability_curve_top_edge_goes_to_last_bin():
    bins = reliability_curve([1], [1.0])
    assert bins[9].count == 1


# --- decision curves ------------------------------------------------------------


def test_net_benefit_formula():
    labels = [1] * 81 + [0] * 19
    probs = [1.0] * 81 + [0.9] * 19  # everyone treated at t=0.5
    rows = net_benefit(labels, probs, [0.5])
    assert rows[0]["net_benefit"] == pytest.approx(0.81 - 0.19 * 1.0)
    assert rows[0]["treat_all"] == pytest.approx(0.62)
    assert rows[0]["treat_none"] == 0.0


def test_net_benefit_threshold_bounds():
    with pytest.raises(MetricError):
        net_benefit([0, 1], [0.5, 0.5], [0.0])
    with pytest.raises(MetricError):
        net_benefit([0, 1], [0.5, 0.5], [1.0])


# --- paired tests ----------------------------------------------------------------


def test_delong_auc_matches_auroc_bitwise(rng):
    for _ in range(50):
        labels, scores_a = _random_instance(rng, n=105)
        scores_b = rng.uniform(size=105)
        res = delong_test(labels, scores_a, scores_b)
        assert res["auc_a"] == auroc(labels, scores_a)
        assert res["auc_b"] == auroc(labels, scores_b)


def test_delong_detects_clear_separation(rng):
    labels = np.array([0] * 50 + [1] * 55)
    strong = labels + rng.normal(0, 0.2, size=105)
    weak = rng.uniform(size=105)
    res = delong_test(labels, strong, weak)
    assert res["auc_a"] > res["auc_b"]
    assert res["p_value"] < 0.01
    lo, hi = res["ci_95_diff"]
    assert lo <= res["auc_a"] - res["auc_b"] <= hi


def test_delong_identical_scores_flagged():
    labels = [0, 0, 1, 1, 0, 1]
    scores = [0.2, 0.3, 0.8, 0.7, 0.4, 0.9]
    res = delong_test(labels, scores, scores)
    assert res["flagged_zero_variance"] is True
    assert res["p_value"] == 1.0
    assert res["z"] == 0.0


@pytest.mark.parametrize(
    "labels",
    [pytest.param([], id="empty"), pytest.param([1, 1, 1], id="one-class"),
     pytest.param([0], id="one-case")],
)
def test_delong_without_both_classes_is_metric_error(labels):
    scores = np.linspace(0.1, 0.9, len(labels))
    with pytest.raises(MetricError) as info:
        delong_test(labels, scores, scores[::-1])
    assert type(info.value) is MetricError
    assert str(info.value) == "delong_test requires both classes"


def test_mcnemar_exact_small_discordance():
    labels = np.zeros(20, dtype=int)
    hard_a = labels.copy()
    hard_b = labels.copy()
    hard_b[:5] = 1  # b wrong on 5 that a got right
    res = mcnemar(labels, hard_a, hard_b)
    assert res["method"] == "exact_binomial"
    assert res["b_count"] == 5 and res["c_count"] == 0
    assert res["p_value"] == pytest.approx(2 * 0.5**5)


def test_mcnemar_chi2_large_discordance(rng):
    labels = np.zeros(200, dtype=int)
    hard_a = labels.copy()
    hard_b = labels.copy()
    hard_a[:20] = 1
    hard_b[100:120] = 1
    res = mcnemar(labels, hard_a, hard_b)
    assert res["method"] == "chi2_cc"
    assert res["b_count"] == 20 and res["c_count"] == 20
    assert res["p_value"] > 0.8  # symmetric discordance is far from significant


def test_tail_probabilities_match_known_constants():
    assert metrics._normal_two_sided_p(1.959963984540054) == pytest.approx(0.05, rel=1e-12)
    assert metrics._normal_two_sided_p(-1.959963984540054) == pytest.approx(0.05, rel=1e-12)
    assert metrics._normal_two_sided_p(0.0) == 1.0
    assert metrics._chi2_1df_sf(3.841458820694124) == pytest.approx(0.05, rel=1e-12)
    assert metrics._chi2_1df_sf(0.0) == 1.0


def test_mcnemar_exact_branch_matches_sign_test_oracle():
    assert metrics._sign_test_p(0, 5) == 2 * 0.5**5
    assert metrics._sign_test_p(2, 12) == 2 * (1 + 12 + 66) / 2**12
    for total in range(1, metrics.MCNEMAR_EXACT_CUTOFF):
        for b_count in range(total + 1):
            c_count = total - b_count
            labels = np.zeros(total, dtype=int)
            hard_a = np.r_[np.zeros(b_count, int), np.ones(c_count, int)]  # a wrong on the c cases
            hard_b = 1 - hard_a
            res = mcnemar(labels, hard_a, hard_b)
            assert (res["b_count"], res["c_count"]) == (b_count, c_count)
            assert res["method"] == "exact_binomial"
            assert res["p_value"] == sign_test_p(min(b_count, c_count), total)


def test_mcnemar_degenerate():
    labels = [0, 1]
    res = mcnemar(labels, labels, labels)
    assert res["flagged"] is True
    assert res["p_value"] == 1.0


# --- bootstrap --------------------------------------------------------------------


def _pred_set(rng, n=105, prevalence=0.8):
    labels = (rng.uniform(size=n) < prevalence).astype(int)
    labels[:2] = [0, 1]
    scores = np.clip(labels * 0.6 + rng.uniform(size=n) * 0.4, 0, 1)
    hard = (scores >= 0.5).astype(int)
    return PredictionSet(tuple(f"c{i}" for i in range(n)), labels, scores, hard)


def _guessed(ps, rng):
    """``ps`` with random hard labels, so its accuracy varies across resamples."""
    return PredictionSet(ps.case_ids, ps.labels, ps.scores, rng.integers(0, 2, size=len(ps.labels)))


def test_bootstrap_ci_brackets_point(rng):
    ps = _guessed(_pred_set(rng), rng)
    res = bootstrap_ci(ps, n_resamples=500, seed=1)
    assert res["point"] == float(np.mean(ps.labels == ps.hard_labels))
    assert res["lo95"] < res["point"] < res["hi95"]
    assert res["hi95"] - res["lo95"] < 0.5


def test_bootstrap_is_deterministic_per_seed(rng):
    ps = _pred_set(rng)
    a = bootstrap_ci(ps, n_resamples=200, seed=5)
    b = bootstrap_ci(ps, n_resamples=200, seed=5)
    assert a == b


def test_bootstrap_budget_floor(rng):
    with pytest.raises(MetricError):
        bootstrap_ci(_pred_set(rng), n_resamples=50, seed=0)


def test_bootstrap_redraws_on_class_loss():
    # 2 cases, one per class: about half of all resamples lose a class and
    # must be redrawn; every kept resample still has both classes
    ps = PredictionSet(("a", "b"), np.array([0, 1]), np.array([0.1, 0.9]), np.array([0, 1]))
    res = bootstrap_ci(ps, n_resamples=200, seed=0)
    assert res["redraws"] > 0
    assert res["point"] == 1.0
    assert res["lo95"] == res["hi95"] == 1.0


def test_bootstrap_matches_sequential_draws(rng):
    # (cases, prevalence, resamples): many resamples per block of draws; one
    # positive among 200 cases, so about 37% of resamples are redrawn, over
    # many blocks; and more cases than a block holds indices, one resample a block.
    metric = lambda s: float(np.mean(s.labels == s.hard_labels))
    for n, prevalence, resamples in ((2, 0.5, 300), (2, 0.5, 2000), (7, 0.5, 300),
                                     (30, 0.95, 300), (105, 0.8, 300), (200, 0.0, 2000),
                                     (1000, 0.8, 300), (metrics.DRAWS + 1, 0.8, 100)):
        ps = _guessed(_pred_set(rng, n=n, prevalence=prevalence), rng)
        res = bootstrap_ci(ps, n_resamples=resamples, seed=n)
        assert res["point"] == metric(ps)
        values, redraws = sequential_bootstrap_values(
            metric, ps.labels, ps.scores, ps.hard_labels, resamples, seed=n
        )
        assert type(res["redraws"]) is int and res["redraws"] == redraws, n
        assert res["lo95"] == float(np.percentile(values, 2.5)), n
        assert res["hi95"] == float(np.percentile(values, 97.5)), n


@pytest.mark.parametrize("labels", [[1], [0, 0], [1, 1], [0, 0, 0, 0, 0], [0, 1], [1, 0, 0]])
@pytest.mark.parametrize("seed", [0, 1])
def test_bootstrap_redraw_cap_is_raised_where_the_sequential_draws_exceed_it(labels, seed):
    n = len(labels)
    ps = PredictionSet(tuple(map(str, range(n))), np.array(labels), np.full(n, 0.5), np.zeros(n))
    metric = lambda s: float(np.mean(s.labels == s.hard_labels))
    expected = sequential_bootstrap_values(metric, ps.labels, ps.scores, ps.hard_labels, 100,
                                           seed, cap=1000)
    if expected is None:
        with pytest.raises(MetricError, match="redraw cap"):
            bootstrap_ci(ps, n_resamples=100, seed=seed)
    else:
        assert bootstrap_ci(ps, n_resamples=100, seed=seed)["redraws"] == expected[1]


def test_bootstrap_draws_at_most_one_block_of_indices_per_call(rng, monkeypatch):
    sizes, default_rng = [], np.random.default_rng

    class Recording:
        def __init__(self, seed):
            self.rng = default_rng(seed)

        def integers(self, low, high, size):
            sizes.append(math.prod(size))
            return self.rng.integers(low, high, size=size)

    cases = [_guessed(_pred_set(rng, n=n), rng) for n in (2, 105, 1000, metrics.DRAWS + 1)]
    monkeypatch.setattr(metrics.np.random, "default_rng", Recording)
    for ps in cases:
        sizes.clear()
        bootstrap_ci(ps, n_resamples=2000, seed=0)
        assert sizes and max(sizes) <= max(len(ps.labels), metrics.DRAWS)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 3000), values=st.sampled_from(["grid", "normal", "uniform"]),
       q=st.sampled_from([0, 2.5, 33.3, 50, 97.5, 100]), seed=st.integers(0, 2**32 - 1))
def test_percentile_matches_numpy_bit_for_bit(n, values, q, seed):
    """The bootstrap's percentile rule against ``np.percentile`` on bootstrap-like
    fractions (a grid of k/n, with ties), normal and uniform draws."""
    rng = np.random.default_rng(seed)
    data = {"grid": lambda: rng.integers(0, n + 1, size=n) / n,
            "normal": lambda: rng.normal(size=n), "uniform": lambda: rng.random(n)}[values]()
    got = metrics._percentile(sorted(data.tolist()), q)
    assert got.hex() == float(np.percentile(data, q)).hex()


def test_bootstrap_single_class_hits_redraw_cap():
    ps = PredictionSet(("a", "b"), np.array([1, 1]), np.array([0.1, 0.9]), np.array([0, 1]))
    with pytest.raises(MetricError, match="redraw cap"):
        bootstrap_ci(ps, n_resamples=100, seed=0)


# --- permutation importance -----------------------------------------------------


def test_permutation_importance_flags_constant_column(rng):
    X = rng.normal(size=(50, 3))
    X[:, 2] = 7.0
    y = (X[:, 0] > 0).astype(int)
    res = permutation_importance(lambda m: (m[:, 0] > 0).astype(int), X, y, 2)
    assert res["flag"] == "constant"
    assert res["mean_delta_balanced_accuracy"] == 0.0


def test_permutation_importance_detects_driver(rng):
    X = rng.normal(size=(200, 3))
    y = (X[:, 0] > 0).astype(int)
    predict = lambda m: (m[:, 0] > 0).astype(int)
    driver = permutation_importance(predict, X, y, 0, repeats=30, seed=1)
    passenger = permutation_importance(predict, X, y, 1, repeats=30, seed=1)
    assert driver["mean_delta_balanced_accuracy"] > 0.2
    assert abs(passenger["mean_delta_balanced_accuracy"]) <= 2 * passenger["sd"] + 1e-12


def test_permutation_importance_matches_a_copy_and_a_score_per_repeat(rng):
    X = rng.normal(size=(105, 4))
    w = rng.normal(size=4)
    predict = lambda m: (m @ w > 0).astype(int)
    for y in ((X[:, 0] + rng.normal(size=105) > 0.5).astype(int), np.zeros(105, dtype=int)):
        for j in range(4):
            baseline, order, deltas = balanced_accuracy(y, predict(X)), np.random.default_rng(j), []
            for _ in range(20):
                Xp = X.copy()
                Xp[:, j] = X[order.permutation(105), j]
                deltas.append(baseline - balanced_accuracy(y, predict(Xp)))
            expected = {"mean_delta_balanced_accuracy": float(np.mean(deltas)),
                        "sd": float(np.std(deltas, ddof=1)), "flag": None}
            assert repr(permutation_importance(predict, X, y, j, repeats=20, seed=j)) == repr(expected)


# --- reports ---------------------------------------------------------------------


def test_evaluate_probability_scores(rng):
    ps = _pred_set(rng)
    report = evaluate(ps, model_name="demo")
    assert report.calibration_on_rescaled_proxy is False
    assert report.cm.n == 105
    assert 0.0 <= report.brier <= 1.0
    assert len(report.reliability) == 10
    assert len(report.net_benefit_curve) == 19
    doc = report.to_dict()
    assert doc["model_name"] == "demo"
    assert doc["confusion_matrix"]["rows"] == report.cm.as_rows()
    assert report.auroc == auroc(ps.labels, ps.scores)
    assert report.average_precision == average_precision(ps.labels, ps.scores)
    assert report.roc == _csv_rows(roc_points_per_threshold(ps.labels, ps.scores))
    assert report.pr == _csv_rows(pr_points_per_threshold(ps.labels, ps.scores))


def test_evaluate_rescales_signed_proxy_scores():
    labels = np.array([0, 0, 1, 1, 1])
    scores = np.array([-1.0, -0.25, 0.5, 0.75, 1.0])
    hard = (scores > 0).astype(int)
    ps = PredictionSet(tuple("abcde"), labels, scores, hard)
    report = evaluate(ps, model_name="proxy")
    assert report.calibration_on_rescaled_proxy is True
    assert 0.0 <= report.brier <= 1.0
    # ranking metrics still use the raw signed scores
    assert report.auroc == auroc(labels, scores)


def test_compare_requires_aligned_sets(rng):
    a = _pred_set(rng)
    b = PredictionSet(a.case_ids, a.labels, np.flip(a.scores), np.flip(a.hard_labels))
    res = compare(a, b, n_resamples=200)
    assert set(res) == {"delong", "mcnemar", "bootstrap_accuracy", "winners"}
    assert res["winners"]["auroc"] in {"a", "b", "tie"}
    shuffled = PredictionSet(tuple(reversed(a.case_ids)), a.labels, a.scores, a.hard_labels)
    with pytest.raises(MetricError):
        compare(a, shuffled)
    relabeled = PredictionSet(a.case_ids, 1 - a.labels, a.scores, a.hard_labels)
    with pytest.raises(MetricError):
        compare(a, relabeled)


def test_curve_and_report_files(tmp_path, rng):
    report = evaluate(_pred_set(rng), model_name="m1")
    write_curve_csvs(report, tmp_path)
    files = list(tmp_path.iterdir())
    names = {f.name for f in files}
    assert names == {"m1_roc.csv", "m1_pr.csv", "m1_reliability.csv", "m1_net_benefit.csv"}
    for f in files:
        assert len(f.read_text().splitlines()) >= 2
    out = tmp_path / "r.json"
    write_report_json(report, out)
    import json

    doc = json.loads(out.read_text())
    assert doc["auroc"] == report.auroc


def test_a_curve_file_that_fails_mid_write_keeps_the_old_file(tmp_path, rng, monkeypatch):
    report = evaluate(_pred_set(rng), model_name="m1")
    write_curve_csvs(report, tmp_path)
    before = {f.name: f.read_bytes() for f in tmp_path.iterdir()}

    class FullDisk:
        """A file handle that gets the first line out, then fails as a full disk does."""

        def __init__(self, fh):
            self.fh = fh

        def writelines(self, lines):
            self.fh.write(next(iter(lines)))
            raise OSError(errno.ENOSPC, "No space left on device")

    @contextlib.contextmanager
    def full_disk(path):
        with replacing(path) as fh:
            yield FullDisk(fh)

    monkeypatch.setattr(metrics, "replacing", full_disk)
    with pytest.raises(OSError, match="No space left"):
        write_curve_csvs(report, tmp_path)
    assert {f.name: f.read_bytes() for f in tmp_path.iterdir()} == before  # and no temporary file


# Curve scores in [-1, 1], where ``evaluate`` takes both probabilities and
# signed proxy scores, led by those whose text a float-keyed cache would get
# wrong or that print long: the signed zeros, subnormals, and the floats next
# to 1 and -1.
_CURVE_SCORES = st.sampled_from(
    [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 0.9999999999999999, 1.0,
     -0.9999999999999999, -1.0, 0.5, 1 / 3]
) | st.floats(-1.0, 1.0)


@st.composite
def _curve_case(draw):
    """Labels with both classes, either of them possibly a single case, and
    scores drawn from a pool of at most five values, so ties are heavy and a
    single distinct score occurs."""
    n0, n1 = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    labels = draw(st.permutations([0] * n0 + [1] * n1))
    pool = draw(st.lists(_CURVE_SCORES, min_size=1, max_size=5))
    scores = draw(st.lists(st.sampled_from(pool), min_size=n0 + n1, max_size=n0 + n1))
    return np.array(labels), np.array(scores)


@settings(max_examples=300, deadline=None)
@given(_curve_case())
def test_roc_and_pr_files_have_the_bytes_csv_writer_writes_of_the_oracle_points(case):
    labels, scores = case
    with tempfile.TemporaryDirectory() as out:
        write_curve_csvs(_evaluated(labels, scores), out)
        for curve, points in (("roc", roc_points_per_threshold(labels, scores)),
                              ("pr", pr_points_per_threshold(labels, scores))):
            expected = io.StringIO(newline="")
            csv.writer(expected).writerows([list(points[0]), *(p.values() for p in points)])
            assert (Path(out) / f"model_{curve}.csv").read_bytes() == expected.getvalue().encode()


def test_a_negative_zero_threshold_prints_as_negative_zero(tmp_path):
    write_curve_csvs(_evaluated(np.array([0, 1, 0, 1]), np.array([-0.0, 0.0, -1.0, 1.0])), tmp_path)
    assert (tmp_path / "model_roc.csv").read_text().splitlines()[3] == "-0.0,0.5,1.0"


def test_balanced_accuracy_helper():
    assert balanced_accuracy([0, 0, 1, 1], [0, 1, 1, 1]) == pytest.approx(0.75)

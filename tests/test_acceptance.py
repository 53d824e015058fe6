"""End-to-end acceptance gate: ten numbered criteria, one pass line each.

Each test prints a single ``[criterion N] PASS`` line on success; a failure
reads as the usual pytest assertion with the criterion number in the test
name. Stated runtime budgets are enforced with wall-clock guards.
"""

import itertools
import time

import numpy as np
import pytest

from crsbench.cli import EXIT_LEAKAGE, main
from crsbench.cohort import (
    encode_matrix,
    fit_scaler,
    label_records,
    serialize_cohort,
    stratified_split,
)
from crsbench.heuristic import BANDS, rule_chain
from crsbench.metrics import (
    ConfusionMatrix,
    brier,
    confusion,
    delong_test,
    net_benefit,
    permutation_importance,
    reliability_curve,
    threshold_metrics,
)
from crsbench.models import (
    LossConfig,
    MlpArchitecture,
    MlpWorkspace,
    init_mlp_params,
    inverse_prevalence_weights,
    mlp_loss_and_grads,
    predict_hard,
    train_mlp,
)
from crsbench.protocol import (
    DecodingParams,
    ModelIdentity,
    ParserStatus,
    ReplayClient,
    build_prompt,
    load_prompt_template,
    parse_response,
    run_trial,
    serialize_case,
    store_replay_responses,
)
from crsbench.synthetic import generate_synthetic
from conftest import auroc, average_precision
from oracles import (
    ap_step_sum,
    auc_pair_count,
    derive_label,
    oracle_rule,
    paired_bootstrap_auc_diff_ci,
    transcript_bytes,
)

# Published test-set confusion matrices as (tn, fp, fn, tp) plus the printed
# metric values. Fractions are used where the source prints the fraction
# itself; bare decimals are matched within +/-0.005.
PUBLISHED_FIXTURES = {
    "chatgpt": ((5, 15, 7, 78),
                {"accuracy": 0.79, "precision0": 0.42, "recall0": 5 / 20,
                 "precision1": 0.84, "recall1": 0.92}),
    "medgpt": ((0, 20, 1, 84),
               {"accuracy": 0.80, "precision0": 0.0, "recall0": 0.0,
                "precision1": 84 / 104, "recall1": 84 / 85}),
    "gemini": ((1, 19, 22, 63),
               {"accuracy": 0.61, "precision0": 1 / 23, "recall0": 1 / 20,
                "precision1": 63 / 82, "recall1": 63 / 85}),
    "perplexity": ((0, 19, 23, 61),
                   {"accuracy": 0.59, "precision0": 0.0, "recall0": 0.0,
                    "precision1": 61 / 80, "recall1": 61 / 84}),
    "claude": ((6, 14, 3, 82),
               {"accuracy": 0.84, "precision0": 6 / 9, "recall0": 6 / 20,
                "precision1": 82 / 96, "recall1": 82 / 85}),
    "deepseek": ((7, 13, 10, 75),
                 {"accuracy": 0.78, "precision0": 7 / 17, "recall0": 7 / 20,
                  "precision1": 75 / 88, "recall1": 75 / 85}),
    "mlp": ((9, 11, 5, 80),
            {"accuracy": 0.85, "precision0": 0.64, "recall0": 9 / 20,
             "precision1": 0.88, "recall1": 0.94}),
}

GRID_BASELINES = range(0, 111, 5)   # 23
GRID_ENDO = range(0, 21, 2)         # 11
GRID_CT = range(0, 25, 3)           # 9
GRID_FLAGS = ("crs_polyps", "depression", "smoker", "previous_surgery")
GRID_AGES = (40, 65)

ALL_PENALTY_FLAGS = ("depression", "fibromyalgia", "smoker", "copd", "asthma", "osa",
                     "diabetes", "gerd", "asa_intolerance", "previous_surgery")


def _grid_case(baseline, endo, ct, age, **flags) -> dict:
    fields = dict(
        snot22_baseline=baseline, endoscopy_total=endo, ct_total=ct, age=age,
        crs_polyps=False,
        **{name: False for name in ALL_PENALTY_FLAGS},
    )
    fields.update(flags)
    return fields


def _grid_chain(cases: list[dict]):
    """The rule chain over the grid cases as one table: a column per field."""
    return rule_chain({name: np.array([case[name] for case in cases]) for name in cases[0]})


def _full_grid() -> list[tuple[dict, dict]]:
    """(case, its flags) for every point of the acceptance grid."""
    return [
        (_grid_case(baseline, endo, ct, age, **flags), flags)
        for baseline, endo, ct in itertools.product(GRID_BASELINES, GRID_ENDO, GRID_CT)
        for flags in (dict(zip(GRID_FLAGS, combo))
                      for combo in itertools.product((False, True), repeat=len(GRID_FLAGS)))
        for age in GRID_AGES
    ]


def test_criterion_01_published_fixture_regression():
    start = time.perf_counter()
    for name, ((tn, fp, fn, tp), expected) in PUBLISHED_FIXTURES.items():
        got = threshold_metrics(ConfusionMatrix(tn=tn, fp=fp, fn=fn, tp=tp))
        for metric, value in expected.items():
            assert abs(got[metric] - value) <= 0.005 + 1e-12, (
                f"{name}/{metric}: computed {got[metric]:.4f}, published {value:.4f}"
            )
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\n[criterion 1] PASS - 7 published fixtures reproduced within +/-0.005 "
          f"({elapsed * 1000:.0f} ms)")


def test_criterion_02_rule_engine_matches_independent_oracle():
    start = time.perf_counter()
    checked = 0
    grid = _full_grid()
    chain = _grid_chain([case for case, _ in grid])
    for (case, flags), got_delta, got_label, got_band in zip(
        grid, chain.delta.tolist(), chain.label.tolist(), chain.band.tolist()
    ):
        delta, label, conf_word = oracle_rule(
            case["snot22_baseline"], case["endoscopy_total"], case["ct_total"],
            flags["crs_polyps"], {k: v for k, v in flags.items() if k != "crs_polyps"},
            case["age"],
        )
        assert abs(got_delta - delta) <= 1e-9
        assert got_label == label
        assert BANDS[got_band].value == conf_word
        checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 23 * 11 * 9 * 16 * 2
    assert elapsed < 10.0
    print(f"\n[criterion 2] PASS - rule engine == oracle on {checked} grid cases "
          f"({elapsed:.1f} s)")


def test_criterion_03_rule_engine_bounded_and_monotone():
    lowest_ratio = np.inf
    cases = [case for case, _ in _full_grid()]
    for case, predicted_6mo in zip(cases, _grid_chain(cases).predicted_6mo.tolist()):
        baseline = case["snot22_baseline"]
        assert predicted_6mo >= 0.3139 * baseline - 1e-12
        assert predicted_6mo > 0 or baseline == 0  # clip branch never fires
        if baseline:
            lowest_ratio = min(lowest_ratio, predicted_6mo / baseline)
    # monotone non-increase of delta under every penalty flag and the age cutoff:
    # per severity point, the clean case, one case per flag, and the aged case
    variants = [{}, *({flag: True} for flag in ALL_PENALTY_FLAGS), {"age": 65}]
    severities = list(itertools.product(GRID_BASELINES, GRID_ENDO, GRID_CT))
    deltas = _grid_chain([
        _grid_case(baseline, endo, ct, **{"age": 40, **variant})
        for baseline, endo, ct in severities for variant in variants
    ]).delta.reshape(len(severities), len(variants))
    for clean, *changed in deltas.tolist():
        for delta in changed:
            assert delta <= clean + 1e-12
    print(f"\n[criterion 3] PASS - predicted 6mo >= 0.3139 x baseline "
          f"(worst ratio {lowest_ratio:.4f}); penalties never raise delta")


def test_criterion_04_metric_oracles_and_delong_bootstrap_agreement():
    rng = np.random.default_rng(2024)
    for i in range(100):
        n = int(rng.integers(10, 201))
        labels = rng.integers(0, 2, size=n)
        labels[:2] = [0, 1]
        scores = (rng.integers(0, 6, size=n) / 5.0) if i % 2 else rng.uniform(size=n)
        assert abs(auroc(labels, scores) - auc_pair_count(labels, scores)) <= 1e-12
        assert abs(average_precision(labels, scores) - ap_step_sum(labels, scores)) <= 1e-12

    overlaps = 0
    for i in range(20):
        labels = rng.integers(0, 2, size=105)
        labels[:2] = [0, 1]
        scores_a = np.clip(labels * 0.5 + rng.normal(0, 0.4, 105), 0, 1)
        scores_b = rng.uniform(size=105)
        lo_d, hi_d = delong_test(labels, scores_a, scores_b)["ci_95_diff"]
        lo_b, hi_b = paired_bootstrap_auc_diff_ci(labels, scores_a, scores_b,
                                                  n_resamples=2000, seed=i)
        assert lo_d <= hi_b and lo_b <= hi_d, (
            f"instance {i}: DeLong CI ({lo_d:.3f}, {hi_d:.3f}) disjoint from "
            f"bootstrap CI ({lo_b:.3f}, {hi_b:.3f})"
        )
        overlaps += 1
    print(f"\n[criterion 4] PASS - AUROC/AP match brute force on 100 instances; "
          f"DeLong and bootstrap CIs overlap on {overlaps}/20 instances")


def test_criterion_05_calibration_simulation():
    rng = np.random.default_rng(99)
    n = 10**4
    p = rng.uniform(size=n)
    y = (rng.uniform(size=n) < p).astype(int)
    worst_gap = 0.0
    for b in reliability_curve(y, p):
        if b.count:
            gap = abs(b.mean_prob - b.empirical_rate)
            worst_gap = max(worst_gap, gap)
            assert gap <= 0.05
    expected_brier = float(np.mean(p * (1 - p)))
    got_brier = brier(y, p)
    assert abs(got_brier - expected_brier) <= 0.01
    print(f"\n[criterion 5] PASS - calibrated stream: worst bin gap {worst_gap:.3f}, "
          f"Brier {got_brier:.4f} vs E[p(1-p)] {expected_brier:.4f}")


def test_criterion_06_net_benefit_anchors():
    thresholds = [0.1, 0.25, 0.5, 0.75, 0.9]
    rng = np.random.default_rng(5)
    labels = rng.integers(0, 2, size=200)
    labels[:2] = [0, 1]
    # treat-none reference is identically zero
    for row in net_benefit(labels, rng.uniform(size=200), thresholds):
        assert row["treat_none"] == 0.0
    # a perfect classifier attains the prevalence at every threshold
    prevalence = float(np.mean(labels))
    for row in net_benefit(labels, labels.astype(float), thresholds):
        assert row["net_benefit"] == pytest.approx(prevalence, abs=1e-12)
    # formula-forced treat-all anchor at prevalence 0.81, t = 0.5
    anchored = np.array([1] * 81 + [0] * 19)
    row = net_benefit(anchored, np.ones(100), [0.5])[0]
    assert row["treat_all"] == pytest.approx(0.62, abs=1e-12)
    assert row["net_benefit"] == pytest.approx(0.62, abs=1e-12)
    print("\n[criterion 6] PASS - treat-none == 0, perfect == prevalence, "
          "treat-all(0.81, t=0.5) == 0.62")


def test_criterion_07_split_and_leakage_abort(tmp_path, schema):
    records = generate_synthetic(524, seed=0)
    split = stratified_split(records, test_fraction=0.2, seed=0)
    assert len(split.test_ids) == 105
    labels = {r.patient_id: derive_label(r.snot22_baseline, r.snot22_6mo) for r in records}
    for cls in (0, 1):
        total = sum(1 for v in labels.values() if v == cls)
        in_test = sum(1 for i in split.test_ids if labels[i] == cls)
        assert abs(in_test - total * 0.2) <= 1.0, f"class {cls} quota off by > 1 case"
    assert abs(split.label_prevalence_test - split.label_prevalence_train) <= 1.0 / 105 + 1.0 / 419

    clean_csv = tmp_path / "cohort.csv"
    clean_csv.write_bytes(serialize_cohort(records, schema))
    assert main(["preprocess", "--cohort", str(clean_csv),
                 "--out-dir", str(tmp_path / "prep")]) == 0
    lines = clean_csv.read_text().splitlines()
    tainted = tmp_path / "tainted.csv"
    tainted.write_text(
        "\n".join([lines[0] + ",POSTOP_SNOT22"] + [l + ",10" for l in lines[1:]]) + "\n"
    )
    code = main(["preprocess", "--cohort", str(tainted), "--out-dir", str(tmp_path / "prep2")])
    assert code == EXIT_LEAKAGE
    print("\n[criterion 7] PASS - 524 -> 105 stratified test split within one case "
          "per class; post-op column aborts with exit code 3")


def test_criterion_08_replay_determinism_and_parser_fuzz(tmp_path, schema):
    records = generate_synthetic(524, seed=0)
    by_label = {0: [], 1: []}
    for r in records:
        by_label[derive_label(r.snot22_baseline, r.snot22_6mo)].append(r)
    cohort = by_label[0][:20] + by_label[1][:85]
    assert len(cohort) == 105
    # planned hard predictions realizing the confusion matrix [6,14; 3,82]
    planned = [0] * 6 + [1] * 14 + [0] * 3 + [1] * 82
    truth = [0] * 20 + [1] * 85

    template = load_prompt_template()
    store = tmp_path / "store"
    for rec, pred in zip(cohort, planned):
        _, prompt_hash = build_prompt([serialize_case(rec, schema)], template)
        store_replay_responses(
            store, prompt_hash, [f"PREDICTION: {pred}\nCONFIDENCE: very confident"] * 5
        )

    identity = ModelIdentity("replay", "fixture", "2025-01-01")
    decoding = DecodingParams()

    def run_all():
        client = ReplayClient(store)
        return [
            run_trial(client, rec.patient_id, serialize_case(rec, schema), identity, decoding,
                      k=5, template=template)
            for rec in cohort
        ]

    first = run_all()
    second = run_all()
    for a, b in zip(first, second):
        assert transcript_bytes(a, include_timestamp=False) == transcript_bytes(
            b, include_timestamp=False
        )
    for transcripts in (first, second):
        hard = [t.aggregate.final_label for t in transcripts]
        cm = confusion(truth, hard)
        assert (cm.tn, cm.fp, cm.fn, cm.tp) == (6, 14, 3, 82)

    rng = np.random.default_rng(777)
    fragments = [
        b"PREDICTION:", b"CONFIDENCE:", b"PREDICTION: 0\n",
        b"PREDICTION: 1\nCONFIDENCE: neutral\n", b"very confident", b"\n",
    ]
    seen = set()
    for i in range(10**5):
        raw = bytes(rng.integers(0, 256, size=int(rng.integers(0, 60))))
        if i % 4 == 0:  # splice in field-like fragments to reach deeper branches
            cut = len(raw) // 2
            raw = raw[:cut] + fragments[i // 4 % len(fragments)] + raw[cut:]
        out = parse_response(raw.decode("latin-1"))
        assert out.parser_status in (
            ParserStatus.OK, ParserStatus.MISSING_PREDICTION,
            ParserStatus.MISSING_CONFIDENCE, ParserStatus.MALFORMED,
        )
        seen.add(out.parser_status)
    assert seen == set(ParserStatus)
    print("\n[criterion 8] PASS - 105-case replay byte-identical twice, confusion "
          "[6,14;3,82] both runs; 100000 fuzz strings -> only the 4 statuses")


def test_criterion_09_mlp_property_check_on_synthetic_cohort(schema):
    start = time.perf_counter()
    seed = 7
    records = generate_synthetic(524, seed=seed)
    labeled, labels, _ = label_records(records)
    split = stratified_split(labeled, test_fraction=0.2, seed=seed)
    by_id = {r.patient_id: r for r in labeled}
    train = [by_id[i] for i in sorted(split.train_ids)]
    test = [by_id[i] for i in sorted(split.test_ids)]
    scaler = fit_scaler(train, schema)
    X_train = encode_matrix(train, schema, scaler)
    X_test = encode_matrix(test, schema, scaler)
    y_train = np.array([labels[r.patient_id] for r in train])
    y_test = np.array([labels[r.patient_id] for r in test])
    assert len(test) == 105

    model = train_mlp(
        X_train, y_train, schema.feature_order,
        class_weights=inverse_prevalence_weights(y_train, power=0.5),
        seed=seed, schema=schema,
    )
    assert model.metadata["hidden_units"] == 400
    hard = predict_hard(model, X_test)
    m = threshold_metrics(confusion(y_test, hard))
    assert m["recall1"] >= 0.90, f"class-1 recall {m['recall1']:.3f}"
    assert m["recall0"] >= 0.30, f"class-0 recall {m['recall0']:.3f}"
    treat_all_ba = threshold_metrics(confusion(y_test, np.ones_like(y_test)))["balanced_accuracy"]
    assert m["balanced_accuracy"] > treat_all_ba

    # analytic gradients vs central differences on a small instance
    rng = np.random.default_rng(1)
    arch = MlpArchitecture(input_dim=5, hidden_units=4)
    params = init_mlp_params(arch, seed=0)
    Xs = rng.normal(size=(6, 5))
    ys = rng.integers(0, 2, size=6)
    # the analytic gradients stay in their own workspace while the differences are taken
    kept, probe = MlpWorkspace(5, 4, 6), MlpWorkspace(5, 4, 6)
    for loss in (LossConfig("weighted"), LossConfig("focal", gamma=2.0, alpha=0.25)):
        _, grads = mlp_loss_and_grads(params, Xs, ys, loss, (0.8, 1.2), kept)
        for key in ("W1", "b1", "W2", "b2"):
            flat = params[key].ravel()
            for i in range(len(flat)):
                orig = flat[i]
                h = 1e-6
                flat[i] = orig + h
                up, _ = mlp_loss_and_grads(params, Xs, ys, loss, (0.8, 1.2), probe)
                flat[i] = orig - h
                down, _ = mlp_loss_and_grads(params, Xs, ys, loss, (0.8, 1.2), probe)
                flat[i] = orig
                numeric = (up - down) / (2 * h)
                analytic = grads[key].ravel()[i]
                rel = abs(analytic - numeric) / max(abs(numeric), 1e-8)
                assert rel <= 1e-4

    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(f"\n[criterion 9] PASS - MLP recall1 {m['recall1']:.2f}, recall0 "
          f"{m['recall0']:.2f}, BA {m['balanced_accuracy']:.2f} > treat-all "
          f"{treat_all_ba:.2f}; gradient checks <= 1e-4 ({elapsed:.0f} s)")


def test_criterion_10_permutation_importance_sanity():
    rng = np.random.default_rng(42)
    n, d = 400, 6
    X = rng.normal(size=(n, d))
    y = (X[:, 0] > 0).astype(int)

    def single_feature_model(mat):
        return (mat[:, 0] > 0).astype(int)

    driver = permutation_importance(single_feature_model, X, y, 0, repeats=30, seed=0)
    assert driver["mean_delta_balanced_accuracy"] > 0.0
    for j in range(1, d):
        res = permutation_importance(single_feature_model, X, y, j, repeats=30, seed=j)
        assert res["flag"] is None
        assert abs(res["mean_delta_balanced_accuracy"]) <= 2 * res["sd"] + 1e-12, (
            f"ignored feature {j} outside +/-2 sd"
        )
    print(f"\n[criterion 10] PASS - driving feature dBA "
          f"{driver['mean_delta_balanced_accuracy']:.3f} > 0; 5 ignored features within "
          f"+/-2 sd of 0")

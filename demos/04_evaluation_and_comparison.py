"""Walkthrough: the full evaluation stack on two competing predictors.

Compares the MLP against the transparent rule engine on the same held-out
split: threshold metrics, AUROC, calibration, decision-curve net benefit,
and paired DeLong/McNemar/bootstrap tests.

Run:  python3 demos/04_evaluation_and_comparison.py
"""

from crsbench.cohort import encode_matrix, fit_scaler, stratified_split
from crsbench.heuristic import rule_chain
from crsbench.metrics import PredictionSet, compare, evaluate
from crsbench.models import inverse_prevalence_weights, predict_proba, train_mlp
from crsbench.schema import load_schema
from crsbench.synthetic import synthetic_table

SEED = 7


def main():
    schema = load_schema()
    cohort = synthetic_table(524, seed=SEED)
    split = stratified_split(cohort, test_fraction=0.2, seed=SEED)
    train, test = cohort.take(split.train_rows), cohort.take(split.test_rows)
    scaler = fit_scaler(train, schema)
    y_train, y_test = train.labels(), test.labels()
    case_ids = tuple(test.ids.tolist())

    model = train_mlp(
        encode_matrix(train, schema, scaler), y_train, schema.feature_order,
        class_weights=inverse_prevalence_weights(y_train, power=0.5),
        seed=SEED, schema=schema,
    )
    mlp_scores = predict_proba(model, encode_matrix(test, schema, scaler))
    mlp_set = PredictionSet(case_ids, y_test, mlp_scores, (mlp_scores >= 0.5).astype(int))

    rules = rule_chain(test.columns)
    rule_set = PredictionSet(case_ids, y_test, rules.proxy_scores(), rules.label)

    for name, pred_set in [("mlp", mlp_set), ("rule engine", rule_set)]:
        r = evaluate(pred_set, model_name=name)
        m = r.metrics
        print(f"\n=== {name} ===")
        print(f"confusion [tn fp; fn tp]: [{r.cm.tn} {r.cm.fp}; {r.cm.fn} {r.cm.tp}]")
        print(f"accuracy {m['accuracy']:.3f}  balanced accuracy "
              f"{m['balanced_accuracy']:.3f}  AUROC {r.auroc:.3f}  Brier {r.brier:.3f}")
        if r.calibration_on_rescaled_proxy:
            print("(calibration computed on rescaled signed proxy scores)")
        nb_05 = next(x for x in r.net_benefit_curve if abs(x["threshold"] - 0.5) < 1e-9)
        print(f"net benefit at t=0.5: {nb_05['net_benefit']:.3f} "
              f"(treat-all {nb_05['treat_all']:.3f})")

    head_to_head = compare(mlp_set, rule_set, n_resamples=2000, seed=0)
    d = head_to_head["delong"]
    mc = head_to_head["mcnemar"]
    print("\n=== paired comparison (a = mlp, b = rule engine) ===")
    print(f"DeLong: AUC {d['auc_a']:.3f} vs {d['auc_b']:.3f}, p = {d['p_value']:.4f}")
    print(f"McNemar ({mc['method']}): b={mc['b_count']} c={mc['c_count']}, "
          f"p = {mc['p_value']:.4f}")
    print(f"winners: {head_to_head['winners']}")


if __name__ == "__main__":
    main()

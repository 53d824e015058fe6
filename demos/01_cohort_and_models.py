"""Walkthrough: synthetic cohort -> stratified split -> three classifiers.

Generates a 524-case synthetic cohort, splits it 80/20 with class
stratification, trains logistic regression, Gaussian naive Bayes, and the
MLP, and prints held-out threshold metrics for each.

Run:  python3 demos/01_cohort_and_models.py
"""

from crsbench.cohort import encode_matrix, fit_scaler, stratified_split
from crsbench.metrics import confusion, threshold_metrics
from crsbench.models import (
    inverse_prevalence_weights,
    predict_hard,
    train_gnb,
    train_logreg,
    train_mlp,
)
from crsbench.schema import load_schema
from crsbench.synthetic import synthetic_table

SEED = 7


def main():
    schema = load_schema()
    cohort = synthetic_table(524, seed=SEED)
    split = stratified_split(cohort, test_fraction=0.2, seed=SEED)
    print(f"cohort: {len(cohort)} cases, "
          f"train prevalence {split.label_prevalence_train:.3f}, "
          f"test prevalence {split.label_prevalence_test:.3f}")

    # each split's rows, in case-id order
    train, test = cohort.take(split.train_rows), cohort.take(split.test_rows)
    scaler = fit_scaler(train, schema)
    X_train = encode_matrix(train, schema, scaler)
    X_test = encode_matrix(test, schema, scaler)
    y_train, y_test = train.labels(), test.labels()

    weights = inverse_prevalence_weights(y_train, power=0.5)
    models = {
        "logreg": train_logreg(X_train, y_train, schema.feature_order,
                               class_weights=weights, l2=1e-3, schema=schema),
        "gnb": train_gnb(X_train, y_train, schema.feature_order, schema=schema),
        "mlp": train_mlp(X_train, y_train, schema.feature_order,
                         class_weights=weights, seed=SEED, schema=schema),
    }
    print(f"\n{'model':8s} {'acc':>6s} {'rec0':>6s} {'rec1':>6s} {'bal_acc':>8s}")
    for name, model in models.items():
        m = threshold_metrics(confusion(y_test, predict_hard(model, X_test)))
        print(f"{name:8s} {m['accuracy']:6.3f} {m['recall0']:6.3f} "
              f"{m['recall1']:6.3f} {m['balanced_accuracy']:8.3f}")


if __name__ == "__main__":
    main()

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_record
from crsbench.cohort import (
    MCID_REDUCTION,
    CohortError,
    LeakageError,
    derive_label,
    encode_matrix,
    fit_scaler,
    label_records,
    leakage_guard,
    parse_cohort,
    serialize_cohort,
    stratified_split,
)
from crsbench.schema import SchemaError
from crsbench.synthetic import generate_synthetic
from oracles import encode_matrix_reference


def test_record_range_validation():
    with pytest.raises(CohortError):
        make_record(snot22_baseline=111)
    with pytest.raises(CohortError):
        make_record(age=17)
    with pytest.raises(CohortError):
        make_record(ct_total=25)
    with pytest.raises(CohortError):
        make_record(endoscopy_total=-1)
    with pytest.raises(CohortError):
        make_record(snot22_6mo=200)


def test_derive_label_threshold():
    assert MCID_REDUCTION == 8.9
    assert derive_label(60, 51) == 1  # reduction 9 >= 8.9
    assert derive_label(60, 52) == 0  # reduction 8 < 8.9
    assert derive_label(60, 70) == 0  # got worse
    with pytest.raises(CohortError):
        derive_label(120, 50)


def test_serialize_parse_round_trip(schema):
    records = generate_synthetic(50, seed=3)
    blob = serialize_cohort(records, schema)
    parsed, report = parse_cohort(blob, schema)
    assert report.rows_total == 50
    assert report.rejected == 0
    assert parsed.records() == records


def test_parse_rejects_bad_rows_and_counts_them(schema):
    records = generate_synthetic(5, seed=1)
    lines = serialize_cohort(records, schema).decode().splitlines()
    header = lines[0].split(",")
    snot_col = header.index("SNOT22_BLN_TOTAL")
    sex_col = header.index("SEX")
    row1 = lines[1].split(",")
    row1[snot_col] = "999"  # out of range
    row2 = lines[2].split(",")
    row2[sex_col] = "Unknown"  # outside the enum dictionary
    row3 = lines[3].split(",")
    row3[snot_col] = "n/a"  # placeholder in a required field
    bad = "\n".join([lines[0], ",".join(row1), ",".join(row2), ",".join(row3)] + lines[4:])
    parsed, report = parse_cohort(bad.encode(), schema)
    assert report.rows_total == 5
    assert report.accepted == 2
    assert report.rejected == 3
    reasons = " | ".join(why for _, why in report.rejections)
    assert "SNOT22_BLN_TOTAL" in reasons
    assert "SEX" in reasons


def test_parse_missing_required_column_is_hard_error(schema):
    blob = serialize_cohort(generate_synthetic(3, seed=2), schema).decode().splitlines()
    header = blob[0].split(",")
    drop = header.index("Age")
    stripped = "\n".join(
        ",".join(v for i, v in enumerate(line.split(",")) if i != drop) for line in blob
    )
    with pytest.raises(SchemaError, match="Age"):
        parse_cohort(stripped.encode(), schema)


def test_parse_missing_optional_fields(schema):
    records = generate_synthetic(4, seed=4)
    lines = serialize_cohort(records, schema).decode().splitlines()
    header = lines[0].split(",")
    id_col = header.index("PATIENT_ID")
    out_col = header.index("SNOT22_6MO_TOTAL")
    row = lines[1].split(",")
    row[id_col] = ""
    row[out_col] = ""
    blob = "\n".join([lines[0], ",".join(row)] + lines[2:])
    parsed, report = parse_cohort(blob.encode(), schema)
    assert report.rejected == 0
    first = parsed.records([0])[0]
    assert first.patient_id == "case_0000"  # synthesized fallback id
    assert first.snot22_6mo is None


def test_label_records_separates_unlabeled():
    labeled_rec = make_record(patient_id="a", snot22_6mo=40)
    unlabeled_rec = make_record(patient_id="b")
    labeled, labels, unlabeled = label_records([labeled_rec, unlabeled_rec])
    assert [r.patient_id for r in labeled] == ["a"]
    assert labels == {"a": 1}
    assert unlabeled == ["b"]


def test_leakage_guard_blocks_postop_names(schema):
    with pytest.raises(LeakageError) as exc_info:
        leakage_guard(["Age", "snot22_6mo_total", "HUV_FU_SCORE"], schema.blocklist)
    names = [n for n, _ in exc_info.value.violations]
    assert names == ["snot22_6mo_total", "HUV_FU_SCORE"]


def test_leakage_guard_is_case_insensitive(schema):
    with pytest.raises(LeakageError):
        leakage_guard(["PostOp_Endo"], schema.blocklist)
    leakage_guard(["Age", "SEX", "BLN_CT_TOTAL"], schema.blocklist)  # clean passes


def test_feature_order_itself_is_clean(schema):
    leakage_guard(list(schema.feature_order), schema.blocklist)
    assert "SNOT22_6MO_TOTAL" not in schema.feature_order


def test_scaler_fit_and_transform(schema):
    records = generate_synthetic(100, seed=5)
    scaler = fit_scaler(records, schema)
    values = np.array([r.snot22_baseline for r in records], dtype=float)
    z = [scaler.transform("SNOT22_BLN_TOTAL", v) for v in values]
    assert np.mean(z) == pytest.approx(0.0, abs=1e-9)
    assert np.std(z) == pytest.approx(1.0, abs=1e-9)


def test_scaler_constant_column_passthrough(schema):
    records = [make_record(patient_id=str(i)) for i in range(5)]
    scaler = fit_scaler(records, schema)
    # every baseline is 60, so sd falls back to 1 and values center to 0
    assert scaler.transform("SNOT22_BLN_TOTAL", 60.0) == 0.0
    assert scaler.transform("SNOT22_BLN_TOTAL", 61.0) == 1.0


def test_scaler_state_id_changes_with_data(schema):
    a = fit_scaler(generate_synthetic(50, seed=1), schema)
    b = fit_scaler(generate_synthetic(50, seed=2), schema)
    assert a.state_id != b.state_id
    assert a.state_id == fit_scaler(generate_synthetic(50, seed=1), schema).state_id


def test_encode_layout(schema):
    records = generate_synthetic(20, seed=6)
    scaler = fit_scaler(records, schema)
    X = encode_matrix(records, schema, scaler)
    assert X.shape == (20, len(schema.feature_order))
    # column j holds feature j of schema order
    j = schema.feature_order.index("CRS_POLYPS")
    assert X[:, j].tolist() == [float(r.crs_polyps) for r in records]
    assert set(np.unique(X[:, j])) <= {0.0, 1.0}
    j = schema.feature_order.index("Age")
    assert X[:, j].tolist() == [scaler.transform("Age", float(r.age)) for r in records]


def test_encode_enum_codes(schema):
    records = [make_record(sex="Male", insurance="Medicare")]
    scaler = fit_scaler(records, schema)
    X = encode_matrix(records, schema, scaler)
    by_name = dict(zip(schema.feature_order, X[0]))
    assert by_name["SEX"] == float(schema.encodings["SEX"]["Male"])
    assert by_name["INSURANCE"] == float(schema.encodings["INSURANCE"]["Medicare"])


@pytest.mark.parametrize("n", [1, 203, 5000])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_encode_matrix_matches_per_row_oracle(schema, seed, n):
    records = generate_synthetic(n, seed=seed)
    scaler = fit_scaler(records[: max(1, n // 2)], schema)
    X = encode_matrix(records, schema, scaler)
    assert X.shape == (n, len(schema.feature_order))
    assert X.tobytes() == encode_matrix_reference(records, schema, scaler).tobytes()


def test_encode_matrix_empty_has_feature_width(schema):
    scaler = fit_scaler(generate_synthetic(20, seed=1), schema)
    assert encode_matrix([], schema, scaler).shape == (0, len(schema.feature_order))


def test_encode_unknown_enum_value_is_error(schema):
    records = [make_record(), make_record(patient_id="t1", race="Martian")]
    scaler = fit_scaler(records, schema)
    with pytest.raises(CohortError, match="RACE.*Martian"):
        encode_matrix(records, schema, scaler)
    with pytest.raises(CohortError, match="RACE.*Martian"):
        encode_matrix(records[1:], schema, scaler)


def test_encode_blocklisted_feature_is_leakage_even_without_records(schema):
    records = generate_synthetic(20, seed=1)
    scaler = fit_scaler(records, schema)
    tainted = dataclasses.replace(
        schema, feature_order=schema.feature_order + ("SNOT22_6MO_TOTAL",)
    )
    for rows in (records, []):
        with pytest.raises(LeakageError):
            encode_matrix(rows, tainted, scaler)


def test_fit_scaler_empty_is_error(schema):
    with pytest.raises(CohortError):
        fit_scaler([], schema)


def test_stratified_split_proportions():
    records = generate_synthetic(524, seed=0)
    split = stratified_split(records, test_fraction=0.2, seed=0)
    assert len(split.test_ids) == 105
    assert len(split.train_ids) == 419
    assert not (split.train_ids & split.test_ids)
    # per-class prevalence preserved to within one case of proportionality
    assert abs(split.label_prevalence_test - split.label_prevalence_train) <= 1.5 / 105


@pytest.mark.parametrize("test_fraction", [1e-9, 0.999])
def test_stratified_split_that_leaves_a_split_empty_is_error(test_fraction):
    with pytest.raises(CohortError, match="records to test"):
        stratified_split(generate_synthetic(80, seed=1), test_fraction=test_fraction, seed=0)


def test_stratified_split_deterministic():
    records = generate_synthetic(200, seed=9)
    a = stratified_split(records, seed=42)
    b = stratified_split(records, seed=42)
    c = stratified_split(records, seed=43)
    assert a.test_ids == b.test_ids
    assert a.test_ids != c.test_ids


def test_stratified_split_rejects_degenerate_inputs():
    records = generate_synthetic(20, seed=1)
    with pytest.raises(CohortError):
        stratified_split(records, test_fraction=0.0)
    with pytest.raises(CohortError):
        stratified_split([make_record(patient_id="x")])  # unlabeled


def test_stratified_split_single_class_error():
    recs = [
        make_record(patient_id=str(i), snot22_6mo=10) for i in range(10)
    ]  # all big reductions -> all class 1
    with pytest.raises(CohortError, match="class 0"):
        stratified_split(recs)


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(20, 200),
    frac=st.floats(0.1, 0.5),
    seed=st.integers(0, 1000),
)
def test_split_sizes_property(n, frac, seed):
    records = generate_synthetic(n, seed=seed % 7)
    labels = {r.patient_id: derive_label(r.snot22_baseline, r.snot22_6mo) for r in records}
    counts = [sum(1 for v in labels.values() if v == c) for c in (0, 1)]
    if min(counts) < 2:
        return
    split = stratified_split(records, test_fraction=frac, seed=seed)
    assert len(split.test_ids) == int(round(n * frac))
    assert len(split.train_ids) + len(split.test_ids) == n
    for cls in (0, 1):
        quota = counts[cls] * frac
        got = sum(1 for i in split.test_ids if labels[i] == cls)
        assert abs(got - quota) <= 1.0

"""The package's record types are NamedTuples that keep what their earlier
frozen-dataclass forms promised: each keeps its field order and keyword
names, builds from keywords with its defaults and checks its values however
it is built (by the constructor, ``_make`` or ``_replace``), and no two
records share a mutable default."""

import logging

import numpy as np
import pytest

from crsbench import cli, cohort, heuristic, metrics, models, protocol, rag, schema, synthetic
from conftest import BASE_RECORD

_RATES = {"crs_polyps": 0.35, "previous_surgery": 0.30, "allergy_testing": 0.40,
          "septal_deviation": 0.30, "depression": 0.20, "fibromyalgia": 0.08, "smoker": 0.15,
          "copd": 0.10, "asthma": 0.20, "osa": 0.15, "diabetes": 0.12, "gerd": 0.20,
          "asa_intolerance": 0.05}

# Each record type: its fields in order, and the defaults of those that have one.
FIELDS = [
    (schema.ColumnSpec, "name kind required min max", {"min": None, "max": None}),
    (schema.Schema, "version columns encodings feature_order continuous blocklist checksum", {}),
    (rag.Passage, "passage_id source_tag text token_count", {}),
    (synthetic.GeneratorConfig,
     "snot22_mean snot22_sd snot22_clamp ct_mean ct_sd ct_clamp endo_mean endo_sd endo_clamp "
     "age_mean age_sd age_clamp rates p_male insurance_probs income_probs race_probs "
     "improvement_shift improvement_noise_scale",
     {"snot22_mean": 50.0, "snot22_sd": 20.0, "snot22_clamp": (9, 110), "ct_mean": 12.0,
      "ct_sd": 5.0, "ct_clamp": (0, 24), "endo_mean": 7.0, "endo_sd": 4.0, "endo_clamp": (0, 20),
      "age_mean": 50.0, "age_sd": 14.0, "age_clamp": (18, 90), "rates": _RATES, "p_male": 0.45,
      "insurance_probs": {"None": 0.08, "Medicaid": 0.22, "Medicare": 0.25, "Private": 0.45},
      "income_probs": {"<25k": 0.15, "25k-50k": 0.25, "50k-75k": 0.25, "75k-100k": 0.20,
                       ">100k": 0.15},
      "race_probs": {"White": 0.70, "Black": 0.15, "Asian": 0.07, "Other": 0.08},
      "improvement_shift": 1.5, "improvement_noise_scale": 2.5}),
    (heuristic.HeuristicPrediction,
     "base_improvement factor_trace adjusted_improvement predicted_6mo label confidence", {}),
    (heuristic.RuleChain, "base multipliers applied delta predicted_6mo label band", {}),
    (protocol.ModelIdentity, "vendor model_id access_date", {}),
    (protocol.DecodingParams, "temperature top_p max_tokens seed",
     {"temperature": 0.2, "top_p": 0.9, "max_tokens": 512, "seed": None}),
    (protocol.ParsedOutput, "prediction confidence parser_status", {}),
    (models.LossConfig, "kind gamma alpha", {"kind": "weighted", "gamma": 2.0, "alpha": 0.25}),
    (models.MlpArchitecture, "input_dim hidden_units", {"hidden_units": 400}),
    (models.OptimizerConfig, "learning_rate momentum batch_size max_epochs val_fraction patience",
     {"learning_rate": 1e-3, "momentum": 0.9, "batch_size": 32, "max_epochs": 200,
      "val_fraction": 0.1, "patience": 20}),
    (models.TrainedModel,
     "kind feature_names params training_seed loss_config class_weights schema_checksum metadata",
     {"training_seed": 0, "loss_config": None, "class_weights": (1.0, 1.0), "schema_checksum": "",
      "metadata": {}}),
    (metrics.ConfusionMatrix, "tn fp fn tp", {}),
    (metrics.PredictionSet, "case_ids labels scores hard_labels", {}),
    (metrics.ReliabilityBin, "bin_center mean_prob empirical_rate count", {}),
    (metrics.EvaluationReport,
     "model_name cm metrics auroc average_precision brier reliability net_benefit_curve roc pr "
     "calibration_on_rescaled_proxy",
     {"calibration_on_rescaled_proxy": False}),
    (cohort.PatientRecord, " ".join(BASE_RECORD) + " snot22_6mo", {"snot22_6mo": None}),
    (cohort.RejectionReport, "rows_total accepted rejections", {}),
    (cohort.Scaler, "columns means sds", {}),
    (cohort.CohortSplit,
     "train_ids test_ids seed label_prevalence_train label_prevalence_test train_rows test_rows", {}),
    (cli._Cohort,
     "checksum rejection unlabeled split scaler test X_train X_test y_train y_test case_ids",
     {}),
]

# Valid values for the fields without a default of the record types that
# check their values; the others take any value.
VALID = {
    rag.Passage: {"passage_id": "p1", "source_tag": "t", "text": "a passage", "token_count": 2},
    protocol.ModelIdentity: {"vendor": "v", "model_id": "m", "access_date": "2026-01-01"},
    models.MlpArchitecture: {"input_dim": 4},
    metrics.ConfusionMatrix: {"tn": 1, "fp": 2, "fn": 3, "tp": 4},
    metrics.PredictionSet: {"case_ids": ("a", "b"), "labels": [0, 1], "scores": [0.2, 0.7],
                            "hard_labels": [1, 1]},
    cohort.PatientRecord: BASE_RECORD,
}


def _required(cls, defaults) -> dict:
    return VALID.get(cls) or {name: f"<{name}>" for name in cls._fields if name not in defaults}


@pytest.mark.parametrize("cls, names, defaults", FIELDS, ids=lambda v: getattr(v, "__name__", ""))
def test_record_builds_from_keywords_with_its_defaults(cls, names, defaults):
    assert cls._fields == tuple(names.split())
    required = _required(cls, defaults)
    record = cls(**required)
    assert {name: getattr(record, name) for name in defaults} == defaults
    assert isinstance(record, tuple) and type(record) is cls and type(record._replace()) is cls
    for name, value in required.items():
        assert np.array_equal(getattr(record, name), value), name


def test_twenty_two_record_types_and_none_of_them_a_dataclass():
    assert len(FIELDS) == 22
    assert not any(hasattr(cls, "__dataclass_fields__") for cls, _, _ in FIELDS)


_EMPTY_IDENTITY = "vendor, model_id, and access_date must be nonempty"
BAD = [
    (cohort.PatientRecord, {"snot22_baseline": 111}, cohort.CohortError,
     "snot22_baseline out of [0,110]: 111"),
    (cohort.PatientRecord, {"snot22_6mo": -1}, cohort.CohortError, "snot22_6mo out of [0,110]: -1"),
    (cohort.PatientRecord, {"age": 17}, cohort.CohortError, "age below 18: 17"),
    (cohort.PatientRecord, {"ct_total": 25}, cohort.CohortError, "ct_total out of [0,24]: 25"),
    (cohort.PatientRecord, {"endoscopy_total": 21}, cohort.CohortError,
     "endoscopy_total out of [0,20]: 21"),
    (metrics.ConfusionMatrix, {"fn": -1}, metrics.MetricError, "confusion counts must be non-negative"),
    (metrics.PredictionSet, {"labels": [0, 2]}, metrics.MetricError, "labels must be 0 or 1"),
    (metrics.PredictionSet, {"hard_labels": [1, -1]}, metrics.MetricError,
     "hard_labels must be 0 or 1"),
    (metrics.PredictionSet, {"scores": [0.5]}, metrics.MetricError,
     "PredictionSet fields must share one length"),
    (metrics.PredictionSet, {"scores": [0.5, float("inf")]}, metrics.MetricError,
     "scores must be finite"),
    (metrics.PredictionSet, {"case_ids": ("a", "a")}, metrics.MetricError, "case_ids must be unique"),
    (models.LossConfig, {"kind": "hinge"}, models.ModelError, "unknown loss kind: hinge"),
    (models.MlpArchitecture, {"hidden_units": 0}, models.ModelError, "hidden_units must be >= 1"),
    (protocol.ModelIdentity, {"vendor": ""}, protocol.ProtocolError, _EMPTY_IDENTITY),
    (protocol.ModelIdentity, {"access_date": ""}, protocol.ProtocolError, _EMPTY_IDENTITY),
    (rag.Passage, {"text": ""}, rag.RagError, "passage p1 has empty text"),
]


@pytest.mark.parametrize("cls, change, error, message", BAD,
                         ids=lambda v: getattr(v, "__name__", None) if isinstance(v, type) else None)
def test_record_checks_its_values_however_it_is_built(cls, change, error, message):
    good = cls(**VALID.get(cls, {}))
    bad = {**good._asdict(), **change}
    builds = {
        "keywords": lambda: cls(**bad),
        "positions": lambda: cls(*bad.values()),
        "_make": lambda: cls._make(bad.values()),
        "_replace": lambda: good._replace(**change),
    }
    for how, build in builds.items():
        with pytest.raises(error) as raised:
            build()
        assert str(raised.value) == message, how


def test_prediction_set_holds_int_labels_and_float_scores_however_it_is_built():
    good = metrics.PredictionSet(**VALID[metrics.PredictionSet])
    for record in (good, good._replace(labels=[True, False], scores=[1, 0]),
                   metrics.PredictionSet._make([("a", "b"), [1, 0], [1, 0], [0.0, 1.0]])):
        assert [v.dtype.kind for v in record[1:]] == ["i", "f", "i"]


def test_decoding_params_warn_outside_the_default_ranges_however_built(caplog):
    params = protocol.DecodingParams()
    with caplog.at_level(logging.WARNING, logger="crsbench.protocol"):
        params._replace(temperature=0.9)
        protocol.DecodingParams._make([0.2, 0.5, 512, None])
    assert caplog.messages == ["temperature 0.900 outside default range [0.1, 0.5]",
                               "top_p 0.500 outside default range [0.70, 0.95]"]


@pytest.mark.parametrize("cls, names", [
    (models.TrainedModel, ["metadata"]),
    (synthetic.GeneratorConfig, ["rates", "insurance_probs", "income_probs", "race_probs"]),
], ids=lambda v: getattr(v, "__name__", None))
def test_no_two_records_share_a_mutable_default(cls, names):
    required = _required(cls, cls._field_defaults)
    first, second = cls(**required), cls(*required.values())
    for name in names:
        mine, default = getattr(first, name), cls._field_defaults[name]
        assert mine == getattr(second, name) == default
        assert mine is not getattr(second, name) and mine is not default
        mine.update(x=1) if type(mine) is dict else mine.append(1)
        assert getattr(second, name) == default != mine
    given = {name: type(getattr(second, name))() for name in names}
    kept = cls(**required, **given)
    assert all(getattr(kept, name) is given[name] for name in names)


def test_schema_columns_are_found_by_name_in_each_schema():
    packaged = schema.load_schema()
    renamed = packaged._replace(columns=(packaged.columns[0]._replace(name="ID"), *packaged.columns[1:]))
    assert renamed.column("ID") is renamed.columns[0]
    assert packaged.column(packaged.columns[0].name) is packaged.columns[0]
    with pytest.raises(schema.SchemaError, match="unknown column: ID"):
        packaged.column("ID")


def test_parser_outcomes_compute_their_vote_and_audit_head_once():
    first = protocol.parse_response("PREDICTION: 1\nCONFIDENCE: neutral")
    again = protocol.parse_response("prediction : 1.\nConfidence:   NEUTRAL")
    assert first is again
    assert first.vote is again.vote and first.audit_head is again.audit_head
    assert set(vars(first)) == {"vote", "audit_head"}

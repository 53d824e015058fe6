import json

import numpy as np
import pytest

from crsbench.cohort import CohortError
from crsbench.schema import SchemaError, load_schema
from crsbench.synthetic import GeneratorConfig, generate_synthetic
from crsbench.vocab import CONFIDENCE_VALUE, Confidence, confidence_text
from oracles import derive_label


def test_schema_structure(schema):
    assert schema.version == "1.0.0"
    assert len(schema.checksum) == 64
    assert len(schema.feature_order) == 21
    assert schema.feature_order[0] == "SNOT22_BLN_TOTAL"
    assert "SNOT22_6MO_TOTAL" not in schema.feature_order
    assert set(schema.continuous) <= set(schema.feature_order)
    assert schema.column("Age").kind == "int"
    with pytest.raises(SchemaError):
        schema.column("NOPE")


def test_schema_encodings(schema):
    assert schema.encodings["SEX"] == {"Female": 0, "Male": 1}
    assert set(schema.encodings["INSURANCE"]) == {"None", "Medicaid", "Medicare", "Private"}


def test_schema_checksum_tracks_bytes(tmp_path, schema):
    from importlib import resources

    raw = resources.files("crsbench.data").joinpath("schema.json").read_bytes()
    path = tmp_path / "schema.json"
    path.write_bytes(raw)
    assert load_schema(path).checksum == schema.checksum
    doc = json.loads(raw)
    doc["version"] = "1.0.1"
    path.write_text(json.dumps(doc))
    assert load_schema(path).checksum != schema.checksum


def test_schema_rejects_unknown_feature(tmp_path):
    from importlib import resources

    doc = json.loads(
        resources.files("crsbench.data").joinpath("schema.json").read_text(encoding="utf-8")
    )
    doc["feature_order"].append("GHOST")
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="GHOST"):
        load_schema(path)


def test_confidence_vocabulary():
    levels = {level.value: level for level in Confidence}
    assert levels.get(confidence_text("Very Confident")) is Confidence.VERY_CONFIDENT
    assert levels.get(confidence_text("  somewhat    unsure ")) is Confidence.SOMEWHAT_UNSURE
    assert levels.get(confidence_text("confident")) is None
    assert levels.get(confidence_text("")) is None
    values = [CONFIDENCE_VALUE[c] for c in Confidence]
    assert values == sorted(values, reverse=True)  # monotone in stated confidence
    assert values[0] == 1.0 and values[-1] == 0.0


def test_generate_synthetic_determinism():
    a = generate_synthetic(30, seed=5)
    b = generate_synthetic(30, seed=5)
    c = generate_synthetic(30, seed=6)
    assert a == b
    assert a != c
    assert [r.patient_id for r in a] == [f"syn_5_{i:05d}" for i in range(30)]


def test_generate_synthetic_ranges():
    records = generate_synthetic(300, seed=11)
    for r in records:
        assert 9 <= r.snot22_baseline <= 110
        assert 0 <= r.ct_total <= 24
        assert 0 <= r.endoscopy_total <= 20
        assert 18 <= r.age <= 90
        assert 0 <= r.snot22_6mo <= 110
        assert r.sex in ("Female", "Male")


def test_generate_synthetic_prevalence_near_target():
    prevalences = []
    for seed in range(10):
        records = generate_synthetic(524, seed=seed)
        labels = [derive_label(r.snot22_baseline, r.snot22_6mo) for r in records]
        prevalences.append(np.mean(labels))
    assert 0.76 <= np.mean(prevalences) <= 0.86
    assert all(0.70 <= p <= 0.90 for p in prevalences)


def test_generate_synthetic_validates_config():
    with pytest.raises(CohortError):
        generate_synthetic(0, seed=1)
    with pytest.raises(CohortError):
        generate_synthetic(5, seed=1, params=GeneratorConfig(age_clamp=(10, 90)))
    bad_rates = GeneratorConfig(rates={**GeneratorConfig().rates, "smoker": 1.5})
    with pytest.raises(CohortError):
        generate_synthetic(5, seed=1, params=bad_rates)

import hashlib
import json
import os

import pytest

from conftest import make_record
from crsbench import protocol
from crsbench.protocol import (
    AUDIT_SCHEMA_VERSION,
    Aggregate,
    AuditLog,
    DecodingParams,
    ModelClient,
    ModelIdentity,
    ParsedOutput,
    ParserStatus,
    ProtocolError,
    ReplayClient,
    ReplayMissError,
    TransportError,
    aggregate_replicates,
    build_prompt,
    load_prompt_template,
    parse_response,
    proxy_score,
    run_trial,
    serialize_case,
    store_replay_responses,
)
from crsbench.vocab import Confidence

IDENTITY = ModelIdentity("vendor", "model-x", "2025-01-01")
DECODING = DecodingParams()


def _ok(pred, conf=Confidence.VERY_CONFIDENT):
    return ParsedOutput(pred, conf, ParserStatus.OK)


# --- parsing ---------------------------------------------------------------


def test_parse_well_formed():
    out = parse_response("PREDICTION: 1\nCONFIDENCE: somewhat confident\n")
    assert out.ok
    assert out.prediction == 1
    assert out.confidence is Confidence.SOMEWHAT_CONFIDENT


def test_parse_tolerates_case_and_punctuation():
    out = parse_response("Sure!\nprediction : 0.\nConfidence:   Very   CONFIDENT")
    assert out.ok
    assert out.prediction == 0
    assert out.confidence is Confidence.VERY_CONFIDENT


def test_parse_missing_prediction():
    out = parse_response("CONFIDENCE: neutral")
    assert out.parser_status is ParserStatus.MISSING_PREDICTION
    assert out.prediction is None


def test_parse_missing_confidence():
    out = parse_response("PREDICTION: 1\nsome trailing chatter")
    assert out.parser_status is ParserStatus.MISSING_CONFIDENCE
    assert out.prediction == 1
    assert out.confidence is None


def test_parse_confidence_outside_vocabulary():
    out = parse_response("PREDICTION: 1\nCONFIDENCE: extremely sure")
    assert out.parser_status is ParserStatus.MISSING_CONFIDENCE


def test_parse_malformed_prediction_token():
    out = parse_response("PREDICTION: maybe\nCONFIDENCE: neutral")
    assert out.parser_status is ParserStatus.MALFORMED
    assert out.prediction is None


def test_parser_is_total_on_random_strings(rng):
    statuses = set()
    for _ in range(2000):
        raw = bytes(rng.integers(0, 256, size=rng.integers(0, 80))).decode("latin-1")
        out = parse_response(raw)
        statuses.add(out.parser_status)
        assert out.parser_status in ParserStatus
    assert ParserStatus.MISSING_PREDICTION in statuses


# --- proxy score and aggregation -------------------------------------------


def test_proxy_score_mapping():
    assert proxy_score(1, Confidence.VERY_CONFIDENT) == 1.0
    assert proxy_score(0, Confidence.VERY_CONFIDENT) == -1.0
    assert proxy_score(1, Confidence.NEUTRAL) == 0.5
    assert proxy_score(0, Confidence.SOMEWHAT_UNSURE) == -0.25
    assert proxy_score(1, Confidence.NOT_AT_ALL_CONFIDENT) == 0.0
    assert proxy_score(0, Confidence.NOT_AT_ALL_CONFIDENT) == 0.0


def test_aggregate_majority():
    outs = [_ok(1), _ok(1), _ok(1), _ok(0), _ok(0)]
    agg = aggregate_replicates(outs, k=5)
    assert agg.final_label == 1
    assert agg.vote_counts == (2, 3)
    assert agg.n_valid == 5
    assert agg.flag is None


def test_aggregate_ignores_invalid_replicates():
    outs = [_ok(0), ParsedOutput(None, None, ParserStatus.MALFORMED),
            ParsedOutput(1, None, ParserStatus.MISSING_CONFIDENCE), _ok(0), _ok(1)]
    agg = aggregate_replicates(outs, k=5)
    assert agg.n_valid == 3
    assert agg.final_label == 0


def test_aggregate_tie_broken_by_proxy():
    outs = [
        _ok(1, Confidence.VERY_CONFIDENT), _ok(1, Confidence.VERY_CONFIDENT),
        _ok(0, Confidence.SOMEWHAT_UNSURE), _ok(0, Confidence.SOMEWHAT_UNSURE),
    ]
    agg = aggregate_replicates(outs, k=4)
    assert agg.final_label == 1
    assert agg.flag == "tie_broken_by_proxy"


def test_aggregate_residual_tie_defaults_to_zero():
    outs = [_ok(1, Confidence.NEUTRAL), _ok(0, Confidence.NEUTRAL)]
    agg = aggregate_replicates(outs, k=2)
    assert agg.final_label == 0
    assert agg.flag == "residual_tie"


def test_aggregate_all_unparseable():
    outs = [ParsedOutput(None, None, ParserStatus.MALFORMED)] * 5
    agg = aggregate_replicates(outs, k=5)
    assert agg == Aggregate(0, None, (0, 0), 0, flag="unparseable")


def test_aggregate_wrong_count_is_error():
    with pytest.raises(ProtocolError):
        aggregate_replicates([_ok(1)], k=5)


# --- case serialization and prompt assembly ---------------------------------


def test_serialize_case_layout(schema):
    rec = make_record(patient_id="p-9", snot22_6mo=12)
    block = serialize_case(rec, schema)
    lines = block.splitlines()
    assert lines[0] == "PATIENT_ID: p-9"
    assert "SNOT22_BLN_TOTAL: 60" in lines
    assert "CRS_POLYPS: 1" in lines
    assert not any("6MO" in line for line in lines)  # outcome never serialized
    # deterministic
    assert block == serialize_case(rec, schema)


def test_build_prompt_hash_and_order(schema):
    template = load_prompt_template()
    block = serialize_case(make_record(), schema)
    prompt, h = build_prompt([block], template)
    assert prompt.startswith(template)
    assert prompt.endswith(block)
    assert h == hashlib.sha256(prompt.encode()).hexdigest()
    with pytest.raises(ProtocolError):
        build_prompt([], template)


def test_prompt_template_mentions_mcid_and_output_contract():
    template = load_prompt_template()
    assert "8.9" in template
    assert "0 or 1" in template
    assert "very confident" in template.lower()


# --- clients, replay, audit --------------------------------------------------


class ScriptedClient(ModelClient):
    def __init__(self, responses, failures=0):
        self.responses = responses
        self.failures = failures
        self.calls = 0

    def complete(self, prompt, decoding, replicate_index):
        self.calls += 1
        if self.failures > 0:
            self.failures -= 1
            raise TransportError("boom")
        return self.responses[replicate_index % len(self.responses)]


def test_run_trial_happy_path(tmp_path, schema):
    client = ScriptedClient(["PREDICTION: 1\nCONFIDENCE: very confident"])
    audit = AuditLog(tmp_path / "audit.jsonl")
    t = run_trial(client, make_record(), schema, IDENTITY, DECODING, k=5, audit_log=audit)
    assert t.aggregate.final_label == 1
    assert t.aggregate.n_valid == 5
    assert len(t.replicates) == 5
    rows = audit.read_transcripts()
    assert len(rows) == 1
    assert rows[0]["case_id"] == "t0"
    assert rows[0]["model"]["identity"] == "vendor/model-x (2025-01-01)"


def test_audit_log_has_version_header(tmp_path):
    path = tmp_path / "audit.jsonl"
    AuditLog(path)
    first = json.loads(path.read_text().splitlines()[0])
    assert first == {"audit_schema_version": AUDIT_SCHEMA_VERSION}
    AuditLog(path)  # reopening does not rewrite the header
    assert len(path.read_text().splitlines()) == 1


def test_run_trial_retries_then_succeeds(schema):
    sleeps = []
    client = ScriptedClient(["PREDICTION: 0\nCONFIDENCE: neutral"], failures=2)
    t = run_trial(
        client, make_record(), schema, IDENTITY, DECODING, k=1,
        retries=3, backoff_base=0.5, sleep=sleeps.append, clock=lambda: 0.0,
    )
    assert t.aggregate.final_label == 0
    assert sleeps == [0.5, 1.0]  # exponential backoff


def test_run_trial_records_transport_failure_as_malformed(schema):
    client = ScriptedClient(["unused"], failures=99)
    t = run_trial(
        client, make_record(), schema, IDENTITY, DECODING, k=2,
        retries=3, sleep=lambda s: None, clock=lambda: 0.0,
    )
    assert t.aggregate.flag == "unparseable"
    for raw, parsed in t.replicates:
        assert parsed.parser_status is ParserStatus.MALFORMED
        assert "transport failure" in raw


def test_replay_round_trip(tmp_path, schema):
    rec = make_record(patient_id="r1")
    template = load_prompt_template()
    _, prompt_hash = build_prompt([serialize_case(rec, schema)], template)
    responses = ["PREDICTION: 1\nCONFIDENCE: somewhat confident"] * 3
    store_replay_responses(tmp_path, prompt_hash, responses)
    client = ReplayClient(tmp_path)
    t1 = run_trial(client, rec, schema, IDENTITY, DECODING, k=3, clock=lambda: 0.0)
    t2 = run_trial(client, rec, schema, IDENTITY, DECODING, k=3, clock=lambda: 0.0)
    assert t1.canonical_bytes() == t2.canonical_bytes()
    assert t1.aggregate.final_label == 1


def test_replay_miss_is_hard_error(tmp_path, schema):
    client = ReplayClient(tmp_path)
    with pytest.raises(ReplayMissError):
        run_trial(client, make_record(), schema, IDENTITY, DECODING, k=1)


def test_replay_miss_on_short_response_list(tmp_path, schema):
    rec = make_record()
    _, prompt_hash = build_prompt([serialize_case(rec, schema)], load_prompt_template())
    store_replay_responses(tmp_path, prompt_hash, ["PREDICTION: 1\nCONFIDENCE: neutral"])
    with pytest.raises(ReplayMissError):
        run_trial(ReplayClient(tmp_path), rec, schema, IDENTITY, DECODING, k=5)


def test_replay_reads_store_once_per_trial_and_sees_rewrites(tmp_path, schema, monkeypatch):
    rec = make_record(patient_id="r1")
    template = load_prompt_template()
    _, prompt_hash = build_prompt([serialize_case(rec, schema)], template)
    store_replay_responses(tmp_path, prompt_hash, ["PREDICTION: 1\nCONFIDENCE: neutral"] * 5)
    reads = []

    def counting_open(path, *args, **kwargs):  # every file the protocol module opens
        reads.append(os.path.basename(path))
        return open(path, *args, **kwargs)

    monkeypatch.setattr(protocol, "open", counting_open, raising=False)
    client = ReplayClient(tmp_path)

    t1 = run_trial(client, rec, schema, IDENTITY, DECODING, k=5, template=template)
    assert reads == [f"{prompt_hash}.json"]
    store_replay_responses(tmp_path, prompt_hash, ["PREDICTION: 0\nCONFIDENCE: neutral"] * 5)
    t2 = run_trial(client, rec, schema, IDENTITY, DECODING, k=5, template=template)
    assert len(reads) == 2
    assert (t1.aggregate.final_label, t2.aggregate.final_label) == (1, 0)


@pytest.mark.parametrize(
    "entry, defect",
    [
        pytest.param(b"{}", "responses", id="no-responses"),
        pytest.param(b'{"responses": [1, 1, 1]}', "responses", id="non-string-responses"),
        pytest.param(b"[1]", "responses", id="not-an-object"),
        pytest.param(b'{"responses": "PREDICTION: 1"}', "responses", id="responses-a-string"),
        pytest.param(b'{"responses": ["PREDICTION: 1",', "JSON", id="torn-json"),
        pytest.param(b'{"responses": ["\xff"]}', "UTF-8", id="not-utf8"),
    ],
)
def test_unusable_replay_entry_is_replay_miss(tmp_path, schema, entry, defect):
    rec = make_record()
    _, prompt_hash = build_prompt([serialize_case(rec, schema)], load_prompt_template())
    (tmp_path / f"{prompt_hash}.json").write_bytes(entry)
    with pytest.raises(ReplayMissError, match=defect) as info:
        run_trial(ReplayClient(tmp_path), rec, schema, IDENTITY, DECODING, k=1)
    assert info.value.prompt_hash == prompt_hash


def test_canonical_bytes_timestamp_toggle(tmp_path, schema):
    rec = make_record()
    _, prompt_hash = build_prompt([serialize_case(rec, schema)], load_prompt_template())
    store_replay_responses(tmp_path, prompt_hash, ["PREDICTION: 0\nCONFIDENCE: neutral"])
    client = ReplayClient(tmp_path)
    a = run_trial(client, rec, schema, IDENTITY, DECODING, k=1, clock=lambda: 1.0)
    b = run_trial(client, rec, schema, IDENTITY, DECODING, k=1, clock=lambda: 2.0)
    assert a.canonical_bytes() != b.canonical_bytes()
    assert a.canonical_bytes(include_timestamp=False) == b.canonical_bytes(include_timestamp=False)


def test_model_identity_validation():
    with pytest.raises(ProtocolError):
        ModelIdentity("", "m", "2025-01-01")


def test_decoding_params_warn_outside_ranges(caplog):
    import logging

    with caplog.at_level(logging.WARNING, logger="crsbench.protocol"):
        DecodingParams(temperature=0.9, top_p=0.99)
    assert sum("temperature" in r.message for r in caplog.records) == 1
    assert sum("top_p" in r.message for r in caplog.records) == 1


def test_rag_passages_change_prompt_hash(schema):
    from crsbench.rag import Bm25Index, load_corpus

    index = Bm25Index(load_corpus())
    passages, _ = index.retrieve("surgery outcome polyps", k=2)
    block = serialize_case(make_record(), schema)
    template = load_prompt_template()
    plain, plain_hash = build_prompt([block], template)
    augmented, aug_hash = build_prompt([block], template, rag_passages=passages)
    assert plain_hash != aug_hash
    assert augmented.startswith(f"[{passages[0].source_tag}]")
    assert augmented.endswith(block)

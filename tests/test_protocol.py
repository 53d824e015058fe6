import functools
import hashlib
import json
import math
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import ANY_TEXT, BASE_RECORD, EDGE_FLOATS, make_record, time_bound
from crsbench import protocol
from crsbench.cohort import CohortTable
from crsbench.rag import Passage, render_passage
from crsbench.protocol import (
    AUDIT_SCHEMA_VERSION,
    Aggregate,
    AuditLog,
    DecodingParams,
    ModelIdentity,
    ParsedOutput,
    ParserStatus,
    ProtocolError,
    ReplayClient,
    ReplayMissError,
    TrialTranscript,
    aggregate_replicates,
    build_prompt,
    case_blocks,
    load_prompt_template,
    parse_response,
    proxy_score,
    run_trial,
    serialize_case,
    store_replay_responses,
)
from crsbench.vocab import Confidence
from oracles import (
    aggregate_reference,
    parse_response_reference,
    serialize_case_reference,
    transcript_bytes,
)

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


# Outcomes built here, equal to the parser's shared ones but not the same objects
_BUILT_OUTCOMES = (
    st.builds(_ok, st.sampled_from([0, 1]), st.sampled_from(Confidence))
    | st.builds(ParsedOutput, st.sampled_from([None, 0, 1]), st.sampled_from([None, *Confidence]),
                st.sampled_from([s for s in ParserStatus if s is not ParserStatus.OK]))
)
_REPLIES = st.builds(
    "PREDICTION: {}\nCONFIDENCE: {}".format,
    st.sampled_from(["0", "1", "1.", "x"]),
    st.sampled_from([level.value.upper() for level in Confidence] + ["sure"]),
) | ANY_TEXT


@settings(max_examples=500, deadline=None)
@given(outputs=st.lists(_BUILT_OUTCOMES | _REPLIES.map(parse_response), max_size=9))
@example(outputs=[_ok(0, Confidence.NOT_AT_ALL_CONFIDENT)] * 2)  # proxies of -0.0
@example(outputs=[_ok(1, Confidence.SOMEWHAT_UNSURE), _ok(0, Confidence.SOMEWHAT_UNSURE)])
def test_aggregate_matches_the_exact_reference(outputs):
    agg = aggregate_replicates(outputs, k=len(outputs))
    label, mean_proxy, vote_counts, n_valid, flag = aggregate_reference(outputs)
    assert (agg.final_label, agg.vote_counts, agg.n_valid, agg.flag) == (label, vote_counts, n_valid, flag)
    assert repr(agg.mean_proxy) == repr(mean_proxy)  # a zero mean stays +0.0


_SHARED_OUTCOMES = (protocol._MISSING_PREDICTION, protocol._MALFORMED,
                    *(o for by_level in protocol._OUTCOMES.values() for o in by_level.values()))


@settings(max_examples=500, deadline=None)
@given(raw=_REPLIES)
@example(raw="prediction :1.;\rConfidence:\t Very\u2003CONFIDENT \nPREDICTION: 0")
@example(raw="PREDICTION: 0\nCONFIDENCE:  \n neutral")
@example(raw="PREDICTION:\n1,\nCONFIDENCE: sure\nCONFIDENCE: neutral")
def test_parser_matches_the_reference_on_a_cold_and_a_warm_memo(raw):
    protocol._PARSED.pop(raw, None)
    cold = parse_response(raw)
    assert cold == parse_response_reference(raw)
    assert any(cold is shared for shared in _SHARED_OUTCOMES)
    assert parse_response(raw) is cold


def test_parse_memo_stays_within_its_limits(monkeypatch):
    """Texts beyond the entry limit and texts over the length limit are
    parsed correctly and not kept; the memo fills to its entry limit."""
    memo = {}
    monkeypatch.setattr(protocol, "_PARSED", memo)
    limit = protocol._MEMO_TEXT_CHARS
    longest = "PREDICTION: 1\nCONFIDENCE: neutral\n".ljust(limit, "y")
    too_long = [longest + "y", "PREDICTION: 0\n" + "z" * limit, "CONFIDENCE: neutral " * 30]
    levels = [level.value for level in Confidence] + ["sure"]
    many = [f"PREDICTION: {i % 3}\nCONFIDENCE: {levels[i % 6]}\n#{i}"
            for i in range(protocol._MEMO_ENTRIES + 50)]
    for raw in [*too_long, longest, *many] * 2:
        assert parse_response(raw) == parse_response_reference(raw)
        assert len(memo) <= protocol._MEMO_ENTRIES
    assert len(memo) == protocol._MEMO_ENTRIES
    assert longest in memo and memo.keys().isdisjoint(too_long)
    assert memo.keys().isdisjoint(many[-50:])


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


_BOOL_FIELDS = [name for name, value in BASE_RECORD.items() if isinstance(value, bool)]
_CASE = st.fixed_dictionaries({
    "snot22_baseline": st.integers(0, 110),
    "snot22_6mo": st.one_of(st.none(), st.integers(0, 110)),
    # ages past int64 make the age column an object column
    "age": st.one_of(st.integers(18, 120), st.integers(10**29, 10**30 - 1)),
    "sex": st.sampled_from(["Female", "Male"]),
    "ct_total": st.integers(0, 24),
    "endoscopy_total": st.integers(0, 20),
    "insurance": st.sampled_from(["None", "Medicaid", "Medicare", "Private"]),
    "race": st.sampled_from(["White", "Black", "Asian", "Other"]),
    **{name: st.booleans() for name in _BOOL_FIELDS},
})


@settings(max_examples=150, deadline=None)
@given(cases=st.lists(_CASE, min_size=1, max_size=12))
@example(cases=[{"age": 10**30 - 1, "crs_polyps": False, "smoker": True}, {"age": 18}])
def test_case_blocks_match_scalar_reference(schema, cases):
    records = [make_record(patient_id=f"case-{i}", **case) for i, case in enumerate(cases)]
    table = CohortTable.from_records(records)
    assert table.columns["crs_polyps"].dtype == bool
    if any(r.age >= 2**63 for r in records):
        assert table.columns["age"].dtype == object
    want = [serialize_case_reference(r, schema) for r in records]
    assert case_blocks(table, schema) == want
    assert [serialize_case(r, schema) for r in records] == want


def test_build_prompt_hash_and_order(schema):
    template = load_prompt_template()
    block = serialize_case(make_record(), schema)
    prompt, h = build_prompt([block], template)
    assert prompt.startswith(template)
    assert prompt.endswith(block)
    assert h == hashlib.sha256(prompt.encode()).hexdigest()
    with pytest.raises(ProtocolError):
        build_prompt([], template)


def _sha256_of_prompt(parts):
    """SHA-256 of the parts joined by blank lines, or None when the text has a
    lone surrogate and cannot be encoded."""
    try:
        return hashlib.sha256("\n\n".join(parts).encode("utf-8")).hexdigest()
    except UnicodeEncodeError:
        return None


_PASSAGES = st.lists(st.builds(Passage, st.just("p"), ANY_TEXT, ANY_TEXT.filter(bool), st.just(1)),
                     max_size=2)


@settings(max_examples=300, deadline=None)
@given(prompts=st.lists(
    st.tuples(ANY_TEXT, _PASSAGES, st.lists(ANY_TEXT, min_size=1, max_size=3)), min_size=1, max_size=4,
))
@example(prompts=[("t", [], ["b"]), ("t", [Passage("p", "s", "x", 1)], ["b"]), ("u", [], ["b"]),
                  ("t", [], ["b"])])
@example(prompts=[("\ud800", [], ["b"]), ("t", [], ["\udfff"])])
def test_prompt_hash_is_the_sha256_of_the_prompt_text(prompts):
    """Prompts of several templates in one process, each hashed by
    ``build_prompt`` and, one case block at a time, by ``run_trial``."""
    client = ScriptedClient(["PREDICTION: 1"])
    for template, passages, blocks in prompts:
        leading = [render_passage(p) for p in passages] + [template]
        want = _sha256_of_prompt([*leading, *blocks])
        if want is None:
            with pytest.raises(UnicodeEncodeError):
                build_prompt(blocks, template, passages)
        else:
            prompt, prompt_hash = build_prompt(blocks, template, passages)
            assert prompt == "\n\n".join([*leading, *blocks])
            assert prompt_hash == want
        for block in blocks:
            want = _sha256_of_prompt([*leading, block])
            trial = functools.partial(run_trial, client, "c", block, IDENTITY, DECODING, k=1,
                                      template=template, rag_passages=passages)
            if want is None:
                with pytest.raises(UnicodeEncodeError):
                    trial()
            else:
                assert trial().prompt_hash == want


def test_prompt_template_mentions_mcid_and_output_contract():
    template = load_prompt_template()
    assert "8.9" in template
    assert "0 or 1" in template
    assert "very confident" in template.lower()


# --- clients, replay, audit --------------------------------------------------


class ScriptedClient:
    def __init__(self, responses):
        self.responses = responses
        self.calls = 0

    def complete(self, prompt_hash, k):
        self.calls += 1
        return [self.responses[i % len(self.responses)] for i in range(k)]


def _trial(client, rec, schema, *args, template=None, **kwargs):
    """``run_trial`` on the case block of one record, under the packaged
    prompt template unless ``template`` is given."""
    return run_trial(client, rec.patient_id, serialize_case(rec, schema), *args,
                     template=template or load_prompt_template(), **kwargs)


def test_run_trial_happy_path(tmp_path, schema):
    client = ScriptedClient(["PREDICTION: 1\nCONFIDENCE: very confident"])
    audit = AuditLog(tmp_path / "audit.jsonl")
    t = _trial(client, make_record(), schema, IDENTITY, DECODING, k=5, audit_log=audit)
    audit.close()
    assert client.calls == 1  # all k replicates come from one call
    assert t.aggregate.final_label == 1
    assert t.aggregate.n_valid == 5
    assert len(t.replicates) == 5
    rows = audit.read_transcripts()
    assert len(rows) == 1
    assert rows[0]["case_id"] == "t0"
    assert rows[0]["model"]["identity"] == "vendor/model-x (2025-01-01)"


def test_audit_log_has_version_header(tmp_path):
    path = tmp_path / "audit.jsonl"
    AuditLog(path).close()
    first = json.loads(path.read_text().splitlines()[0])
    assert first == {"audit_schema_version": AUDIT_SCHEMA_VERSION}
    AuditLog(path).close()  # reopening does not rewrite the header
    assert len(path.read_text().splitlines()) == 1


def test_audit_log_into_an_existing_empty_file_keeps_every_trial(tmp_path, schema):
    records = [make_record(patient_id=patient_id) for patient_id in ("e1", "e2")]
    template = load_prompt_template()
    for rec in records:
        _, prompt_hash = build_prompt([serialize_case(rec, schema)], template)
        store_replay_responses(tmp_path / "store", prompt_hash, ["PREDICTION: 1"] * 3)
    path = tmp_path / "audit.jsonl"
    path.touch()
    audit = AuditLog(path)
    client = ReplayClient(tmp_path / "store")
    for rec in records:
        _trial(client, rec, schema, IDENTITY, DECODING, k=3, template=template, audit_log=audit)
    audit.close()
    header = json.loads(path.read_text().splitlines()[0])
    assert header == {"audit_schema_version": AUDIT_SCHEMA_VERSION}
    assert [row["case_id"] for row in audit.read_transcripts()] == ["e1", "e2"]


def test_replay_round_trip(tmp_path, schema):
    rec = make_record(patient_id="r1")
    template = load_prompt_template()
    _, prompt_hash = build_prompt([serialize_case(rec, schema)], template)
    responses = ["PREDICTION: 1\nCONFIDENCE: somewhat confident"] * 3
    store_replay_responses(tmp_path, prompt_hash, responses)
    client = ReplayClient(tmp_path)
    t1 = _trial(client, rec, schema, IDENTITY, DECODING, k=3, clock=lambda: 0.0)
    t2 = _trial(client, rec, schema, IDENTITY, DECODING, k=3, clock=lambda: 0.0)
    assert transcript_bytes(t1) == transcript_bytes(t2)
    assert t1.aggregate.final_label == 1


def test_replay_miss_is_hard_error(tmp_path, schema):
    client = ReplayClient(tmp_path)
    with pytest.raises(ReplayMissError):
        _trial(client, make_record(), schema, IDENTITY, DECODING, k=1)


def test_replay_miss_on_short_response_list(tmp_path, schema):
    rec = make_record()
    _, prompt_hash = build_prompt([serialize_case(rec, schema)], load_prompt_template())
    store_replay_responses(tmp_path, prompt_hash, ["PREDICTION: 1\nCONFIDENCE: neutral"])
    with pytest.raises(ReplayMissError, match="1 responses, replicate 1 asked for"):
        _trial(ReplayClient(tmp_path), rec, schema, IDENTITY, DECODING, k=5)


def test_replay_reads_store_once_per_trial_and_sees_rewrites(tmp_path, schema, monkeypatch):
    rec = make_record(patient_id="r1")
    template = load_prompt_template()
    _, prompt_hash = build_prompt([serialize_case(rec, schema)], template)
    store_replay_responses(tmp_path, prompt_hash, ["PREDICTION: 1\nCONFIDENCE: neutral"] * 5)
    reads, os_open = [], os.open

    def counting_open(path, *args, **kwargs):  # every file descriptor the trial opens
        reads.append(os.path.basename(path))
        return os_open(path, *args, **kwargs)

    monkeypatch.setattr(protocol.os, "open", counting_open)
    client = ReplayClient(tmp_path)

    t1 = _trial(client, rec, schema, IDENTITY, DECODING, k=5, template=template)
    assert reads == [f"{prompt_hash}.json"]
    store_replay_responses(tmp_path, prompt_hash, ["PREDICTION: 0\nCONFIDENCE: neutral"] * 5)
    t2 = _trial(client, rec, schema, IDENTITY, DECODING, k=5, template=template)
    assert len(reads) == 2
    assert (t1.aggregate.final_label, t2.aggregate.final_label) == (1, 0)


class _RecordingSha256:
    """A SHA-256 state that logs the bytes each of its copies is fed."""

    def __init__(self, state, fed):
        self.state, self.fed = state, fed

    def copy(self):
        return _RecordingSha256(self.state.copy(), self.fed)

    def update(self, data):
        self.fed.append(data)
        self.state.update(data)

    def hexdigest(self):
        return self.state.hexdigest()


def test_run_trial_hashes_its_prompt_once(tmp_path, schema, monkeypatch):
    """Two trials with one template hash the template's text at most once,
    and each then feeds the hash only its own case block."""
    template = load_prompt_template() + "\n(hash-count template)"  # in no earlier test's cache
    blocks = [serialize_case(make_record(patient_id=i), schema) for i in ("h1", "h2")]
    sha256 = hashlib.sha256
    hashes = [sha256(f"{template}\n\n{block}".encode()).hexdigest() for block in blocks]
    for prompt_hash in hashes:
        store_replay_responses(tmp_path, prompt_hash, ["PREDICTION: 1\nCONFIDENCE: neutral"] * 5)
    prefixes, fed = [], []

    def recording_sha256(data):
        prefixes.append(data)
        return _RecordingSha256(sha256(data), fed)

    monkeypatch.setattr(protocol.hashlib, "sha256", recording_sha256)
    client = ReplayClient(tmp_path)
    trials = [run_trial(client, f"h{i}", block, IDENTITY, DECODING, k=5, template=template)
              for i, block in enumerate(blocks)]
    assert [t.prompt_hash for t in trials] == hashes
    assert prefixes == [f"{template}\n\n".encode()]
    assert fed == [block.encode() for block in blocks]


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
        _trial(ReplayClient(tmp_path), rec, schema, IDENTITY, DECODING, k=1)
    assert info.value.prompt_hash == prompt_hash


@pytest.mark.parametrize(
    "plant",
    [
        pytest.param(os.mkfifo, id="fifo"),
        pytest.param(os.mkdir, id="directory"),
        pytest.param(lambda path: os.symlink(os.devnull, path), id="device"),
    ],
)
def test_non_regular_replay_entry_is_replay_miss(tmp_path, schema, plant):
    rec = make_record()
    _, prompt_hash = build_prompt([serialize_case(rec, schema)], load_prompt_template())
    plant(tmp_path / f"{prompt_hash}.json")
    with time_bound(5), pytest.raises(ReplayMissError, match="not a regular file") as info:
        _trial(ReplayClient(tmp_path), rec, schema, IDENTITY, DECODING, k=1)
    assert info.value.prompt_hash == prompt_hash


_LARGE_RESPONSES = [f"PREDICTION: {i % 2}\nCONFIDENCE: neutral\n{'x' * 40_000}" for i in range(5)]


def test_replay_entry_larger_than_a_read_chunk_is_read_whole(tmp_path, monkeypatch):
    store_replay_responses(tmp_path, "h", _LARGE_RESPONSES)
    size = (tmp_path / "h.json").stat().st_size
    assert size > 3 * protocol._ENTRY_READ_CHUNK
    asked, os_read = [], os.read

    def counting_read(fd, n):
        asked.append(n)
        return os_read(fd, n)

    monkeypatch.setattr(protocol.os, "read", counting_read)
    assert ReplayClient(tmp_path).complete("h", 5) == _LARGE_RESPONSES
    assert asked == [size + 1]


@pytest.mark.parametrize("reported", [lambda size: 0, lambda size: size // 2, lambda size: size - 1,
                                      lambda size: size + 7],
                         ids=["zero", "half", "one-short", "over"])
def test_replay_entry_whose_size_changes_under_the_read_is_read_whole(tmp_path, monkeypatch,
                                                                       reported):
    """``fstat`` reports a size other than what the read finds, as when the
    entry grows or shrinks between the two calls."""
    store_replay_responses(tmp_path, "h", _LARGE_RESPONSES)
    fstat = os.fstat

    def misreporting_fstat(fd):
        info = fstat(fd)
        return os.stat_result((*info[:6], reported(info.st_size), *info[7:]))

    monkeypatch.setattr(protocol.os, "fstat", misreporting_fstat)
    assert ReplayClient(tmp_path).complete("h", 5) == _LARGE_RESPONSES


def test_replay_entry_is_read_on_after_a_short_read(tmp_path, monkeypatch):
    """One read may return fewer bytes than asked for, as Linux does past
    about 2 GiB, though the size did not change."""
    store_replay_responses(tmp_path, "h", _LARGE_RESPONSES)
    os_read = os.read
    monkeypatch.setattr(protocol.os, "read",
                        lambda fd, n: os_read(fd, min(n, protocol._ENTRY_READ_CHUNK)))
    assert ReplayClient(tmp_path).complete("h", 5) == _LARGE_RESPONSES


def test_empty_replay_entry_is_not_json_miss(tmp_path):
    (tmp_path / "h.json").write_bytes(b"")
    with pytest.raises(ReplayMissError, match="h is unusable: not UTF-8 JSON"):
        ReplayClient(tmp_path).complete("h", 1)


def test_canonical_bytes_timestamp_toggle(tmp_path, schema):
    rec = make_record()
    _, prompt_hash = build_prompt([serialize_case(rec, schema)], load_prompt_template())
    store_replay_responses(tmp_path, prompt_hash, ["PREDICTION: 0\nCONFIDENCE: neutral"])
    client = ReplayClient(tmp_path)
    a = _trial(client, rec, schema, IDENTITY, DECODING, k=1, clock=lambda: 1.0)
    b = _trial(client, rec, schema, IDENTITY, DECODING, k=1, clock=lambda: 2.0)
    assert transcript_bytes(a) != transcript_bytes(b)
    assert transcript_bytes(a, include_timestamp=False) == transcript_bytes(b, include_timestamp=False)


_PARSED_OUTPUTS = st.builds(
    ParsedOutput, st.sampled_from([None, 0, 1]), st.sampled_from([None, *Confidence]),
    st.sampled_from(ParserStatus),
)
_AGGREGATES = st.builds(
    Aggregate, st.integers(0, 1), st.none() | EDGE_FLOATS,
    st.tuples(st.integers(0, 9), st.integers(0, 9)), st.integers(0, 9),
    st.sampled_from([None, "unparseable", "tie_broken_by_proxy", "residual_tie"]),
)
_MODELS = st.builds(ModelIdentity, *[ANY_TEXT.filter(bool)] * 3)
_DECODINGS = st.builds(
    DecodingParams, EDGE_FLOATS | st.integers(0, 2), EDGE_FLOATS | st.integers(0, 1),
    st.integers(1, 4096), st.none() | st.integers(0, 2**63),
)


@st.composite
def _trial_runs(draw):
    """Transcripts of one log, sharing or changing their model and decoding objects."""
    models = draw(st.lists(_MODELS, min_size=1, max_size=2))
    decodings = draw(st.lists(_DECODINGS, min_size=1, max_size=2))
    return [
        TrialTranscript(
            draw(ANY_TEXT), draw(st.sampled_from(models)), draw(ANY_TEXT),
            draw(st.sampled_from(decodings)),
            tuple(draw(st.lists(st.tuples(ANY_TEXT, _PARSED_OUTPUTS), max_size=5))),
            draw(_AGGREGATES), draw(EDGE_FLOATS | st.integers()),
        )
        for _ in range(draw(st.integers(1, 4)))
    ]


def _audit_bytes(transcripts) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        log = AuditLog(Path(tmp) / "audit.jsonl")
        for t in transcripts:
            log.append(t)
        log.close()
        return log.path.read_bytes()


@settings(max_examples=300, deadline=None)
@given(_trial_runs())
def test_audit_lines_have_the_bytes_of_the_sorted_key_encoding(transcripts):
    header = b'{"audit_schema_version": 1}\n'
    assert _audit_bytes(transcripts) == header + b"".join(
        transcript_bytes(t) + b"\n" for t in transcripts)


def test_audit_line_writes_non_finite_floats_as_json_does():
    transcripts = [
        TrialTranscript("c", IDENTITY, "h", DECODING, (("x", _ok(1)),),
                        Aggregate(1, mean_proxy, (0, 1), 1), timestamp)
        for mean_proxy, timestamp in ((math.nan, math.inf), (-math.inf, 1.5))
    ]
    lines = _audit_bytes(transcripts).splitlines()[1:]
    assert lines == [transcript_bytes(t) for t in transcripts]
    assert b'"mean_proxy": NaN' in lines[0] and b'"timestamp": Infinity' in lines[0]
    assert b'"mean_proxy": -Infinity' in lines[1]


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

"""Tabular-to-LLM trial protocol.

Serializes a case into the canonical prompt, runs k replicates against a
model client (live or replay, behind one interface), parses the constrained
outputs, aggregates by majority vote with a proxy-score tie-break, and leaves
an auditable transcript for every trial.
"""

from __future__ import annotations

import functools
import hashlib
import json
import logging
import operator
import os
import re
import time
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from .cohort import COLUMN_TO_FIELD, PatientRecord
from .jsondoc import load_json
from .schema import Schema
from .vocab import CONFIDENCE_VALUE, Confidence, parse_confidence

logger = logging.getLogger(__name__)

AUDIT_SCHEMA_VERSION = 1
DEFAULT_K = 5

# json.dumps(..., sort_keys=True) without building an encoder per call
_SORTED_JSON = json.JSONEncoder(sort_keys=True)

TEMPERATURE_RANGE = (0.1, 0.5)
TOP_P_RANGE = (0.7, 0.95)


class TransportError(RuntimeError):
    """A live client failed to produce a response (network, quota, etc.)."""


class ReplayMissError(Exception):
    """The replay store cannot serve the requested prompt hash: the entry is
    missing, or ``defect`` names what is wrong with it."""

    def __init__(self, prompt_hash: str, defect: str | None = None):
        self.prompt_hash = prompt_hash
        if defect is None:
            super().__init__(f"replay store has no entry for prompt hash {prompt_hash}")
        else:
            super().__init__(f"replay entry for prompt hash {prompt_hash} is unusable: {defect}")


class ProtocolError(ValueError):
    """Hard protocol misuse (empty case list, bad k, ...)."""


@dataclass(frozen=True)
class ModelIdentity:
    vendor: str
    model_id: str
    access_date: str

    def __post_init__(self):
        if not (self.vendor and self.model_id and self.access_date):
            raise ProtocolError("vendor, model_id, and access_date must be nonempty")

    @property
    def identity(self) -> str:
        return f"{self.vendor}/{self.model_id} ({self.access_date})"


@dataclass(frozen=True)
class DecodingParams:
    temperature: float = 0.2
    top_p: float = 0.9
    max_tokens: int = 512
    seed: int | None = None

    def __post_init__(self):
        lo, hi = TEMPERATURE_RANGE
        if not (lo <= self.temperature <= hi):
            logger.warning("temperature %.3f outside default range [%.1f, %.1f]",
                           self.temperature, lo, hi)
        lo, hi = TOP_P_RANGE
        if not (lo <= self.top_p <= hi):
            logger.warning("top_p %.3f outside default range [%.2f, %.2f]",
                           self.top_p, lo, hi)

    def to_dict(self) -> dict:
        return {
            "temperature": self.temperature,
            "top_p": self.top_p,
            "max_tokens": self.max_tokens,
            "seed": self.seed,
        }


class ParserStatus(Enum):
    OK = "ok"
    MISSING_PREDICTION = "missing_prediction"
    MISSING_CONFIDENCE = "missing_confidence"
    MALFORMED = "malformed"


@dataclass(frozen=True)
class ParsedOutput:
    prediction: int | None
    confidence: Confidence | None
    parser_status: ParserStatus

    @property
    def ok(self) -> bool:
        return self.parser_status is ParserStatus.OK

    def to_dict(self) -> dict:
        return {
            "prediction": self.prediction,
            # ``_value_`` reads the member's value without the ``Enum.value`` descriptor
            "confidence": self.confidence._value_ if self.confidence else None,
            "parser_status": self.parser_status._value_,
        }


# Parser outcomes are few and immutable, so each is built once and shared.
_MISSING_PREDICTION = ParsedOutput(None, None, ParserStatus.MISSING_PREDICTION)
_MALFORMED = ParsedOutput(None, None, ParserStatus.MALFORMED)
_PARSED = {  # (prediction token, confidence or None) -> outcome
    (token, level): ParsedOutput(
        int(token), level, ParserStatus.OK if level else ParserStatus.MISSING_CONFIDENCE
    )
    for token in ("0", "1") for level in (None, *Confidence)
}

_PREDICTION_RE = re.compile(r"PREDICTION\s*:\s*(\S+)", re.IGNORECASE)
_CONFIDENCE_RE = re.compile(r"CONFIDENCE\s*:\s*([^\n\r]+)", re.IGNORECASE)


def parse_response(raw: str) -> ParsedOutput:
    """Total parser for constrained model outputs; failures are statuses.

    Takes the first PREDICTION field matching 0|1 and the first CONFIDENCE
    field inside the closed five-level vocabulary. Never raises.
    """
    pred_match = _PREDICTION_RE.search(raw)
    if pred_match is None:
        return _MISSING_PREDICTION
    token = pred_match.group(1).rstrip(".,;")
    if token not in ("0", "1"):
        return _MALFORMED
    conf_match = _CONFIDENCE_RE.search(raw)
    return _PARSED[token, parse_confidence(conf_match.group(1)) if conf_match else None]


def proxy_score(prediction: int, confidence: Confidence) -> float:
    """Signed surrogate score in [-1, 1]: confidence value, sign from label."""
    v = CONFIDENCE_VALUE[confidence]
    return v if prediction == 1 else -v


@dataclass(frozen=True)
class Aggregate:
    final_label: int
    mean_proxy: float | None
    vote_counts: tuple[int, int]  # (votes for 0, votes for 1)
    n_valid: int
    flag: str | None = None

    def to_dict(self) -> dict:
        return {
            "final_label": self.final_label,
            "mean_proxy": self.mean_proxy,
            "vote_counts": {"0": self.vote_counts[0], "1": self.vote_counts[1]},
            "n_valid": self.n_valid,
            "flag": self.flag,
        }


def aggregate_replicates(outputs: list[ParsedOutput], k: int) -> Aggregate:
    """Majority vote over valid replicates; ties break on mean proxy score.

    Zero valid replicates or a residual proxy tie default to 0 (do not
    recommend surgery) with a flag.
    """
    if len(outputs) != k:
        raise ProtocolError(f"expected {k} replicates, got {len(outputs)}")
    valid = [o for o in outputs if o.ok]
    if not valid:
        return Aggregate(0, None, (0, 0), 0, flag="unparseable")
    votes1 = sum(o.prediction for o in valid)
    votes0 = len(valid) - votes1
    mean_proxy = sum(proxy_score(o.prediction, o.confidence) for o in valid) / len(valid)
    if votes1 > votes0:
        label, flag = 1, None
    elif votes0 > votes1:
        label, flag = 0, None
    elif mean_proxy > 0:
        label, flag = 1, "tie_broken_by_proxy"
    elif mean_proxy < 0:
        label, flag = 0, "tie_broken_by_proxy"
    else:
        label, flag = 0, "residual_tie"
    return Aggregate(label, mean_proxy, (votes0, votes1), len(valid), flag=flag)


@functools.cache
def _case_columns(column_names: tuple[str, ...]) -> tuple:
    """(column name, attrgetter) for each serialized column of a schema."""
    return tuple(
        (name, operator.attrgetter(COLUMN_TO_FIELD[name]))
        for name in column_names if name not in ("PATIENT_ID", "SNOT22_6MO_TOTAL")
    )


def serialize_case(record: PatientRecord, schema: Schema) -> str:
    """Render one case as deterministic NAME: value lines in schema order.

    The 6-month outcome column is excluded unconditionally.
    """
    lines = [f"PATIENT_ID: {record.patient_id}"]
    for name, get in _case_columns(tuple(schema.column_names)):
        value = get(record)
        lines.append(f"{name}: {int(value) if isinstance(value, bool) else value}")
    return "\n".join(lines)


def load_prompt_template(path: str | Path | None = None) -> str:
    """Canonical prompt text; packaged default unless a path is given."""
    if path is None:
        from importlib import resources

        return resources.files("crsbench.data").joinpath("prompt_template.txt").read_text(
            encoding="utf-8"
        ).strip()
    return Path(path).read_text(encoding="utf-8").strip()


def build_prompt(
    case_blocks: list[str],
    template: str,
    rag_passages: list | None = None,
) -> tuple[str, str]:
    """Assemble the final prompt and its cryptographic hash.

    Retrieved passages, when present, are prepended (with source tags) before
    the canonical prompt body; case blocks follow the template.
    """
    if not case_blocks:
        raise ProtocolError("build_prompt requires at least one case block")
    parts = []
    if rag_passages:
        from .rag import render_passage

        parts.extend(render_passage(p) for p in rag_passages)
    parts.append(template)
    parts.extend(case_blocks)
    prompt = "\n\n".join(parts)
    prompt_hash = hashlib.sha256(prompt.encode("utf-8")).hexdigest()
    return prompt, prompt_hash


@dataclass(frozen=True)
class TrialTranscript:
    case_id: str
    model: ModelIdentity
    prompt_hash: str
    decoding: DecodingParams
    replicates: tuple[tuple[str, ParsedOutput], ...]
    aggregate: Aggregate
    timestamp: float

    def to_dict(self) -> dict:
        return {
            "case_id": self.case_id,
            "model": {
                "vendor": self.model.vendor,
                "model_id": self.model.model_id,
                "access_date": self.model.access_date,
                "identity": self.model.identity,
            },
            "prompt_hash": self.prompt_hash,
            "decoding": self.decoding.to_dict(),
            "replicates": [
                {"raw_text": raw, **parsed.to_dict()} for raw, parsed in self.replicates
            ],
            "aggregate": self.aggregate.to_dict(),
            "timestamp": self.timestamp,
        }

    def canonical_bytes(self, include_timestamp: bool = True) -> bytes:
        doc = self.to_dict()
        if not include_timestamp:
            doc.pop("timestamp")
        return _SORTED_JSON.encode(doc).encode("utf-8")


class ModelClient:
    """Request/response contract all model adapters implement."""

    def complete(self, prompt: str, decoding: DecodingParams, replicate_index: int) -> str:
        raise NotImplementedError


class ReplayClient(ModelClient):
    """Serves stored responses keyed by prompt hash; fully deterministic.

    The entry is read and validated once per trial: replicate 0, or a prompt
    other than the last one, reads the store; later replicates of the same
    prompt reuse that read. Only the last entry is held in memory.
    """

    def __init__(self, store_dir: str | Path):
        if not os.fspath(store_dir):  # "" would read entries from the working directory
            raise ProtocolError("the replay store path is empty")
        self.store_dir = Path(store_dir)
        self._prefix = os.path.join(store_dir, "")  # entry paths are joined as strings
        self._last: tuple[str, str, list[str]] | None = None  # prompt, hash, responses

    def _read(self, prompt_hash: str) -> list[str]:
        try:
            with open(f"{self._prefix}{prompt_hash}.json", "rb", buffering=0) as fh:
                raw = fh.read()
        except FileNotFoundError:
            raise ReplayMissError(prompt_hash) from None
        except OSError as exc:
            raise ReplayMissError(prompt_hash, f"unreadable ({exc.strerror})") from None
        doc = load_json(raw, functools.partial(ReplayMissError, prompt_hash))
        responses = doc.get("responses") if isinstance(doc, dict) else None
        if not isinstance(responses, list) or not all(isinstance(r, str) for r in responses):
            raise ReplayMissError(prompt_hash, "'responses' must be a list of strings")
        return responses

    def complete(self, prompt: str, decoding: DecodingParams, replicate_index: int) -> str:
        last = self._last
        if replicate_index == 0 or last is None or last[0] != prompt:
            prompt_hash = hashlib.sha256(prompt.encode("utf-8")).hexdigest()
            last = self._last = (prompt, prompt_hash, self._read(prompt_hash))
        _, prompt_hash, responses = last
        if replicate_index >= len(responses):
            raise ReplayMissError(
                prompt_hash, f"{len(responses)} responses, replicate {replicate_index} asked for"
            )
        return responses[replicate_index]


def store_replay_responses(store_dir: str | Path, prompt_hash: str, responses: list[str]) -> Path:
    """Write (or overwrite) the replay entry for one prompt hash."""
    store = Path(store_dir)
    store.mkdir(parents=True, exist_ok=True)
    path = store / f"{prompt_hash}.json"
    path.write_text(json.dumps({"responses": responses}, indent=1), encoding="utf-8")
    return path


class AuditLog:
    """Append-only JSON Lines log with a schema version header line.

    The first ``append`` opens one line-buffered handle that later appends
    reuse: every line reaches the file whole as it is written, so a killed
    process leaves only complete lines. ``close`` releases the handle; a later
    ``append`` reopens it.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._fh = None
        if not self.path.exists():
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self.path.write_text(
                json.dumps({"audit_schema_version": AUDIT_SCHEMA_VERSION}) + "\n",
                encoding="utf-8",
            )

    def append(self, transcript: TrialTranscript) -> None:
        if self._fh is None:
            self._fh = open(self.path, "a", encoding="utf-8", buffering=1)
        self._fh.write(_SORTED_JSON.encode(transcript.to_dict()) + "\n")

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def read_transcripts(self) -> list[dict]:
        lines = self.path.read_text(encoding="utf-8").splitlines()
        return [json.loads(line) for line in lines[1:]]


def run_trial(
    client: ModelClient,
    record: PatientRecord,
    schema: Schema,
    model: ModelIdentity,
    decoding: DecodingParams,
    k: int = DEFAULT_K,
    template: str | None = None,
    rag_passages: list | None = None,
    audit_log: AuditLog | None = None,
    retries: int = 3,
    backoff_base: float = 0.1,
    sleep=time.sleep,
    clock=time.time,
) -> TrialTranscript:
    """Run k replicates for one case, parse, aggregate, and audit.

    Live transport failures are retried with exponential backoff; a replicate
    that still fails is recorded as Malformed with the error text (failures
    are data). A replay miss is a hard error.
    """
    if k < 1:
        raise ProtocolError(f"k must be >= 1, got {k}")
    if template is None:
        template = load_prompt_template()
    prompt, prompt_hash = build_prompt([serialize_case(record, schema)], template, rag_passages)

    replicates: list[tuple[str, ParsedOutput]] = []
    for i in range(k):
        raw: str | None = None
        last_error: TransportError | None = None
        for attempt in range(retries):
            try:
                raw = client.complete(prompt, decoding, i)
                break
            except TransportError as exc:
                last_error = exc
                if attempt < retries - 1:
                    sleep(backoff_base * 2**attempt)
        if raw is None:
            text = f"<transport failure after {retries} attempts: {last_error}>"
            replicates.append((text, _MALFORMED))
        else:
            replicates.append((raw, parse_response(raw)))

    aggregate = aggregate_replicates([p for _, p in replicates], k)
    transcript = TrialTranscript(
        case_id=record.patient_id,
        model=model,
        prompt_hash=prompt_hash,
        decoding=decoding,
        replicates=tuple(replicates),
        aggregate=aggregate,
        timestamp=clock(),
    )
    if audit_log is not None:
        audit_log.append(transcript)
    return transcript

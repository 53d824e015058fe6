"""Tabular-to-LLM trial protocol.

Renders a table's cases as prompt blocks (``case_blocks``, column by
column; ``serialize_case`` is its one-row call), assembles the canonical
prompt, takes its k replicate responses from the replay store in one read,
parses the constrained outputs (each distinct text once, through a bounded
memo), aggregates by majority vote with a proxy-score tie-break, and leaves
an auditable transcript for every trial.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import logging
import os
import re
import stat
import time
from enum import Enum
from pathlib import Path
from typing import NamedTuple

from .cohort import COLUMN_TO_FIELD, ID_AND_OUTCOME_COLUMNS, CohortTable, PatientRecord, cell_texts
from .jsondoc import json_number, json_string, list_of, load_json, obj, string, write_json
from .records import record_type
from .schema import Schema
from .vocab import CONFIDENCE_VALUE, Confidence, confidence_text

logger = logging.getLogger(__name__)

AUDIT_SCHEMA_VERSION = 1
DEFAULT_K = 5

TEMPERATURE_RANGE = (0.1, 0.5)
TOP_P_RANGE = (0.7, 0.95)


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


@record_type
class ModelIdentity(NamedTuple):
    vendor: str
    model_id: str
    access_date: str

    def _checked(self):
        if not (self.vendor and self.model_id and self.access_date):
            raise ProtocolError("vendor, model_id, and access_date must be nonempty")
        return self

    @property
    def identity(self) -> str:
        return f"{self.vendor}/{self.model_id} ({self.access_date})"


@record_type
class DecodingParams(NamedTuple):
    temperature: float = 0.2
    top_p: float = 0.9
    max_tokens: int = 512
    seed: int | None = None

    def _checked(self):
        lo, hi = TEMPERATURE_RANGE
        if not (lo <= self.temperature <= hi):
            logger.warning("temperature %.3f outside default range [%.1f, %.1f]",
                           self.temperature, lo, hi)
        lo, hi = TOP_P_RANGE
        if not (lo <= self.top_p <= hi):
            logger.warning("top_p %.3f outside default range [%.2f, %.2f]",
                           self.top_p, lo, hi)
        return self

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


class _ParsedFields(NamedTuple):
    prediction: int | None
    confidence: Confidence | None
    parser_status: ParserStatus


class ParsedOutput(_ParsedFields):
    """One replicate's parser outcome. ``vote`` and ``audit_head`` are
    computed on first use and kept, so the parser's shared outcomes compute
    each once per process: the class has no ``__slots__``, so each outcome
    has a ``__dict__`` for ``cached_property`` to keep them in."""

    @property
    def ok(self) -> bool:
        return self.parser_status is ParserStatus.OK

    @functools.cached_property
    def vote(self) -> tuple[int, float] | None:
        """``(prediction, proxy score)`` of a valid replicate; None otherwise."""
        return (self.prediction, proxy_score(self.prediction, self.confidence)) if self.ok else None

    @functools.cached_property
    def audit_head(self) -> str:
        """This replicate's object in an audit line, up to the value of ``raw_text``."""
        c, p = self.confidence, self.prediction
        return (f'{{"confidence": {"null" if c is None else json_string(c._value_)}, '
                f'"parser_status": {json_string(self.parser_status._value_)}, '
                f'"prediction": {"null" if p is None else repr(p)}, "raw_text": ')

    def to_dict(self) -> dict:
        return {
            "prediction": self.prediction,
            # ``_value_`` reads the member's value without the ``Enum.value`` descriptor
            "confidence": self.confidence._value_ if self.confidence else None,
            "parser_status": self.parser_status._value_,
        }


# The parser has 14 outcomes, each built once and shared.
_MISSING_PREDICTION = ParsedOutput(None, None, ParserStatus.MISSING_PREDICTION)
_MALFORMED = ParsedOutput(None, None, ParserStatus.MALFORMED)
_OUTCOMES = {  # prediction token -> confidence level's text, or None -> outcome
    token: {
        None: ParsedOutput(int(token), None, ParserStatus.MISSING_CONFIDENCE),
        **{level._value_: ParsedOutput(int(token), level, ParserStatus.OK) for level in Confidence},
    }
    for token in ("0", "1")
}

_PREDICTION_RE = re.compile(r"PREDICTION\s*:\s*(\S+)", re.IGNORECASE)
_CONFIDENCE_RE = re.compile(r"CONFIDENCE\s*:\s*([^\n\r]+)", re.IGNORECASE)
_MEMO_ENTRIES = 4096  # the most texts the parser's memo holds
_MEMO_TEXT_CHARS = 512  # the longest text it holds
_PARSED: dict[str, ParsedOutput] = {}  # text -> its shared outcome


def parse_response(raw: str) -> ParsedOutput:
    """Total parser for constrained model outputs; failures are statuses.

    Takes the first PREDICTION field matching 0|1 and the first CONFIDENCE
    field inside the closed five-level vocabulary. Never raises. A text seen
    before is answered from a memo, which holds at most 4,096 texts of at most
    512 characters: about 2.3 MB of ASCII text, 8.7 MB at four bytes a character.
    """
    if (parsed := _PARSED.get(raw)) is None:
        parsed = _parse(raw)
        if len(raw) <= _MEMO_TEXT_CHARS and len(_PARSED) < _MEMO_ENTRIES:
            _PARSED[raw] = parsed
    return parsed


def _parse(raw: str) -> ParsedOutput:
    pred_match = _PREDICTION_RE.search(raw)
    if pred_match is None:
        return _MISSING_PREDICTION
    outcomes = _OUTCOMES.get(pred_match.group(1).rstrip(".,;"))
    if outcomes is None:
        return _MALFORMED
    conf_match = _CONFIDENCE_RE.search(raw)
    if conf_match is None:
        return outcomes[None]
    return outcomes.get(confidence_text(conf_match.group(1)), outcomes[None])


def proxy_score(prediction: int, confidence: Confidence) -> float:
    """Signed surrogate score in [-1, 1]: confidence value, sign from label."""
    v = CONFIDENCE_VALUE[confidence]
    return v if prediction == 1 else -v


class Aggregate(NamedTuple):
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
    votes = [vote for o in outputs if (vote := o.vote) is not None]
    if not votes:
        return Aggregate(0, None, (0, 0), 0, flag="unparseable")
    labels, proxies = zip(*votes)
    votes1 = sum(labels)
    votes0 = len(votes) - votes1
    mean_proxy = sum(proxies) / len(votes)
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
    return Aggregate(label, mean_proxy, (votes0, votes1), len(votes), flag=flag)


def case_blocks(table: CohortTable, schema: Schema) -> list[str]:
    """Render each row of ``table`` as deterministic NAME: value lines: the
    id first, then the schema's columns in order, each value as its CSV cell
    (a boolean as 0 or 1).

    The 6-month outcome column is excluded unconditionally.
    """
    names = [name for name in schema.column_names if name not in ID_AND_OUTCOME_COLUMNS]
    # every name is a COLUMN_TO_FIELD key, so none holds a brace
    layout = "\n".join(f"{name}: {{}}" for name in ("PATIENT_ID", *names))
    texts = [cell_texts(table, COLUMN_TO_FIELD[name]) for name in names]
    return list(itertools.starmap(layout.format, zip(table.ids.tolist(), *texts)))


def serialize_case(record: PatientRecord, schema: Schema) -> str:
    """Render one case as ``case_blocks`` renders a row."""
    return case_blocks(CohortTable.from_records([record]), schema)[0]


def load_prompt_template(path: str | Path | None = None) -> str:
    """Canonical prompt text; packaged default unless a path is given."""
    if path is None:
        from importlib import resources

        return resources.files("crsbench.data").joinpath("prompt_template.txt").read_text(
            encoding="utf-8"
        ).strip()
    return Path(path).read_text(encoding="utf-8").strip()


def _leading_parts(template: str, rag_passages: list | None) -> tuple[str, ...]:
    """The prompt's parts before its case blocks: each retrieved passage
    (with its source tag), then the template."""
    if not rag_passages:
        return (template,)
    from .rag import render_passage

    return (*map(render_passage, rag_passages), template)


@functools.lru_cache(maxsize=64)
def _leading_sha256(leading: tuple[str, ...]):
    """SHA-256 state after the text that precedes the case blocks: each part
    of ``leading`` and its separator. Callers hash on a copy."""
    return hashlib.sha256("".join(f"{part}\n\n" for part in leading).encode("utf-8"))


def _prompt_hash(leading: tuple[str, ...], body: str) -> str:
    """SHA-256 of the prompt ``leading`` parts and then ``body`` make; the
    leading text is hashed once per distinct ``leading``."""
    state = _leading_sha256(leading).copy()
    state.update(body.encode("utf-8"))
    return state.hexdigest()


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
    leading = _leading_parts(template, rag_passages)
    body = "\n\n".join(case_blocks)
    return "\n\n".join((*leading, body)), _prompt_hash(leading, body)


class TrialTranscript(NamedTuple):
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


_ENTRY_READ_CHUNK = 1 << 16
_ENTRY = obj({"responses": list_of(string())})


class ReplayClient:
    """Serves stored responses keyed by prompt hash; fully deterministic.

    Each ``complete`` call reads and validates the store entry once and keeps
    nothing between calls, so a rewritten entry is seen by the next trial.
    """

    def __init__(self, store_dir: str | Path):
        if not os.fspath(store_dir):  # "" would read entries from the working directory
            raise ProtocolError("the replay store path is empty")
        self._prefix = os.path.join(store_dir, "")  # entry paths are joined as strings

    def complete(self, prompt_hash: str, k: int) -> list[str]:
        """The first k stored responses of the prompt with this hash.

        The entry is read in one ``os.read`` of its ``fstat`` size plus one
        byte, and on in chunks only when that read returns another size. An
        entry that is not a regular file (a FIFO, a directory, a device) is a
        miss, and so is one that cannot be read.
        """
        fd = None
        try:
            # a FIFO opened without O_NONBLOCK waits for a writer; with it,
            # the open returns at once and the entry is refused below
            fd = os.open(f"{self._prefix}{prompt_hash}.json", os.O_RDONLY | os.O_NONBLOCK)
            info = os.fstat(fd)
            if not stat.S_ISREG(info.st_mode):
                raise ReplayMissError(prompt_hash, "not a regular file")
            data = os.read(fd, info.st_size + 1)
            if len(data) != info.st_size:  # the entry changed size, or the read came up short
                data += b"".join(iter(functools.partial(os.read, fd, _ENTRY_READ_CHUNK), b""))
        except FileNotFoundError:
            raise ReplayMissError(prompt_hash) from None
        except OSError as exc:
            raise ReplayMissError(prompt_hash, f"unreadable ({exc.strerror})") from None
        finally:
            if fd is not None:
                os.close(fd)
        responses = load_json(data, _ENTRY,
                              functools.partial(ReplayMissError, prompt_hash))["responses"]
        if k > len(responses):  # name the first replicate the entry lacks
            raise ReplayMissError(
                prompt_hash, f"{len(responses)} responses, replicate {len(responses)} asked for"
            )
        return responses[:k]


def store_replay_responses(store_dir: str | Path, prompt_hash: str, responses: list[str]) -> None:
    """Write (or overwrite) the replay entry for one prompt hash."""
    write_json(Path(store_dir) / f"{prompt_hash}.json", {"responses": responses})


class AuditLog:
    """Append-only JSON Lines log with a schema version header line.

    Creating the log opens one line-buffered handle, and writes the header
    when the file is empty. Every line reaches the file whole as it is
    written, so a killed process leaves only complete lines. ``close``
    releases the handle.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "a", encoding="utf-8", buffering=1)
        self._model = self._decoding = None  # the objects ``self._fixed`` encodes
        self._fixed = ""
        if self._fh.tell() == 0:
            self._fh.write(json.dumps({"audit_schema_version": AUDIT_SCHEMA_VERSION}) + "\n")

    def append(self, transcript: TrialTranscript) -> None:
        """Write ``transcript`` as one line, the bytes of
        ``json.dumps(transcript.to_dict(), sort_keys=True)``, laid out member
        by member. The ``decoding`` and ``model`` members are encoded again
        only when the transcript holds other objects for them, and each
        replicate is its outcome's ``audit_head`` and its encoded raw text."""
        t = transcript
        if t.model is not self._model or t.decoding is not self._decoding:
            doc = t.to_dict()
            self._model, self._decoding = t.model, t.decoding
            self._fixed = (f'"decoding": {json.dumps(doc["decoding"], sort_keys=True)}, '
                           f'"model": {json.dumps(doc["model"], sort_keys=True)}')
        a = t.aggregate
        replicates = ", ".join([f"{p.audit_head}{json_string(raw)}}}" for raw, p in t.replicates])
        self._fh.write(
            f'{{"aggregate": {{"final_label": {a.final_label!r}, '
            f'"flag": {"null" if a.flag is None else json_string(a.flag)}, '
            f'"mean_proxy": {json_number(a.mean_proxy)}, "n_valid": {a.n_valid!r}, '
            f'"vote_counts": {{"0": {a.vote_counts[0]!r}, "1": {a.vote_counts[1]!r}}}}}, '
            f'"case_id": {json_string(t.case_id)}, {self._fixed}, '
            f'"prompt_hash": {json_string(t.prompt_hash)}, "replicates": [{replicates}], '
            f'"timestamp": {json_number(t.timestamp)}}}\n'
        )

    def close(self) -> None:
        self._fh.close()

    def read_transcripts(self) -> list[dict]:
        lines = self.path.read_text(encoding="utf-8").splitlines()
        return [json.loads(line) for line in lines[1:]]


def run_trial(
    client: ReplayClient,
    case_id: str,
    case_block: str,
    model: ModelIdentity,
    decoding: DecodingParams,
    template: str,
    k: int = DEFAULT_K,
    rag_passages: list | None = None,
    audit_log: AuditLog | None = None,
    clock=time.time,
) -> TrialTranscript:
    """Take k replicates for one rendered case in one ``complete`` call,
    parse, aggregate, and audit.

    ``template`` is the prompt template text, as ``load_prompt_template``
    returns it; the caller reads it once for all its trials. A replay miss
    is a hard error.
    """
    if k < 1:
        raise ProtocolError(f"k must be >= 1, got {k}")
    prompt_hash = _prompt_hash(_leading_parts(template, rag_passages), case_block)

    replicates = [(raw, parse_response(raw)) for raw in client.complete(prompt_hash, k)]
    aggregate = aggregate_replicates([p for _, p in replicates], k)
    transcript = TrialTranscript(
        case_id=case_id,
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

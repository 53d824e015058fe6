"""Cohort ingestion: parsing, validation, labeling, encoding, and splitting.

Everything here is value-oriented: records, splits, and scalers are immutable
once built, and every entry point that produces model-ready features runs the
post-operative leakage guard, once per encode call rather than per row.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import itertools
import json
import math
import operator
from dataclasses import dataclass

import numpy as np

from .schema import PLACEHOLDERS, Schema, SchemaError

# MCID: minimal clinically important difference on the SNOT-22 total.
# On integer SNOT-22 data a reduction >= 8.9 is exactly a reduction >= 9.
MCID_REDUCTION = 8.9


class CohortError(ValueError):
    """Hard errors in cohort construction (bad schema usage, bad splits)."""


class LeakageError(CohortError):
    """A post-operative field reached the feature path. Never advisory."""

    def __init__(self, violations: list[tuple[str, str]]):
        self.violations = violations
        names = ", ".join(name for name, _ in violations)
        super().__init__(f"post-operative leakage in feature names: {names}")


@dataclass(frozen=True)
class PatientRecord:
    """One pre-operative surgical case.

    ``snot22_6mo`` exists only so the supervision label can be derived; it is
    excluded from every feature path and every serialized prompt.
    """

    patient_id: str
    snot22_baseline: int
    age: int
    sex: str
    ct_total: int
    endoscopy_total: int
    crs_polyps: bool
    previous_surgery: bool
    allergy_testing: bool
    septal_deviation: bool
    depression: bool
    fibromyalgia: bool
    smoker: bool
    copd: bool
    asthma: bool
    osa: bool
    diabetes: bool
    gerd: bool
    asa_intolerance: bool
    insurance: str
    income_bracket: str
    race: str
    snot22_6mo: int | None = None

    def __post_init__(self):
        if not (0 <= self.snot22_baseline <= 110):
            raise CohortError(f"snot22_baseline out of [0,110]: {self.snot22_baseline}")
        if self.snot22_6mo is not None and not (0 <= self.snot22_6mo <= 110):
            raise CohortError(f"snot22_6mo out of [0,110]: {self.snot22_6mo}")
        if self.age < 18:
            raise CohortError(f"age below 18: {self.age}")
        if not (0 <= self.ct_total <= 24):
            raise CohortError(f"ct_total out of [0,24]: {self.ct_total}")
        if not (0 <= self.endoscopy_total <= 20):
            raise CohortError(f"endoscopy_total out of [0,20]: {self.endoscopy_total}")


# Canonical CSV column -> dataclass field.
COLUMN_TO_FIELD = {
    "PATIENT_ID": "patient_id",
    "SNOT22_BLN_TOTAL": "snot22_baseline",
    "SNOT22_6MO_TOTAL": "snot22_6mo",
    "Age": "age",
    "SEX": "sex",
    "BLN_CT_TOTAL": "ct_total",
    "BLN_ENDO_TOTAL": "endoscopy_total",
    "CRS_POLYPS": "crs_polyps",
    "PREVIOUS_SURGERY": "previous_surgery",
    "ALLERGY_TESTING": "allergy_testing",
    "SEPTAL_DEVIATION": "septal_deviation",
    "DEPRESSION": "depression",
    "FIBROMYALGIA": "fibromyalgia",
    "SMOKER": "smoker",
    "COPD": "copd",
    "ASTHMA": "asthma",
    "OSA": "osa",
    "DIABETES": "diabetes",
    "GERD": "gerd",
    "ASA_INTOLERANCE": "asa_intolerance",
    "INSURANCE": "insurance",
    "INCOME": "income_bracket",
    "RACE": "race",
}
FIELD_TO_COLUMN = {v: k for k, v in COLUMN_TO_FIELD.items()}


@dataclass(frozen=True)
class RejectionReport:
    rows_total: int
    accepted: int
    rejections: tuple[tuple[int, str], ...]  # (data-row index, reason)

    @property
    def rejected(self) -> int:
        return len(self.rejections)


def _is_placeholder(value: str) -> bool:
    return value.strip().lower() in PLACEHOLDERS


def _parse_cell(raw: str, spec, schema: Schema):
    """Parse one non-placeholder cell per its column spec. Raises ValueError."""
    value = raw.strip()
    if spec.kind == "int":
        parsed = int(value)
        if spec.min is not None and parsed < spec.min:
            raise ValueError(f"{spec.name}={parsed} below {spec.min}")
        if spec.max is not None and parsed > spec.max:
            raise ValueError(f"{spec.name}={parsed} above {spec.max}")
        return parsed
    if spec.kind == "bool":
        if value == "0":
            return False
        if value == "1":
            return True
        raise ValueError(f"{spec.name}: expected 0/1, got {value!r}")
    if spec.kind == "enum":
        if value not in schema.encodings[spec.name]:
            raise ValueError(f"{spec.name}: unknown category {value!r}")
        return value
    return value  # id


class _Rejected(str):
    """The reason a cell rejects its row, told apart from a parsed value."""


def _cell_value(raw: str | None, spec, schema: Schema):
    """One cell's value: parsed, None for a missing optional cell, or ``_Rejected``.

    ``raw`` is None when the row has no cell in this column.
    """
    # a literal enum category ("None" insurance) beats the placeholder rule
    is_category = (
        raw is not None and spec.kind == "enum" and raw.strip() in schema.encodings[spec.name]
    )
    if not is_category and (raw is None or _is_placeholder(raw)):
        return _Rejected(f"missing required field {spec.name}") if spec.required else None
    try:
        return _parse_cell(raw, spec, schema)
    except ValueError as exc:
        return _Rejected(exc)


class _ColumnCells(dict):
    """Raw cell -> ``_cell_value`` for one column: each distinct cell is parsed once."""

    def __init__(self, spec, schema: Schema):
        super().__init__()
        self.spec, self.schema = spec, schema
        self.rejected: set[str | None] = set()  # the raw cells that map to a _Rejected

    def __missing__(self, raw):
        value = self[raw] = _cell_value(raw, self.spec, self.schema)
        if value.__class__ is _Rejected:
            self.rejected.add(raw)
        return value


def _lines(text: str):
    """The lines of ``text`` as iterating ``io.StringIO(text)`` yields them:
    split only after each "\n", terminators kept, a stray "\r" left inside
    its line. StringIO would hold a second copy of the text at 4 bytes per
    character."""
    start = 0
    while end := text.find("\n", start) + 1:
        yield text[start:end]
        start = end
    if start < len(text):
        yield text[start:]


# Non-empty rows parsed per block. A block is transposed and converted column
# by column; transposing the whole file at once would hold every cell of it
# in memory.
PARSE_BLOCK_ROWS = 256


def parse_cohort(csv_bytes: bytes, schema: Schema) -> tuple[list[PatientRecord], RejectionReport]:
    """Parse a canonical cohort CSV into validated records.

    Rows with placeholders or malformed values in required fields are dropped
    and counted, with the first failing column in schema order as the reason;
    so is a row whose PATIENT_ID, given or generated, repeats an earlier
    accepted row's. A missing required column is a hard error naming the
    column. One leading UTF-8 byte-order mark is ignored. Rows are read as
    ``csv.DictReader`` reads them: empty lines are skipped and not counted, a
    duplicated header name reads its last column, a short row's missing cells
    are missing values and extra cells are ignored.
    """
    reader = csv.reader(_lines(csv_bytes.decode("utf-8").removeprefix("\ufeff")))
    header = next(reader, None)
    if header is None:
        raise SchemaError("csv has no header row")
    for required in schema.required_columns:
        if required not in header:
            raise SchemaError(f"missing required column: {required}")

    position = {name: j for j, name in enumerate(header)}  # the last column of a name
    fields = dataclasses.fields(PatientRecord)
    slot = {f.name: k for k, f in enumerate(fields)}
    named = {COLUMN_TO_FIELD.get(spec.name) for spec in schema.columns}
    for f in fields:
        if f.name not in named and f.default is dataclasses.MISSING:
            raise SchemaError(f"schema has no column for record field {f.name}")
    # a block's values per record field; a field the schema leaves out keeps its default
    defaults = [itertools.repeat(f.default) for f in fields]
    columns = []  # (spec, header position or None, record slot, cell cache or None)
    for spec in schema.columns:
        if spec.name not in COLUMN_TO_FIELD:
            raise SchemaError(f"schema column {spec.name} has no record field")
        # the id column has no cache: ids are distinct, so nothing would be shared
        cells = None if spec.name == "PATIENT_ID" else _ColumnCells(spec, schema)
        columns.append((spec, position.get(spec.name), slot[COLUMN_TO_FIELD[spec.name]], cells))
    width = 1 + max((j for _, j, _, _ in columns if j is not None), default=-1)

    records: list[PatientRecord] = []
    rejections: list[tuple[int, str]] = []
    first_at: dict[str, int] = {}  # accepted patient id -> its row
    rows = filter(None, reader)  # drops empty lines
    base = 0  # data-row index of the block's first row
    while block := list(itertools.islice(rows, PARSE_BLOCK_ROWS)):
        n = len(block)
        if min(map(len, block)) < width:
            block = [row + [None] * (width - len(row)) for row in block]
        by_position = list(zip(*block))
        args = list(defaults)
        reasons: dict[int, str] = {}  # row in block -> first failing column's reason
        for spec, j, k, cells in columns:
            raw = by_position[j] if j is not None else (None,) * n
            if cells is None:
                values = [_cell_value(cell, spec, schema) for cell in raw]
                if None in values:
                    values = [f"case_{base + i:04d}" if v is None else v
                              for i, v in enumerate(values)]
                failing = True
            else:
                values = list(map(cells.__getitem__, raw))
                failing = cells.rejected and not cells.rejected.isdisjoint(raw)
            if failing:
                for i, v in enumerate(values):
                    if v.__class__ is _Rejected:
                        reasons.setdefault(i, str(v))
            args[k] = values
        for i, row in enumerate(zip(*args)):
            idx = base + i
            reason = reasons.get(i)
            if reason is None:
                try:
                    record = PatientRecord(*row)
                except CohortError as exc:
                    reason = str(exc)
                else:
                    first = first_at.setdefault(record.patient_id, idx)
                    if first == idx:
                        records.append(record)
                        continue
                    reason = f"duplicate PATIENT_ID {record.patient_id} (first at row {first})"
            rejections.append((idx, reason))
        base += n
    return records, RejectionReport(base, len(records), tuple(rejections))


def serialize_cohort(records: list[PatientRecord], schema: Schema) -> bytes:
    """Render records as canonical CSV; inverse of parse_cohort on valid data."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(schema.column_names)
    for rec in records:
        row = []
        for name in schema.column_names:
            value = getattr(rec, COLUMN_TO_FIELD[name])
            if value is None:
                row.append("")
            elif isinstance(value, bool):
                row.append("1" if value else "0")
            else:
                row.append(str(value))
        writer.writerow(row)
    return buf.getvalue().encode("utf-8")


def derive_label(snot22_baseline: int, snot22_6mo: int) -> int:
    """1 iff the 6-month reduction reaches the MCID (>= 8.9 points)."""
    if not (0 <= snot22_baseline <= 110 and 0 <= snot22_6mo <= 110):
        raise CohortError("SNOT-22 totals must lie in [0,110]")
    return int((snot22_baseline - snot22_6mo) >= MCID_REDUCTION)


def label_records(records: list[PatientRecord]) -> tuple[list[PatientRecord], dict[str, int], list[str]]:
    """Split a cohort into labeled records (with labels) and unlabeled ids."""
    labeled, labels, unlabeled = [], {}, []
    for rec in records:
        if rec.snot22_6mo is None:
            unlabeled.append(rec.patient_id)
        else:
            labeled.append(rec)
            labels[rec.patient_id] = derive_label(rec.snot22_baseline, rec.snot22_6mo)
    return labeled, labels, unlabeled


def leakage_guard(feature_names: list[str], blocklist: tuple[str, ...]) -> None:
    """Halt if any feature name matches a post-operative blocklist pattern.

    Patterns are case-insensitive substrings. Every violating name is listed
    (once, with the first matching pattern).
    """
    violations: list[tuple[str, str]] = []
    for name in feature_names:
        lowered = name.lower()
        for pattern in blocklist:
            if pattern.lower() in lowered:
                violations.append((name, pattern))
                break
    if violations:
        raise LeakageError(violations)


@dataclass(frozen=True)
class Scaler:
    """Per-feature standardization state, fit on training rows only."""

    columns: tuple[str, ...]
    means: tuple[float, ...]
    sds: tuple[float, ...]

    @property
    def state_id(self) -> str:
        payload = json.dumps(
            {"columns": self.columns, "means": self.means, "sds": self.sds},
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def transform(self, column: str, value: float) -> float:
        i = self.columns.index(column)
        return (value - self.means[i]) / self.sds[i]


def fit_scaler(train_records: list[PatientRecord], schema: Schema) -> Scaler:
    if not train_records:
        raise CohortError("cannot fit scaler on empty training set")
    means, sds = [], []
    for name in schema.continuous:
        values = np.array(
            [getattr(r, COLUMN_TO_FIELD[name]) for r in train_records], dtype=float
        )
        mean = float(values.mean())
        sd = float(values.std())
        means.append(mean)
        sds.append(sd if sd > 0 else 1.0)  # constant column: pass through centered
    return Scaler(tuple(schema.continuous), tuple(means), tuple(sds))


def encode_matrix(records: list[PatientRecord], schema: Schema, scaler: Scaler) -> np.ndarray:
    """Encode a record list into an (n, d) float matrix in schema order.

    Ints and booleans become floats ({0,1} for booleans), enums their fixed
    codes, and continuous fields are standardized by the fitted scaler with
    the same two IEEE operations as ``Scaler.transform``. Unknown enum values
    are hard errors. The leakage guard runs once per call, before any record
    is read.
    """
    order = schema.feature_order
    leakage_guard(list(order), schema.blocklist)
    kinds = [schema.column(name).kind for name in order]
    n = len(records)
    X = np.empty((n, len(order)))
    numeric = [j for j, kind in enumerate(kinds) if kind != "enum"]
    if numeric:
        # Each record's tuple is consumed as it is made: a list of n live
        # tuples costs memory and garbage-collector passes that grow with
        # the heap.
        get = operator.attrgetter(*(COLUMN_TO_FIELD[order[j]] for j in numeric))
        cells = itertools.chain.from_iterable(map(get, records))
        X[:, numeric] = np.fromiter(cells, float, n * len(numeric)).reshape(n, len(numeric))
    for j, name in enumerate(order):
        if kinds[j] == "enum":
            values = map(operator.attrgetter(COLUMN_TO_FIELD[name]), records)
            try:
                X[:, j] = np.fromiter(map(schema.encodings[name].__getitem__, values), float, n)
            except KeyError as exc:
                raise CohortError(
                    f"{name}: value {exc.args[0]!r} not in encoding dictionary"
                ) from None
        elif kinds[j] != "bool" and name in schema.continuous:
            i = scaler.columns.index(name)
            X[:, j] -= scaler.means[i]
            X[:, j] /= scaler.sds[i]
    return X


@dataclass(frozen=True)
class CohortSplit:
    train_ids: frozenset[str]
    test_ids: frozenset[str]
    seed: int
    label_prevalence_train: float
    label_prevalence_test: float


def stratified_split(
    records: list[PatientRecord], test_fraction: float = 0.2, seed: int = 0
) -> CohortSplit:
    """Deterministic stratified split preserving class prevalence.

    Per-class test quotas use largest-remainder rounding so the total test
    size is round(n * test_fraction) and per-class counts are within one case
    of perfect proportionality.
    """
    if not (0.0 < test_fraction < 1.0):
        raise CohortError(f"test_fraction must lie in (0,1), got {test_fraction}")
    labeled, labels, unlabeled = label_records(records)
    if unlabeled:
        raise CohortError(f"{len(unlabeled)} records lack a 6-month outcome; cannot split")
    by_class: dict[int, list[str]] = {0: [], 1: []}
    for rec in labeled:
        by_class[labels[rec.patient_id]].append(rec.patient_id)
    for cls, ids in by_class.items():
        if len(ids) < 2:
            raise CohortError(f"class {cls} has {len(ids)} members; cannot stratify")

    n = len(labeled)
    n_test = int(round(n * test_fraction))
    if not 0 < n_test < n:
        raise CohortError(f"test_fraction {test_fraction} leaves {n_test} of {n} records to test")
    quotas = {cls: len(ids) * test_fraction for cls, ids in by_class.items()}
    base = {cls: math.floor(q) for cls, q in quotas.items()}
    leftover = n_test - sum(base.values())
    order = sorted(by_class, key=lambda c: quotas[c] - base[c], reverse=True)
    for cls in order[:leftover]:
        base[cls] += 1

    rng = np.random.default_rng(seed)
    test_ids: set[str] = set()
    train_ids: set[str] = set()
    for cls, ids in sorted(by_class.items()):
        ids_sorted = sorted(ids)
        perm = rng.permutation(len(ids_sorted))
        picked = [ids_sorted[i] for i in perm[: base[cls]]]
        test_ids.update(picked)
        train_ids.update(set(ids_sorted) - set(picked))

    def prevalence(id_set):
        return sum(labels[i] for i in id_set) / len(id_set)

    return CohortSplit(
        train_ids=frozenset(train_ids),
        test_ids=frozenset(test_ids),
        seed=seed,
        label_prevalence_train=prevalence(train_ids),
        label_prevalence_test=prevalence(test_ids),
    )

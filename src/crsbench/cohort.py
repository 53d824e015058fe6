"""Cohort ingestion: parsing, validation, labeling, encoding, and splitting.

A parsed cohort is a ``CohortTable``: one column per record field. Labeling,
splitting, scaling and encoding work on its columns, as do the rule engine
and the case renderer, so the pipeline builds no ``PatientRecord``. A record
list passed to these functions is turned into a table first, so there is one
code path. Records, splits, and scalers are immutable once built, and
every entry point that produces model-ready features runs the post-operative
leakage guard, once per encode call rather than per row.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import math
from typing import NamedTuple

import numpy as np

from .records import record_type
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


@record_type
class PatientRecord(NamedTuple):
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

    def _checked(self):
        for name, lo, hi, reason in _RECORD_BOUNDS:
            value = getattr(self, name)
            if value is None and name == "snot22_6mo":  # no outcome yet
                continue
            if not lo <= value <= hi:
                raise CohortError(f"{reason}: {value}")
        return self


# PatientRecord's invariants in the order it checks them: a field, its bounds
# and the reason a value outside them gives. ``parse_cohort`` checks the same
# bounds column by column.
_RECORD_BOUNDS = (
    ("snot22_baseline", 0, 110, "snot22_baseline out of [0,110]"),
    ("snot22_6mo", 0, 110, "snot22_6mo out of [0,110]"),
    ("age", 18, math.inf, "age below 18"),
    ("ct_total", 0, 24, "ct_total out of [0,24]"),
    ("endoscopy_total", 0, 20, "endoscopy_total out of [0,20]"),
)
_FIELD_NAMES = PatientRecord._fields
# A field's value kind: "int", "bool" or "str" (an id or an enum category),
# from its annotation, which NamedTuple keeps as a ForwardRef to the text.
_FIELD_KINDS = {name: ref.__forward_arg__.removesuffix(" | None")
                for name, ref in PatientRecord.__annotations__.items()}
_DEFAULTS = PatientRecord._field_defaults
_OUTCOME = _FIELD_NAMES.index("snot22_6mo")


# Canonical CSV column -> record field.
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
# The id and the outcome: neither is a feature nor part of a serialized case's
# columns, and the leakage guard exempts both from a cohort header.
ID_AND_OUTCOME_COLUMNS = ("PATIENT_ID", "SNOT22_6MO_TOTAL")


class RejectionReport(NamedTuple):
    rows_total: int
    accepted: int
    rejections: tuple[tuple[int, str], ...]  # (data-row index, reason)

    @property
    def rejected(self) -> int:
        return len(self.rejections)


def _column(values: list, kind: str) -> np.ndarray:
    """One field's values as a column: int64 for ints (object when one does
    not fit), bool for bools, object for strings."""
    if kind == "int":
        try:
            return np.array(values, dtype=np.int64)
        except OverflowError:
            return np.array(values, dtype=object)
    return np.array(values, dtype=bool if kind == "bool" else object)


def _outcome_column(values: list) -> tuple[np.ndarray, np.ndarray]:
    """The ``snot22_6mo`` column, 0 where the value is None, and where it is."""
    missing = [v is None for v in values]
    return (_column([0 if m else v for v, m in zip(values, missing)], "int"),
            np.array(missing, dtype=bool))


class CohortTable:
    """A cohort as columns: ``columns[name]`` holds record field ``name`` of
    every row, as ``_column`` makes it.

    ``snot22_6mo`` holds 0 where ``outcome_missing`` is set. Every row meets
    the record invariants; ``records`` builds the records of the rows asked
    for, and only those.
    """

    __slots__ = ("columns", "outcome_missing")

    def __init__(self, columns: dict[str, np.ndarray], outcome_missing: np.ndarray):
        self.columns = columns
        self.outcome_missing = outcome_missing

    def __len__(self) -> int:
        return len(self.outcome_missing)

    @property
    def ids(self) -> np.ndarray:
        return self.columns["patient_id"]

    def take(self, rows) -> CohortTable:
        """The table of ``rows`` (indices or a mask), in that order."""
        return CohortTable({name: col[rows] for name, col in self.columns.items()},
                           self.outcome_missing[rows])

    def labels(self) -> np.ndarray:
        """Each row's label: 1 iff its 6-month reduction reaches the MCID."""
        if self.outcome_missing.any():
            raise CohortError(f"{int(self.outcome_missing.sum())} records lack a 6-month outcome")
        reduction = self.columns["snot22_baseline"] - self.columns["snot22_6mo"]
        return (reduction >= MCID_REDUCTION).astype(np.int64)

    def records(self, rows=None) -> list[PatientRecord]:
        """The records of ``rows`` (every row when omitted), in that order."""
        table = self if rows is None else self.take(rows)
        values = [table.columns[name].tolist() for name in _FIELD_NAMES]
        values[_OUTCOME] = [None if missing else v for v, missing
                            in zip(values[_OUTCOME], table.outcome_missing.tolist())]
        return list(itertools.starmap(PatientRecord, zip(*values)))

    @classmethod
    def from_records(cls, records) -> CohortTable:
        columns = {name: _column([getattr(r, name) for r in records], _FIELD_KINDS[name])
                   for name in _FIELD_NAMES if name != "snot22_6mo"}
        columns["snot22_6mo"], missing = _outcome_column([r.snot22_6mo for r in records])
        return cls(columns, missing)


def _as_table(cohort) -> CohortTable:
    """``cohort``, a table or a record list, as a table."""
    return cohort if isinstance(cohort, CohortTable) else CohortTable.from_records(cohort)


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


def _record_columns(schema: Schema, position: dict[str, int]) -> list:
    """(spec, header position or None, record field, cell cache or None) for
    each schema column. A schema whose columns cannot fill every record field
    with values of its kind is an error."""
    named = {COLUMN_TO_FIELD.get(spec.name) for spec in schema.columns}
    for name in _FIELD_NAMES:
        if name not in named and name not in _DEFAULTS:
            raise SchemaError(f"schema has no column for record field {name}")
    columns = []
    for spec in schema.columns:
        name = COLUMN_TO_FIELD.get(spec.name)
        if name is None:
            raise SchemaError(f"schema column {spec.name} has no record field")
        kind = _FIELD_KINDS[name]
        if spec.kind not in (("id", "enum") if kind == "str" else (kind,)):
            raise SchemaError(f"schema column {spec.name} is {spec.kind}; record field {name} "
                              f"holds {kind} values")
        if not (spec.required or name == "patient_id" or name in _DEFAULTS):
            raise SchemaError(f"schema column {spec.name} must be required: record field "
                              f"{name} has no default")
        # the id column has no cache: ids are distinct, so nothing would be shared
        cells = None if spec.name == "PATIENT_ID" else _ColumnCells(spec, schema)
        columns.append((spec, position.get(spec.name), name, cells))
    return columns


# Non-empty rows parsed, or rows serialized, per block. A block is converted
# column by column; converting the whole file at once would hold every cell
# of it in memory.
PARSE_BLOCK_ROWS = 256


def parse_cohort(csv_bytes: bytes, schema: Schema) -> tuple[CohortTable, RejectionReport]:
    """Parse a canonical cohort CSV into a table of validated rows.

    A row is dropped and counted, with the first reason that applies:
    - a placeholder or malformed value in a required field; the first failing
      column in schema order is named;
    - a value that breaks a record invariant, the first in ``_RECORD_BOUNDS``;
    - a PATIENT_ID, given or generated, that repeats an earlier accepted row's.
    A header column that matches the leakage blocklist, other than the id and
    the outcome, raises ``LeakageError`` before any row is read. A missing
    required column is a hard error naming the column. One leading
    UTF-8 byte-order mark is ignored. Rows are read as ``csv.DictReader``
    reads them: empty lines are skipped and not counted, a duplicated header
    name reads its last column, a short row's missing cells are missing
    values and extra cells are ignored.
    """
    reader = csv.reader(_lines(csv_bytes.decode("utf-8").removeprefix("\ufeff")))
    header = next(reader, None)
    if header is None:
        raise SchemaError("csv has no header row")
    leakage_guard([c for c in header if c not in ID_AND_OUTCOME_COLUMNS], schema.blocklist)
    for required in schema.required_columns:
        if required not in header:
            raise SchemaError(f"missing required column: {required}")

    # a name found twice in the header reads its last column
    columns = _record_columns(schema, {name: j for j, name in enumerate(header)})
    width = 1 + max((j for _, j, _, _ in columns if j is not None), default=-1)

    blocks: list[dict[str, np.ndarray]] = []  # each block's accepted rows and outcome_missing
    rejections: list[tuple[int, str]] = []
    first_at: dict[str, int] = {}  # accepted patient id -> its row
    rows = filter(None, reader)  # drops empty lines
    base = 0  # data-row index of the block's first row
    while block := list(itertools.islice(rows, PARSE_BLOCK_ROWS)):
        n = len(block)
        if min(map(len, block)) < width:
            block = [row + [None] * (width - len(row)) for row in block]
        by_position = list(zip(*block))
        values = {name: [default] * n for name, default in _DEFAULTS.items()}
        reasons: dict[int, str] = {}  # row in block -> why it is rejected
        for spec, j, name, cells in columns:
            raw = by_position[j] if j is not None else (None,) * n
            if cells is None:
                # a block of present, non-placeholder ids needs only stripping
                column = list(map(str.strip, raw)) if spec.kind == "id" and None not in raw else ()
                failing = not column or not PLACEHOLDERS.isdisjoint(map(str.lower, column))
                if failing:
                    column = [_cell_value(cell, spec, schema) for cell in raw]
                    if None in column:
                        column = [f"case_{base + i:04d}" if v is None else v
                                  for i, v in enumerate(column)]
            else:
                column = list(map(cells.__getitem__, raw))
                failing = cells.rejected and not cells.rejected.isdisjoint(raw)
            if failing:
                for i, v in enumerate(column):
                    if v.__class__ is _Rejected:
                        reasons.setdefault(i, str(v))
            values[name] = column

        keep = [i for i in range(n) if i not in reasons]  # the rows whose every cell parsed
        if reasons:
            values = {name: [column[i] for i in keep] for name, column in values.items()}
        table = {name: _column(values[name], _FIELD_KINDS[name])
                 for name in _FIELD_NAMES if name != "snot22_6mo"}
        table["snot22_6mo"], missing = _outcome_column(values["snot22_6mo"])
        for name, lo, hi, reason in _RECORD_BOUNDS:
            col = table[name]
            bad = (col < lo) | (col > hi)
            if name == "snot22_6mo":
                bad &= ~missing
            for k in np.flatnonzero(bad).tolist():
                reasons.setdefault(keep[k], f"{reason}: {values[name][k]}")
        ids = values["patient_id"]
        for k, i in enumerate(keep):
            if i not in reasons:
                first = first_at.setdefault(ids[k], base + i)
                if first != base + i:
                    reasons[i] = f"duplicate PATIENT_ID {ids[k]} (first at row {first})"

        if len(reasons) > n - len(keep):  # a row whose cells parsed is rejected
            accepted = [k for k, i in enumerate(keep) if i not in reasons]
            table = {name: col[accepted] for name, col in table.items()}
            missing = missing[accepted]
        table["outcome_missing"] = missing
        blocks.append(table)
        rejections.extend((base + i, reasons[i]) for i in sorted(reasons))
        base += n

    def joined(name, kind):  # drops the blocks' parts as it joins them
        return np.concatenate([b.pop(name) for b in blocks]) if blocks else _column([], kind)

    table = CohortTable({name: joined(name, _FIELD_KINDS[name]) for name in _FIELD_NAMES},
                        joined("outcome_missing", "bool"))
    return table, RejectionReport(base, len(table), tuple(rejections))


def cell_texts(table: CohortTable, name: str) -> list[str]:
    """Record field ``name`` of every row as its CSV cell."""
    col = table.columns[name]
    texts = np.where(col, "1", "0").tolist() if col.dtype == bool else list(map(str, col.tolist()))
    if name == "snot22_6mo":
        texts = ["" if missing else t for t, missing in zip(texts, table.outcome_missing.tolist())]
    return texts


def serialize_cohort(cohort, schema: Schema) -> bytes:
    """Render a table or record list as canonical CSV; inverse of parse_cohort on valid data.

    Rows are rendered a block at a time, so only one block is held as
    columns and as cell strings.
    """
    names = [COLUMN_TO_FIELD.get(column) for column in schema.column_names]
    if None in names:
        raise SchemaError(f"schema column {schema.column_names[names.index(None)]} has no record field")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(schema.column_names)
    for start in range(0, len(cohort), PARSE_BLOCK_ROWS):
        rows = slice(start, start + PARSE_BLOCK_ROWS)
        block = cohort.take(rows) if isinstance(cohort, CohortTable) else _as_table(cohort[rows])
        writer.writerows(zip(*(cell_texts(block, name) for name in names)))
    return buf.getvalue().encode("utf-8")


def label_records(records: list[PatientRecord]) -> tuple[list[PatientRecord], dict[str, int], list[str]]:
    """Split a record list into the labeled records, their labels by id, and the unlabeled ids."""
    table = CohortTable.from_records(records)
    rows = np.flatnonzero(~table.outcome_missing)
    labels = dict(zip(table.ids[rows].tolist(), table.take(rows).labels().tolist()))
    return [records[i] for i in rows.tolist()], labels, table.ids[table.outcome_missing].tolist()


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


class Scaler(NamedTuple):
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


def fit_scaler(train, schema: Schema) -> Scaler:
    """Fit on the training rows, a table or a record list."""
    table = _as_table(train)
    if not len(table):
        raise CohortError("cannot fit scaler on empty training set")
    means, sds = [], []
    for name in schema.continuous:
        values = table.columns[COLUMN_TO_FIELD[name]].astype(float)
        mean = float(values.mean())
        sd = float(values.std())
        means.append(mean)
        sds.append(sd if sd > 0 else 1.0)  # constant column: pass through centered
    return Scaler(tuple(schema.continuous), tuple(means), tuple(sds))


def encode_matrix(cohort, schema: Schema, scaler: Scaler) -> np.ndarray:
    """Encode a table or record list into an (n, d) float matrix in schema order.

    Ints and booleans become floats ({0,1} for booleans), enums their fixed
    codes, and continuous fields are standardized by the fitted scaler as
    ``(value - mean) / sd``, one IEEE operation each. Unknown enum values
    are hard errors. The leakage guard runs once per call, before any row is
    read.
    """
    order = schema.feature_order
    leakage_guard(list(order), schema.blocklist)
    table = _as_table(cohort)
    X = np.empty((len(table), len(order)))
    for j, name in enumerate(order):
        col = table.columns[COLUMN_TO_FIELD[name]]
        kind = schema.column(name).kind
        if kind == "enum":
            try:
                X[:, j] = np.fromiter(map(schema.encodings[name].__getitem__, col.tolist()),
                                      float, len(col))
            except KeyError as exc:
                raise CohortError(
                    f"{name}: value {exc.args[0]!r} not in encoding dictionary"
                ) from None
            continue
        X[:, j] = col
        if kind != "bool" and name in schema.continuous:
            i = scaler.columns.index(name)
            X[:, j] -= scaler.means[i]
            X[:, j] /= scaler.sds[i]
    return X


class CohortSplit(NamedTuple):
    train_ids: frozenset[str]
    test_ids: frozenset[str]
    seed: int
    label_prevalence_train: float
    label_prevalence_test: float
    # the rows of each side in the cohort that was split, in case-id order
    train_rows: np.ndarray
    test_rows: np.ndarray

    # Splits compare and hash by their first five fields: the row arrays
    # follow from the ids, and arrays do not compare to one truth value.
    def __eq__(self, other):
        return self[:5] == other[:5] if type(other) is type(self) else NotImplemented

    def __ne__(self, other):
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    def __hash__(self):
        return hash(self[:5])


def stratified_split(cohort, test_fraction: float = 0.2, seed: int = 0) -> CohortSplit:
    """Deterministic stratified split of a labeled table or record list,
    preserving class prevalence.

    Per-class test quotas use largest-remainder rounding so the total test
    size is round(n * test_fraction) and per-class counts are within one case
    of perfect proportionality. Each class's cases are drawn in case-id order.
    A class whose quota leaves it out of the test or the training split is
    refused, before any model trains on the split.
    """
    if not (0.0 < test_fraction < 1.0):
        raise CohortError(f"test_fraction must lie in (0,1), got {test_fraction}")
    table = _as_table(cohort)
    labels = table.labels()
    ids = table.ids.tolist()
    order = np.array(sorted(range(len(ids)), key=ids.__getitem__), dtype=np.intp)
    by_class = {cls: order[labels[order] == cls] for cls in (0, 1)}  # rows in case-id order
    for cls, rows in by_class.items():
        if len(rows) < 2:
            raise CohortError(f"class {cls} has {len(rows)} members; cannot stratify")

    n = len(table)
    n_test = int(round(n * test_fraction))
    if not 0 < n_test < n:
        raise CohortError(f"test_fraction {test_fraction} leaves {n_test} of {n} records to test")
    quotas = {cls: len(rows) * test_fraction for cls, rows in by_class.items()}
    base = {cls: math.floor(q) for cls, q in quotas.items()}
    leftover = n_test - sum(base.values())
    for cls in sorted(by_class, key=lambda c: quotas[c] - base[c], reverse=True)[:leftover]:
        base[cls] += 1
    for cls, rows in by_class.items():
        if not 0 < base[cls] < len(rows):
            raise CohortError(f"test_fraction {test_fraction} puts {base[cls]} of the {len(rows)} "
                              f"cases of class {cls} in the test split; each split needs both classes")

    rng = np.random.default_rng(seed)
    in_test = np.zeros(n, dtype=bool)
    for cls, rows in by_class.items():
        in_test[rows[rng.permutation(len(rows))[: base[cls]]]] = True
    test_rows, train_rows = order[in_test[order]], order[~in_test[order]]
    test_ids = frozenset(table.ids[test_rows].tolist())
    train_ids = frozenset(table.ids[train_rows].tolist())
    if len(test_ids) + len(train_ids) != n:
        raise CohortError("patient ids repeat; cannot split")

    def prevalence(rows):
        return int(labels[rows].sum()) / len(rows)

    return CohortSplit(train_ids, test_ids, seed, prevalence(train_rows), prevalence(test_rows),
                       train_rows, test_rows)

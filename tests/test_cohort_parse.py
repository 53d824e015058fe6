"""The block-columnar cohort parser against the row-at-a-time oracle."""

import csv
import functools
import io
import json
from importlib import resources

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import peak_traced_bytes
from crsbench.cohort import PARSE_BLOCK_ROWS, _lines, parse_cohort, serialize_cohort
from crsbench.schema import SchemaError, _parse_schema, load_schema
from crsbench.synthetic import generate_synthetic
from oracles import dedupe_reference, parse_cohort_reference

# Cell values that each exercise one parsing rule.
CELLS = (
    # placeholders in any case, padded
    "", " ", "NA", "na", "nA", "N/A", "n/a", "NULL", "null", "None", "NONE", "none", " na ",
    # ints: out of range, signed, padded, underscored, non-ASCII digits, huge
    "-1", "111", "17", "18", "25", "21", "120", "121", "+12", "-0", "+0", " 12", "12 ",
    "\t30", "1_0", "4_0", "_10", "10_", "١٢", "１２", "12.0", "1e1", "9" * 30,
    # enums: unknown, wrong case, padded, and the "None" insurance category
    "Female", "Male", "female", " Male ", "Femme", "Private", "private", "Medicare",
    "<25k", ">100k", "White", "Other", "Unknown",
    # bools
    "0", "1", " 1", "0 ", "2", "01", "true", "True",
    # ids and quoted commas
    "case_0003", "case_0000", "syn_0_00001", "a,b", '"quoted"', "x\ny",
)


SCHEMA = load_schema()


def _loosened(**bounds) -> object:
    """The packaged schema with some int columns' bounds replaced."""
    doc = json.loads(resources.files("crsbench.data").joinpath("schema.json").read_bytes())
    for column in doc["columns"]:
        if column["name"] in bounds:
            column.pop("min", None)
            column.pop("max", None)
            column.update(bounds[column["name"]])
    return _parse_schema(json.dumps(doc).encode())


# Cell bounds looser than the record invariants, so that rows reach them: an
# age of 17, a CT total of 25 or an unbounded age of 30 digits parses.
LOOSE_SCHEMA = _loosened(
    SNOT22_BLN_TOTAL={"min": -5, "max": 200}, SNOT22_6MO_TOTAL={"min": -5, "max": 200},
    Age={"min": 0}, BLN_CT_TOTAL={"min": 0, "max": 40}, BLN_ENDO_TOTAL={"min": -5, "max": 30},
)


def _parsed_records(blob, schema=SCHEMA):
    """``parse_cohort``'s table as records, with its report."""
    table, report = parse_cohort(blob, schema)
    return table.records(), report


@functools.lru_cache(maxsize=None)
def _base_rows(n: int, seed: int) -> tuple[tuple[str, ...], ...]:
    text = serialize_cohort(generate_synthetic(n, seed=seed), SCHEMA).decode("utf-8")
    return tuple(tuple(row) for row in csv.reader(io.StringIO(text)))


@st.composite
def mutated_csvs(draw):
    n = draw(st.sampled_from([1, 7, PARSE_BLOCK_ROWS - 1, PARSE_BLOCK_ROWS,
                              PARSE_BLOCK_ROWS + 1, 2 * PARSE_BLOCK_ROWS + 1]))
    rows = [list(row) for row in _base_rows(n, draw(st.integers(0, 2)))]
    header = rows[0]

    def cell_of(row):
        return draw(st.integers(0, len(row) - 1))

    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(
            ["cell"] * 4 + ["insurance", "id", "short", "extra", "blank", "dup_header"] * 2
            + ["drop_column"]))
        row = rows[draw(st.integers(1, len(rows) - 1))]
        if kind == "extra":
            row.extend(draw(st.lists(st.sampled_from(CELLS), min_size=1, max_size=3)))
        elif kind == "blank":
            rows.insert(draw(st.integers(1, len(rows))), [])
        elif not row or not header:
            continue
        elif kind == "cell":
            row[cell_of(row)] = draw(st.sampled_from(CELLS))
        elif kind == "insurance" and "INSURANCE" in header:  # the category "None" is no placeholder
            if header.index("INSURANCE") < len(row):
                row[header.index("INSURANCE")] = draw(st.sampled_from(["None", " None ", "none", "NONE"]))
        elif kind == "id":  # a repeated, blank or colliding patient id
            other = rows[draw(st.integers(1, len(rows) - 1))]
            row[0] = draw(st.sampled_from([other[0] if other else "", "", "NA", "case_0001"]))
        elif kind == "short":
            del row[draw(st.integers(0, len(row))):]
        elif kind == "dup_header":  # a repeated name reads its last column
            j = cell_of(header)
            header.append(header[j])
            for each in rows[1:]:
                if len(each) == len(header) - 1:
                    each.append(draw(st.sampled_from([each[j] if j < len(each) else "", *CELLS])))
        else:  # usually a missing required column
            j = cell_of(header)
            for each in rows:
                del each[j:j + 1]
    buf = io.StringIO()
    csv.writer(buf, lineterminator=draw(st.sampled_from(["\n", "\r\n"]))).writerows(rows)
    text = buf.getvalue()
    if draw(st.integers(0, 7)) == 3:  # a stray carriage return: csv.Error unless quoted
        at = draw(st.integers(0, len(text)))
        text = text[:at] + "\r" + text[at:]
    return text.encode("utf-8")


def _outcome(parse, blob, schema):
    try:
        return parse(blob, schema)
    except (SchemaError, csv.Error) as exc:
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(blob=mutated_csvs(), schema=st.sampled_from([SCHEMA, LOOSE_SCHEMA]))
def test_block_parser_matches_row_oracle(blob, schema):
    """The table's records and the report are the oracle's; under the loose
    schema, rows also fail the record invariants, with the oracle's reasons."""
    got = _outcome(_parsed_records, blob, schema)
    want = _outcome(parse_cohort_reference, blob, schema)
    if isinstance(want[0], list):  # parsed: the oracle's rows, less repeated ids
        want = dedupe_reference(*want)
    assert got == want


def test_record_invariants_reject_rows_in_their_order():
    """A row that breaks several invariants is rejected for the first that
    ``PatientRecord`` checks; a 30-digit age is kept exactly."""
    rows = [list(r) for r in _base_rows(6, 0)]
    col = {name: j for j, name in enumerate(rows[0])}
    edits = [
        {"Age": "17", "BLN_CT_TOTAL": "25"},
        {"BLN_CT_TOTAL": "25", "BLN_ENDO_TOTAL": "21"},
        {"SNOT22_6MO_TOTAL": "111", "Age": "17", "SNOT22_BLN_TOTAL": "-1"},
        {"SNOT22_6MO_TOTAL": "", "BLN_ENDO_TOTAL": "-1"},
        {"Age": "9" * 30},
        {},
    ]
    for row, edit in zip(rows[1:], edits):
        for name, value in edit.items():
            row[col[name]] = value
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    blob = buf.getvalue().encode()
    records, report = _parsed_records(blob, LOOSE_SCHEMA)
    assert (records, report) == dedupe_reference(*parse_cohort_reference(blob, LOOSE_SCHEMA))
    assert [why for _, why in report.rejections] == [
        "age below 18: 17",
        "ct_total out of [0,24]: 25",
        "snot22_baseline out of [0,110]: -1",
        "endoscopy_total out of [0,20]: -1",
    ]
    assert records[0].age == int("9" * 30)


@pytest.mark.parametrize("n", [PARSE_BLOCK_ROWS - 1, PARSE_BLOCK_ROWS, PARSE_BLOCK_ROWS + 1,
                               2 * PARSE_BLOCK_ROWS + 1])
def test_block_boundaries_keep_row_indices(schema, n):
    """A rejection and a generated id in every block carry their file-wide row index."""
    rows = [list(r) for r in _base_rows(n, 0)]
    for i in range(1, len(rows), 97):
        rows[i][1] = "NA"  # SNOT22_BLN_TOTAL, required
    for i in range(2, len(rows), 89):
        rows[i][0] = ""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    blob = buf.getvalue().encode()
    got = _parsed_records(blob, schema)
    assert got == dedupe_reference(*parse_cohort_reference(blob, schema))
    assert got[1].rows_total == n


def test_leading_byte_order_mark_is_ignored(schema):
    records = generate_synthetic(20, seed=3)
    blob = serialize_cohort(records, schema)
    parsed, report = _parsed_records(b"\xef\xbb\xbf" + blob, schema)
    assert parsed == records
    assert report.rejected == 0


def test_duplicate_patient_id_rejects_the_later_row(schema):
    records = generate_synthetic(6, seed=2)
    lines = serialize_cohort(records, schema).decode().splitlines()
    lines.append(lines[2])  # row 6 repeats row 1
    lines[4] = "," + lines[4].split(",", 1)[1]  # row 3 gets the generated id case_0003
    lines[5] = "case_0003," + lines[5].split(",", 1)[1]  # row 4 then collides with it
    parsed, report = parse_cohort("\n".join(lines).encode(), schema)
    assert parsed.ids.tolist() == [records[0].patient_id, records[1].patient_id,
                                              records[2].patient_id, "case_0003",
                                              records[5].patient_id]
    assert report.rows_total == 7 and report.accepted == 5
    assert report.rejections == (
        (4, "duplicate PATIENT_ID case_0003 (first at row 3)"),
        (6, f"duplicate PATIENT_ID {records[1].patient_id} (first at row 1)"),
    )


def test_rejected_row_does_not_claim_its_id(schema):
    """Only accepted rows count as first holders of an id."""
    records = generate_synthetic(3, seed=5)
    lines = serialize_cohort(records, schema).decode().splitlines()
    bad = lines[1].split(",")
    bad[1] = "NA"  # SNOT22_BLN_TOTAL, required
    lines.insert(1, ",".join(bad))  # row 0 is rejected, row 1 holds the same id
    parsed, report = _parsed_records("\n".join(lines).encode(), schema)
    assert parsed == records
    assert report.rejections == ((0, "missing required field SNOT22_BLN_TOTAL"),)


@settings(max_examples=300, deadline=None)
@given(text=st.text(alphabet="\n\r\"a,\x85\u2028", max_size=40))
def test_lines_split_as_stringio_iterates(text):
    """Only a line feed ends a line; a carriage return, NEL and LINE SEPARATOR stay inside it."""
    assert list(_lines(text)) == list(io.StringIO(text))


def test_undecodable_byte_is_reported_at_its_file_offset(schema):
    blob = serialize_cohort(generate_synthetic(300, seed=1), schema)
    at = blob.index(b"\n", len(blob) // 2) + 1
    with pytest.raises(UnicodeDecodeError) as caught:
        parse_cohort(blob[:at] + b"\xff" + blob[at:], schema)
    assert caught.value.start == at


def test_parse_memory_is_bounded_by_the_csv_size(schema):
    """The parse holds the decoded text once (1 byte per ASCII character),
    plus one block of rows, besides the table it returns; and the table is
    smaller than the records the row-at-a-time parser returns."""
    blob = serialize_cohort(generate_synthetic(20000, seed=1), schema)
    peak, retained = peak_traced_bytes(lambda: parse_cohort(blob, schema))
    assert peak - retained < 2.5 * len(blob)
    _, records_retained = peak_traced_bytes(lambda: parse_cohort_reference(blob, schema))
    assert retained < records_retained

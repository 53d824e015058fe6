import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import ANY_TEXT, EDGE_FLOATS, make_record
from crsbench.cohort import CohortTable
from crsbench.heuristic import (
    BANDS,
    BASE_RATE,
    DELTA_THRESHOLD,
    FACTORS,
    RuleChain,
    confidence_bands,
    predict_heuristic,
    rule_chain,
)
from crsbench.vocab import Confidence
from oracles import oracle_rule, predict_heuristic_reference

FLAGS = ["crs_polyps", "depression", "fibromyalgia", "smoker", "copd", "asthma", "osa",
         "diabetes", "gerd", "asa_intolerance", "previous_surgery"]


def _chain(*records):
    """The columnar rule chain over a table of ``records``."""
    return rule_chain(CohortTable.from_records(records).columns)


def _multiplier(name, **overrides) -> float:
    """Factor ``name``'s multiplier in a one-row chain of ``make_record(**overrides)``."""
    return float(_chain(make_record(**overrides)).multipliers[0, FACTORS.index(name)])


def test_base_improvement_is_45_percent():
    base = _chain(make_record(snot22_baseline=60), make_record(snot22_baseline=0)).base
    assert base[0] == pytest.approx(27.0)
    assert base[1] == 0.0


def test_worked_example_full_chain():
    # baseline 60, endo 8, ct 10, polyps, no penalties, age 40:
    # 27 * 1.1 * 1.0 * 1.0 * 1.05 = 31.185
    rec = make_record()
    pred = predict_heuristic(rec)
    assert pred.adjusted_improvement == pytest.approx(31.185, abs=1e-12)
    assert pred.predicted_6mo == pytest.approx(60 - 31.185, abs=1e-12)
    assert pred.label == 1
    assert pred.confidence is Confidence.VERY_CONFIDENT


def test_worked_example_heavy_penalties():
    # baseline 30, endo 2, ct 4, no polyps, depression+smoker, age 70:
    # 13.5 * 0.7 * 0.8 * 0.85 * 0.7 * 0.85 * 0.9 = 3.441123
    rec = make_record(
        snot22_baseline=30, endoscopy_total=2, ct_total=4, crs_polyps=False,
        depression=True, smoker=True, age=70,
    )
    pred = predict_heuristic(rec)
    assert pred.adjusted_improvement == pytest.approx(3.441123, abs=1e-9)
    assert pred.label == 0
    assert pred.confidence is Confidence.SOMEWHAT_UNSURE


def test_zero_baseline_degenerate_case():
    rec = make_record(snot22_baseline=0, crs_polyps=False)
    pred = predict_heuristic(rec)
    assert pred.adjusted_improvement == 0.0
    assert pred.label == 0
    # distance to threshold is 9, which lands in the [6, 10) band
    assert pred.confidence is Confidence.NEUTRAL


@pytest.mark.parametrize(
    "delta,expected",
    [
        (24.0, Confidence.VERY_CONFIDENT),
        (19.0, Confidence.SOMEWHAT_CONFIDENT),
        (15.0, Confidence.NEUTRAL),
        (12.5, Confidence.SOMEWHAT_UNSURE),
        (9.0, Confidence.NOT_AT_ALL_CONFIDENT),
        (0.0, Confidence.NEUTRAL),
        (-6.0, Confidence.VERY_CONFIDENT),
    ],
)
def test_confidence_band_boundaries(delta, expected):
    assert BANDS[confidence_bands(np.array([delta]))[0]] is expected


@pytest.mark.parametrize(
    "baseline,expected",
    [(0, 0.5), (24, 0.5), (25, 0.7), (39, 0.7), (40, 1.0), (59, 1.0),
     (60, 1.1), (79, 1.1), (80, 1.2), (110, 1.2)],
)
def test_snot_bracket_edges(baseline, expected):
    assert _multiplier("snot_bracket", snot22_baseline=baseline, crs_polyps=False) == expected


@pytest.mark.parametrize(
    "endo,expected", [(0, 0.8), (3, 0.8), (4, 0.9), (6, 0.9), (7, 1.0), (10, 1.0), (11, 1.1)]
)
def test_endoscopy_bracket_edges(endo, expected):
    assert _multiplier("endoscopy_bracket", snot22_baseline=50, endoscopy_total=endo,
                       crs_polyps=False) == expected


@pytest.mark.parametrize("ct,expected", [(0, 0.85), (6, 0.85), (7, 1.0), (12, 1.0), (13, 1.1)])
def test_ct_bracket_edges(ct, expected):
    assert _multiplier("ct_bracket", snot22_baseline=50, ct_total=ct, crs_polyps=False) == expected


def test_age_penalty_boundary():
    at, below = _chain(make_record(age=65), make_record(age=64)).predictions()
    assert ("age65", 0.9) in at.factor_trace
    assert [name for name, _ in below.factor_trace] == [
        "snot_bracket", "endoscopy_bracket", "ct_bracket", "polyps"]


def test_trace_product_equals_delta():
    rec = make_record(depression=True, asthma=True, age=70, ct_total=15)
    pred = predict_heuristic(rec)
    product = BASE_RATE * rec.snot22_baseline
    for _, mult in pred.factor_trace:
        product *= mult
    assert pred.adjusted_improvement == pytest.approx(product, abs=0.0)


def test_outcome_field_is_never_read():
    with_outcome = predict_heuristic(make_record(snot22_6mo=5))
    without = predict_heuristic(make_record())
    assert with_outcome == without


@settings(max_examples=300, deadline=None)
@given(
    baseline=st.integers(0, 110),
    endo=st.integers(0, 20),
    ct=st.integers(0, 24),
    age=st.integers(18, 90),
    flags=st.lists(st.booleans(), min_size=11, max_size=11),
)
def test_matches_independent_oracle(baseline, endo, ct, age, flags):
    kwargs = dict(zip(FLAGS, flags))
    rec = make_record(snot22_baseline=baseline, endoscopy_total=endo, ct_total=ct,
                      age=age, **kwargs)
    pred = predict_heuristic(rec)
    delta, label, conf_word = oracle_rule(
        baseline, endo, ct, kwargs["crs_polyps"],
        {k: v for k, v in kwargs.items() if k != "crs_polyps"}, age,
    )
    assert math.isclose(pred.adjusted_improvement, delta, abs_tol=1e-9)
    assert pred.label == label
    assert pred.confidence.value == conf_word


# Every bracket edge and the age cutoff, mixed with values drawn from the whole
# range; ages past int64 make the age column an object column.
_ROW = st.fixed_dictionaries({
    "snot22_baseline": st.one_of(st.sampled_from([24, 25, 39, 40, 59, 60, 79, 80]),
                                 st.integers(0, 110)),
    "endoscopy_total": st.one_of(st.sampled_from([3, 4, 6, 7, 10, 11]), st.integers(0, 20)),
    "ct_total": st.one_of(st.sampled_from([6, 7, 12, 13]), st.integers(0, 24)),
    "age": st.one_of(st.sampled_from([64, 65]), st.integers(18, 90),
                     st.integers(10**29, 10**30 - 1)),
    **{flag: st.booleans() for flag in FLAGS},
})


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(_ROW, min_size=1, max_size=40))
@example(rows=[{"snot22_baseline": b, "endoscopy_total": e, "ct_total": c, "age": a,
                **{flag: i % 2 == 0 for flag in FLAGS}}
               for i, (b, e, c, a) in enumerate(zip(
                   [24, 25, 39, 40, 59, 60, 79, 80], [3, 4, 6, 7, 10, 11, 3, 4],
                   [6, 7, 12, 13, 6, 7, 12, 13], [64, 65, 64, 65, 64, 65, 64, 65]))])
def test_rule_chain_matches_scalar_reference(rows):
    records = [make_record(patient_id=f"r{i}", **row) for i, row in enumerate(rows)]
    chain = _chain(*records)
    want = [predict_heuristic_reference(r) for r in records]
    assert chain.delta.tobytes() == np.array([w.adjusted_improvement for w in want]).tobytes()
    assert chain.base.tobytes() == np.array([w.base_improvement for w in want]).tobytes()
    assert chain.predicted_6mo.tobytes() == np.array([w.predicted_6mo for w in want]).tobytes()
    assert chain.label.tolist() == [w.label for w in want]
    assert [BANDS[b].value for b in chain.band.tolist()] == [w.confidence for w in want]
    for got, w in zip(chain.predictions(), want):
        assert got.factor_trace == w.factor_trace


@settings(max_examples=200, deadline=None)
@given(baseline=st.integers(0, 110), endo=st.integers(0, 20), ct=st.integers(0, 24))
def test_penalties_never_increase_delta(baseline, endo, ct):
    severity = dict(snot22_baseline=baseline, endoscopy_total=endo, ct_total=ct)
    clean, *flagged = _chain(
        make_record(**severity),
        *(make_record(**severity, **{flag: True}) for flag in FLAGS[1:]),
    ).delta
    assert (np.array(flagged) <= clean).all()


def test_to_dict_round_trips_trace():
    doc = predict_heuristic(make_record(smoker=True)).to_dict()
    assert doc["label"] in (0, 1)
    assert {"name": "smoker", "multiplier": 0.85} in doc["factors"]
    assert doc["confidence"] in {c.value for c in Confidence}


def _trace_oracle(chain, case_ids) -> str:
    return "".join(json.dumps({"case_id": case_id, **p.to_dict()}) + "\n"
                   for case_id, p in zip(case_ids, chain.predictions()))


@st.composite
def _rule_chains(draw):
    """Any rule chain of up to four rows, with arbitrary case ids."""
    n, width = draw(st.integers(0, 4)), len(FACTORS)

    def column(elements, size=n, dtype=float):
        return np.array(draw(st.lists(elements, min_size=size, max_size=size)), dtype=dtype)

    chain = RuleChain(
        base=column(EDGE_FLOATS),
        multipliers=column(EDGE_FLOATS, n * width).reshape(n, width),
        applied=column(st.booleans(), n * width, bool).reshape(n, width),
        delta=column(EDGE_FLOATS),
        predicted_6mo=column(EDGE_FLOATS),
        label=column(st.integers(0, 1), dtype=np.int64),
        band=column(st.integers(0, len(BANDS) - 1), dtype=np.int64),
    )
    return chain, draw(st.lists(ANY_TEXT, min_size=n, max_size=n))


@settings(max_examples=300, deadline=None)
@given(_rule_chains())
def test_trace_lines_have_the_bytes_of_json_dumps(chain_and_ids):
    chain, case_ids = chain_and_ids
    assert "".join(chain.trace_lines(case_ids)) == _trace_oracle(chain, case_ids)


def test_trace_lines_write_non_finite_floats_as_json_does():
    chain = RuleChain(
        base=np.array([math.nan]), multipliers=np.array([[math.inf] + [1.0] * (len(FACTORS) - 1)]),
        applied=np.array([[True] + [False] * (len(FACTORS) - 1)]), delta=np.array([-math.inf]),
        predicted_6mo=np.array([0.0]), label=np.array([0]), band=np.array([0]),
    )
    line, = chain.trace_lines(["c"])
    assert line == _trace_oracle(chain, ["c"])
    assert '"base_improvement": NaN' in line and '"multiplier": Infinity' in line
    assert '"adjusted_improvement": -Infinity' in line


def test_label_threshold_constants():
    assert DELTA_THRESHOLD == 9.0
    assert BASE_RATE == 0.45

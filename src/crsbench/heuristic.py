"""Multiplicative clinical rule engine for expected SNOT-22 improvement.

A transparent, fully traceable predictor: a base expected improvement of 45%
of the baseline total, scaled by severity brackets (baseline SNOT-22,
endoscopy, CT, polyp phenotype) and by comorbidity/history penalty
multipliers. The adjusted improvement is compared to the MCID threshold to
produce a binary recommendation and a distance-based confidence band.

The chain is written once, over columns: ``rule_chain`` takes a cohort's
columns and gives every factor as a column of multipliers, applied in one
fixed order. ``predict_heuristic`` is its one-row call.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .jsondoc import json_floats, json_string
from .vocab import CONFIDENCE_VALUE, Confidence

# Threshold on the adjusted improvement for a positive recommendation.
# Deliberately > 9 (not >= 8.9): the rule is replicated as stated, and the
# discrepancy with the MCID endpoint is surfaced in reports, not repaired.
DELTA_THRESHOLD = 9.0

BASE_RATE = 0.45

# Severity brackets, applied first and to every row: (record field, trace
# name, ((exclusive upper bound, multiplier), ...), multiplier above them all).
BRACKETS = (
    ("snot22_baseline", "snot_bracket", ((25, 0.5), (40, 0.7), (60, 1.0), (80, 1.1)), 1.2),
    ("endoscopy_total", "endoscopy_bracket", ((4, 0.8), (7, 0.9), (11, 1.0)), 1.1),
    ("ct_total", "ct_bracket", ((7, 0.85), (13, 1.0)), 1.1),
)
# Then, in this order, the factors of the record flags that are set:
# (record field, trace name, multiplier).
FLAG_FACTORS = (
    ("crs_polyps", "polyps", 1.05),
    ("depression", "depression", 0.7),
    ("fibromyalgia", "fibromyalgia", 0.7),
    ("smoker", "smoker", 0.85),
    ("copd", "copd", 0.8),
    ("asthma", "asthma", 0.9),
    ("osa", "osa", 0.9),
    ("diabetes", "diabetes", 0.9),
    ("gerd", "gerd", 0.95),
    ("asa_intolerance", "asa_intolerance", 0.9),
    ("previous_surgery", "previous_surgery", 0.85),
)
# Last, "age65" where the age is at least AGE_CUTOFF.
AGE_CUTOFF, AGE_MULTIPLIER = 65, 0.9
FACTORS = (*(name for _, name, _, _ in BRACKETS), *(name for _, name, _ in FLAG_FACTORS), "age65")

# Confidence bands by distance to the threshold, half-open intervals:
# [15, inf) / [10, 15) / [6, 10) / [3, 6) / [0, 3). ``Confidence`` lists
# its levels from the most confident down.
BANDS = tuple(Confidence)
BAND_FLOORS = (15.0, 10.0, 6.0, 3.0)


class HeuristicPrediction(NamedTuple):
    base_improvement: float
    factor_trace: tuple[tuple[str, float], ...]
    adjusted_improvement: float  # the rule's delta
    predicted_6mo: float
    label: int
    confidence: Confidence

    def to_dict(self) -> dict:
        return {
            "base_improvement": self.base_improvement,
            "factors": [{"name": n, "multiplier": m} for n, m in self.factor_trace],
            "adjusted_improvement": self.adjusted_improvement,
            "predicted_6mo": self.predicted_6mo,
            "label": self.label,
            "confidence": self.confidence._value_,  # skips the Enum.value descriptor
        }


class RuleChain(NamedTuple):
    """The rule chain of n rows, one array per quantity."""

    base: np.ndarray  # 45% of the baseline total
    multipliers: np.ndarray  # (n, len(FACTORS)): each factor's multiplier, 1.0 where it does not apply
    applied: np.ndarray  # (n, len(FACTORS)) bool: the factors in each row's trace
    delta: np.ndarray  # the adjusted improvement
    predicted_6mo: np.ndarray
    label: np.ndarray
    band: np.ndarray  # index into BANDS

    def proxy_scores(self) -> np.ndarray:
        """``protocol.proxy_score`` of each row: its band's value, negated for label 0."""
        value = np.array([CONFIDENCE_VALUE[c] for c in BANDS])[self.band]
        return np.where(self.label == 1, value, -value)

    def predictions(self):
        """Each row as a ``HeuristicPrediction``, in row order."""
        for base, mults, applied, delta, predicted, label, band in zip(
            self.base.tolist(), self.multipliers.tolist(), self.applied.tolist(),
            self.delta.tolist(), self.predicted_6mo.tolist(), self.label.tolist(),
            self.band.tolist(),
        ):
            trace = tuple((name, m) for name, m, on in zip(FACTORS, mults, applied) if on)
            yield HeuristicPrediction(base, trace, delta, predicted, label, BANDS[band])

    def trace_lines(self, case_ids):
        """Each row's trace as a JSON line, in row order: the line of row i
        has the bytes of ``json.dumps({"case_id": case_ids[i], **p.to_dict()})``
        and a newline, where p is the row's ``HeuristicPrediction``, laid out
        from the columns."""
        names = [json_string(name) for name in FACTORS]
        bands = [json_string(level._value_) for level in BANDS]
        _, columns = np.nonzero(self.applied)  # row by row, each row's in FACTORS order
        factors = [
            f'{{"name": {names[j]}, "multiplier": {m}}}'
            for j, m in zip(columns.tolist(), json_floats(self.multipliers[self.applied].tolist()))
        ]
        ends = np.cumsum(np.count_nonzero(self.applied, axis=1)).tolist()
        start = 0
        for case_id, end, base, delta, predicted, label, band in zip(
            case_ids, ends, json_floats(self.base.tolist()), json_floats(self.delta.tolist()),
            json_floats(self.predicted_6mo.tolist()), self.label.tolist(), self.band.tolist(),
        ):
            yield (
                f'{{"case_id": {json_string(case_id)}, "base_improvement": {base}, '
                f'"factors": [{", ".join(factors[start:end])}], "adjusted_improvement": {delta}, '
                f'"predicted_6mo": {predicted}, "label": {label!r}, "confidence": {bands[band]}}}\n'
            )
            start = end


def rule_chain(columns) -> RuleChain:
    """Run the full rule chain on every row of ``columns``, a mapping from
    record field to column as ``CohortTable.columns`` holds it.

    The factors multiply the base in ``FACTORS`` order; a factor that does
    not apply multiplies by 1.0, which leaves every value as it is, so each
    delta has the bytes of the product of its row's trace alone. The 6-month
    outcome, if present, is never read.
    """
    baseline = np.asarray(columns["snot22_baseline"], dtype=float)
    brackets = [np.select([columns[field] < bound for bound, _ in steps],
                          [m for _, m in steps], top)
                for field, _, steps, top in BRACKETS]
    flags = [np.asarray(columns[field], dtype=bool) for field, _, _ in FLAG_FACTORS]
    flags.append(np.asarray(columns["age"] >= AGE_CUTOFF, dtype=bool))
    flag_multipliers = [m for _, _, m in FLAG_FACTORS] + [AGE_MULTIPLIER]
    multipliers = np.column_stack(
        brackets + [np.where(on, m, 1.0) for on, m in zip(flags, flag_multipliers)])
    applied = np.column_stack([np.ones(len(baseline), dtype=bool)] * len(BRACKETS) + flags)

    base = BASE_RATE * baseline
    delta = base.copy()
    for column in multipliers.T:
        delta *= column
    remaining = baseline - delta
    return RuleChain(
        base=base,
        multipliers=multipliers,
        applied=applied,
        delta=delta,
        predicted_6mo=np.where(remaining > 0.0, remaining, 0.0),  # max(0.0, remaining)
        label=(delta > DELTA_THRESHOLD).astype(np.int64),
        band=confidence_bands(delta),
    )


def confidence_bands(delta: np.ndarray) -> np.ndarray:
    """Each delta's confidence band, as an index into ``BANDS``."""
    distance = np.abs(delta - DELTA_THRESHOLD)
    return np.select([distance >= floor for floor in BAND_FLOORS],
                     list(range(len(BAND_FLOORS))), len(BAND_FLOORS))


# The record fields the rule chain reads.
RULE_FIELDS = ("age", *(field for field, *_ in BRACKETS), *(field for field, _, _ in FLAG_FACTORS))


def predict_heuristic(record) -> HeuristicPrediction:
    """Run the full rule chain on one pre-operative record."""
    return next(rule_chain({name: np.array([getattr(record, name)])
                            for name in RULE_FIELDS}).predictions())

"""Multiplicative clinical rule engine for expected SNOT-22 improvement.

A transparent, fully traceable predictor: a base expected improvement of 45%
of the baseline total, scaled by severity brackets (baseline SNOT-22,
endoscopy, CT, polyp phenotype) and by comorbidity/history penalty
multipliers. The adjusted improvement is compared to the MCID threshold to
produce a binary recommendation and a distance-based confidence band.
"""

from __future__ import annotations

from dataclasses import dataclass

from .vocab import Confidence

# Threshold on the adjusted improvement for a positive recommendation.
# Deliberately > 9 (not >= 8.9): the rule is replicated as stated, and the
# discrepancy with the MCID endpoint is surfaced in reports, not repaired.
DELTA_THRESHOLD = 9.0

BASE_RATE = 0.45


@dataclass(frozen=True)
class HeuristicPrediction:
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


def base_improvement(snot22_baseline: int) -> float:
    """Base expected drop: 45% of the baseline total."""
    return BASE_RATE * snot22_baseline


def severity_multipliers(
    snot22_baseline: int, endoscopy_total: int, ct_total: int, crs_polyps: bool
) -> list[tuple[str, float]]:
    """Bracketed 'room to improve' factors for symptom and objective burden."""
    if snot22_baseline < 25:
        snot = 0.5
    elif snot22_baseline < 40:
        snot = 0.7
    elif snot22_baseline < 60:
        snot = 1.0
    elif snot22_baseline < 80:
        snot = 1.1
    else:
        snot = 1.2

    if endoscopy_total <= 3:
        endo = 0.8
    elif endoscopy_total <= 6:
        endo = 0.9
    elif endoscopy_total <= 10:
        endo = 1.0
    else:
        endo = 1.1

    if ct_total <= 6:
        ct = 0.85
    elif ct_total <= 12:
        ct = 1.0
    else:
        ct = 1.1

    factors = [("snot_bracket", snot), ("endoscopy_bracket", endo), ("ct_bracket", ct)]
    if crs_polyps:
        factors.append(("polyps", 1.05))
    return factors


# (field flag, trace name, multiplier) in fixed application order.
PENALTY_TABLE = (
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


def penalty_multipliers(record) -> list[tuple[str, float]]:
    """Independent penalty factors for comorbidities, history, and age >= 65."""
    factors = [
        (name, mult) for attr, name, mult in PENALTY_TABLE if getattr(record, attr)
    ]
    if record.age >= 65:
        factors.append(("age65", 0.9))
    return factors


def confidence_band(delta: float) -> Confidence:
    """Map distance to the decision threshold onto the 5-level scale.

    Half-open intervals: [15, inf) / [10, 15) / [6, 10) / [3, 6) / [0, 3).
    """
    d = abs(delta - DELTA_THRESHOLD)
    if d >= 15:
        return Confidence.VERY_CONFIDENT
    if d >= 10:
        return Confidence.SOMEWHAT_CONFIDENT
    if d >= 6:
        return Confidence.NEUTRAL
    if d >= 3:
        return Confidence.SOMEWHAT_UNSURE
    return Confidence.NOT_AT_ALL_CONFIDENT


def predict_heuristic(record) -> HeuristicPrediction:
    """Run the full rule chain on one pre-operative record.

    The 6-month outcome field, if present, is never read.
    """
    base = base_improvement(record.snot22_baseline)
    trace = severity_multipliers(
        record.snot22_baseline, record.endoscopy_total, record.ct_total, record.crs_polyps
    )
    trace.extend(penalty_multipliers(record))
    delta = base
    for _, mult in trace:
        delta *= mult
    predicted_6mo = max(0.0, record.snot22_baseline - delta)
    return HeuristicPrediction(
        base_improvement=base,
        factor_trace=tuple(trace),
        adjusted_improvement=delta,
        predicted_6mo=predicted_6mo,
        label=int(delta > DELTA_THRESHOLD),
        confidence=confidence_band(delta),
    )

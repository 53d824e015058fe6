"""Synthetic cohort generator.

The real multicenter cohort is private, so benchmarks run on synthetic cases:
marginals are drawn from configurable clinical-range distributions, and the
6-month outcome comes from a latent-outcome model, the rule engine's expected
improvement plus logistic noise, calibrated so that default label prevalence
lands near the published test prevalence (~0.81). The outcome is computed
on the drawn columns with the same columnar rule chain the pipeline runs.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .cohort import PARSE_BLOCK_ROWS, CohortError, CohortTable, PatientRecord
from .heuristic import rule_chain
from .records import record_type


@record_type  # each config gets its own copy of the four dicts
class GeneratorConfig(NamedTuple):
    # Rounded, clamped normals for the severity scores and age.
    snot22_mean: float = 50.0
    snot22_sd: float = 20.0
    snot22_clamp: tuple[int, int] = (9, 110)
    ct_mean: float = 12.0
    ct_sd: float = 5.0
    ct_clamp: tuple[int, int] = (0, 24)
    endo_mean: float = 7.0
    endo_sd: float = 4.0
    endo_clamp: tuple[int, int] = (0, 20)
    age_mean: float = 50.0
    age_sd: float = 14.0
    age_clamp: tuple[int, int] = (18, 90)
    # Bernoulli rates for binary history/comorbidity fields.
    rates: dict = {
        "crs_polyps": 0.35,
        "previous_surgery": 0.30,
        "allergy_testing": 0.40,
        "septal_deviation": 0.30,
        "depression": 0.20,
        "fibromyalgia": 0.08,
        "smoker": 0.15,
        "copd": 0.10,
        "asthma": 0.20,
        "osa": 0.15,
        "diabetes": 0.12,
        "gerd": 0.20,
        "asa_intolerance": 0.05,
    }
    p_male: float = 0.45
    insurance_probs: dict = {"None": 0.08, "Medicaid": 0.22, "Medicare": 0.25, "Private": 0.45}
    income_probs: dict = {
        "<25k": 0.15, "25k-50k": 0.25, "50k-75k": 0.25, "75k-100k": 0.20, ">100k": 0.15,
    }
    race_probs: dict = {"White": 0.70, "Black": 0.15, "Asian": 0.07, "Other": 0.08}
    # Latent outcome: actual reduction = delta + shift + Logistic(0, noise_scale).
    improvement_shift: float = 1.5
    improvement_noise_scale: float = 2.5


def _check_config(params: GeneratorConfig) -> None:
    if not (9 <= params.snot22_clamp[0] <= params.snot22_clamp[1] <= 110):
        raise CohortError(f"snot22_clamp outside [0,110]: {params.snot22_clamp}")
    if not (0 <= params.ct_clamp[0] <= params.ct_clamp[1] <= 24):
        raise CohortError(f"ct_clamp outside [0,24]: {params.ct_clamp}")
    if not (0 <= params.endo_clamp[0] <= params.endo_clamp[1] <= 20):
        raise CohortError(f"endo_clamp outside [0,20]: {params.endo_clamp}")
    if params.age_clamp[0] < 18:
        raise CohortError(f"age_clamp below 18: {params.age_clamp}")
    for name, rate in params.rates.items():
        if not (0.0 <= rate <= 1.0):
            raise CohortError(f"rate for {name} outside [0,1]: {rate}")


def _rounded_clamped_normal(rng, n, mean, sd, clamp):
    lo, hi = clamp
    return np.clip(np.rint(rng.normal(mean, sd, size=n)), lo, hi).astype(np.int64)


def _categorical(rng, n, probs: dict) -> np.ndarray:
    """``n`` draws from the keys of ``probs``: an object column that holds
    one string per category."""
    names = np.array(list(probs), dtype=object)
    p = np.array([probs[k] for k in names], dtype=float)
    p = p / p.sum()
    return names[rng.choice(len(names), size=n, p=p)]


def synthetic_table(n: int, seed: int, params: GeneratorConfig | None = None) -> CohortTable:
    """Generate ``n`` labeled synthetic rows as a table, deterministic per seed."""
    if n < 1:
        raise CohortError(f"n must be >= 1, got {n}")
    params = params or GeneratorConfig()
    _check_config(params)
    rng = np.random.default_rng(seed)

    # The statements draw in the order that fixes what each seed generates.
    columns = {"patient_id": np.array([f"syn_{seed}_{i:05d}" for i in range(n)], dtype=object)}
    columns["snot22_baseline"] = _rounded_clamped_normal(
        rng, n, params.snot22_mean, params.snot22_sd, params.snot22_clamp)
    columns["ct_total"] = _rounded_clamped_normal(
        rng, n, params.ct_mean, params.ct_sd, params.ct_clamp)
    columns["endoscopy_total"] = _rounded_clamped_normal(
        rng, n, params.endo_mean, params.endo_sd, params.endo_clamp)
    columns["age"] = _rounded_clamped_normal(
        rng, n, params.age_mean, params.age_sd, params.age_clamp)
    male = rng.random(n) < params.p_male
    columns["sex"] = np.array(["Female", "Male"], dtype=object)[male.astype(np.intp)]
    for name, rate in params.rates.items():
        columns[name] = rng.random(n) < rate
    columns["insurance"] = _categorical(rng, n, params.insurance_probs)
    columns["income_bracket"] = _categorical(rng, n, params.income_probs)
    columns["race"] = _categorical(rng, n, params.race_probs)
    noise = rng.logistic(0.0, params.improvement_noise_scale, size=n)

    reduction = rule_chain(columns).delta + params.improvement_shift + noise
    six_mo = np.rint(columns["snot22_baseline"] - reduction)
    columns["snot22_6mo"] = np.clip(six_mo, 0, 110).astype(np.int64)
    return CohortTable(columns, np.zeros(n, dtype=bool))


def generate_synthetic(
    n: int, seed: int, params: GeneratorConfig | None = None
) -> list[PatientRecord]:
    """``synthetic_table``'s rows as records. They are built a block at a
    time, so no more than one block of rows is held as columns twice."""
    table = synthetic_table(n, seed, params)
    records = []
    for start in range(0, n, PARSE_BLOCK_ROWS):
        records.extend(table.records(slice(start, start + PARSE_BLOCK_ROWS)))
    return records

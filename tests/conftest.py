from __future__ import annotations

import signal
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest

from crsbench.cohort import PatientRecord
from crsbench.schema import load_schema

BASE_RECORD = dict(
    patient_id="t0",
    snot22_baseline=60,
    age=40,
    sex="Female",
    ct_total=10,
    endoscopy_total=8,
    crs_polyps=True,
    previous_surgery=False,
    allergy_testing=False,
    septal_deviation=False,
    depression=False,
    fibromyalgia=False,
    smoker=False,
    copd=False,
    asthma=False,
    osa=False,
    diabetes=False,
    gerd=False,
    asa_intolerance=False,
    insurance="Private",
    income_bracket="<25k",
    race="White",
)


def peak_traced_bytes(fn) -> tuple[int, int]:
    """Run ``fn()`` under tracemalloc; return the peak of the bytes it allocated
    and the bytes still allocated when it returns, its result included."""
    tracemalloc.start()
    try:
        result = fn()  # noqa: F841 -- kept alive so its bytes count as retained
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, retained


class Overtime(BaseException):
    """Raised by ``time_bound``; not an ``Exception``, so no handler in the code
    under test (the CLI maps every ``OSError``, ``TimeoutError`` included, to
    exit 2) can turn a hang into a result."""


@contextmanager
def time_bound(seconds):
    """Fail, rather than hang, when the body runs longer than ``seconds``."""

    def expire(signum, frame):
        raise Overtime(f"exceeded {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def make_record(**overrides) -> PatientRecord:
    kwargs = dict(BASE_RECORD)
    kwargs.update(overrides)
    return PatientRecord(**kwargs)


@pytest.fixture(scope="session")
def schema():
    return load_schema()


@pytest.fixture
def rng():
    return np.random.default_rng(12345)

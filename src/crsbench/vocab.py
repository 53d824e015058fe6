"""Shared constrained-output vocabulary: the five-level confidence scale."""

from __future__ import annotations

from enum import Enum


class Confidence(Enum):
    VERY_CONFIDENT = "very confident"
    SOMEWHAT_CONFIDENT = "somewhat confident"
    NEUTRAL = "neutral"
    SOMEWHAT_UNSURE = "somewhat unsure"
    NOT_AT_ALL_CONFIDENT = "not at all confident"


# Numeric surrogate for ranking hard-label predictions; monotone in the
# stated confidence, sign carried by the predicted label.
CONFIDENCE_VALUE = {
    Confidence.VERY_CONFIDENT: 1.0,
    Confidence.SOMEWHAT_CONFIDENT: 0.75,
    Confidence.NEUTRAL: 0.5,
    Confidence.SOMEWHAT_UNSURE: 0.25,
    Confidence.NOT_AT_ALL_CONFIDENT: 0.0,
}


_BY_TEXT = {level.value: level for level in Confidence}


def parse_confidence(text: str) -> Confidence | None:
    """Match ``text`` against the closed vocabulary, or None if outside it.

    Case-insensitive, internal whitespace collapsed.
    """
    return _BY_TEXT.get(" ".join(text.lower().split()))

"""The one reader of the JSON documents that cross crsbench's boundaries."""

from __future__ import annotations

import json


def load_json(raw: bytes | str, error, where=None):
    """``raw``, UTF-8 bytes or text, as a JSON value.

    A document that is not UTF-8 or not JSON, that holds an integer longer
    than the interpreter converts (4,300 digits by default) or that nests
    deeper than the parser recurses is raised as ``error`` with a one-line
    message, led by ``where`` when given.
    """
    try:
        return json.loads(raw.decode("utf-8") if isinstance(raw, bytes) else raw)
    except (ValueError, RecursionError) as exc:  # ValueError covers JSON and UTF-8 errors
        defect = f"not UTF-8 JSON: {exc}"
        raise error(defect if where is None else f"{where} is {defect}") from None

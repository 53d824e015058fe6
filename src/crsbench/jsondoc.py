"""The one reader of boundary JSON documents and the one writer of every artifact."""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path


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


@contextmanager
def replacing(path: str | Path):
    """A UTF-8 text handle whose text replaces ``path`` whole or not at all.

    The text goes to ``.NAME.PID.tmp`` beside ``path``, renamed onto ``path``
    when the block ends without an error and removed otherwise. The parent
    directory is created. A symlink, a device or a FIFO is written in place.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.is_symlink() or (path.exists() and not path.is_file()):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh
        return
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_json(path: str | Path, doc) -> None:
    with replacing(path) as fh:
        fh.write(json.dumps(doc, indent=1))


# A str as ``json.dumps`` writes it: quoted, with every non-ASCII character escaped
json_string = json.encoder.encode_basestring_ascii

# The floats JSON has no literal for: their ``float.__repr__`` text, and the
# names ``json`` writes for them instead.
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def json_floats(values) -> list[str]:
    """Each float of ``values`` as ``json.dumps`` writes it: by
    ``float.__repr__``, with NaN and the infinities as ``NaN``, ``Infinity``
    and ``-Infinity``."""
    return [_NONFINITE.get(text, text) for text in map(float.__repr__, values)]


def json_number(value) -> str:
    """``value``, a number or None, as ``json.dumps`` writes it: a float as
    ``json_floats`` writes it, anything else by ``json.dumps``."""
    if type(value) is float:
        text = float.__repr__(value)
        return _NONFINITE.get(text, text)
    return json.dumps(value)

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

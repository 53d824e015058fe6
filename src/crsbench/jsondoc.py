"""The one reader of boundary JSON documents and the one writer of every artifact.

``load_json`` reads a document against a shape rule: a function, made by the
combinators below, that returns the value it checks (or what it builds from
it) and raises ``Invalid`` for any other. Each rule names a valid value in
its ``what``, so a defect is one line: ``{where} key {path} must be {what},
got {value}``.
"""

from __future__ import annotations

import json
import os
import reprlib
from contextlib import contextmanager
from importlib import resources
from pathlib import Path


class Invalid(ValueError):
    """``defect`` of the value at ``path``, the keys and indexes from the
    checked value down to it."""

    def __init__(self, defect: str, path: tuple = ()):
        super().__init__(defect)
        self.defect, self.path = defect, path


def _must(what: str, value) -> Invalid:
    return Invalid(f"must be {what}, got {reprlib.repr(value)}")


def _at(key, rule, value):
    """``rule(value)``, with ``key`` put in front of a defect's path."""
    try:
        return rule(value)
    except Invalid as bad:
        bad.path = (key, *bad.path)
        raise


def _rule(what: str, check, types=None):
    """``check``, naming its valid values ``what``; every value of ``types`` is one."""
    check.what, check.types = what, types
    return check


def _scalar(types: frozenset, what: str, ok=None):
    def check(value):
        if type(value) in types and (ok is None or ok(value)):
            return value
        raise _must(what, value)
    return _rule(what, check, None if ok else types)


def string(ok=None, what="a string"):
    return _scalar(frozenset({str}), what, ok)


def one_of(values: tuple):
    """One of the strings ``values``, named as 'a', 'b' or 'c'."""
    return string(values.__contains__, ", ".join(map(repr, values[:-1])) + f" or {values[-1]!r}")


def boolean():
    return _scalar(frozenset({bool}), "a boolean")


def integer(lo=None, what=None, hi=None):
    """An int (never a bool), at least ``lo`` when given; in [lo, hi] when
    ``hi`` is given too."""
    if hi is not None:
        return _scalar(frozenset({int}), what or f"an integer in [{lo}, {hi}]", lambda v: lo <= v <= hi)
    return _scalar(frozenset({int}), what or ("an integer" if lo is None else f"an integer >= {lo}"),
                   None if lo is None else lambda v: v >= lo)


def number(ok=None, what="a number"):
    """An int or a float (never a bool) that ``ok``, when given, accepts."""
    return _scalar(frozenset({int, float}), what, ok)


def nullable(rule):
    return described(f"null or {rule.what}", lambda value: None if value is None else rule(value))


def list_of(item):
    """A list of values ``item`` accepts. A list of scalars is checked by its
    items' types in one pass, and walked for the index of the first bad item
    only when that fails."""
    types = item.types

    def check(values):
        if type(values) is not list:
            raise _must("a list", values)
        if types is not None and types.issuperset(map(type, values)):
            return values
        return [_at(i, item, value) for i, value in enumerate(values)]
    return _rule("a list", check)


def mapping_of(item=None):
    """A JSON object whose values ``item``, when given, accepts."""
    def check(value):
        if type(value) is not dict:
            raise _must("a JSON object", value)
        return value if item is None else {key: _at(key, item, v) for key, v in value.items()}
    return _rule("a JSON object", check)


def obj(rules: dict, *, build=dict, closed=False, **defaults):
    """A JSON object whose value at each key of ``rules`` that key's rule
    accepts; a key without a default is required. ``build`` takes the checked
    values by key. A ``closed`` object has no other keys; others are ignored."""
    required = [key for key in rules if key not in defaults]
    what = "a JSON object" + (f" with {', '.join(required)}" if required else "")

    def check(value):
        if type(value) is not dict:
            raise _must(what, value)
        if closed and not value.keys() <= rules.keys():
            raise Invalid("is unknown", (repr(min(value.keys() - rules.keys())),))
        fields = {}
        for key, rule in rules.items():
            if key in value:
                fields[key] = _at(key, rule, value[key])
            elif key in defaults:
                fields[key] = rule(defaults[key])
            else:
                raise Invalid("is required", (key,))
        return fields if build is dict else build(**fields)
    return _rule(what, check)


def described(what: str, rule, ok=None):
    """``rule``, then ``ok`` when given on what it returns, with a defect
    anywhere in the value reported as the whole value not being ``what``."""
    def check(value):
        try:
            checked = rule(value)
        except Invalid:
            raise _must(what, value) from None
        if ok is None or ok(checked):
            return checked
        raise _must(what, value)
    return _rule(what, check)


def checked(value, rule, error, where=None):
    """``value`` as ``rule`` returns it; a defect is raised as ``error``, one
    line led by ``where`` when given."""
    try:
        return rule(value)
    except Invalid as bad:
        path = "".join(f"[{k}]" if type(k) is int else "." + (k if k.isprintable() else repr(k))
                       for k in bad.path).removeprefix(".")
        raise error(" ".join(str(part) for part in (where, path and f"key {path}", bad.defect)
                             if part)) from None


def load_json(raw: bytes | str, rule, error, where=None):
    """``raw``, UTF-8 bytes or text, as ``checked`` returns its JSON value.

    A document that is not UTF-8 or not JSON, that holds an integer longer
    than the interpreter converts (4,300 digits by default) or that nests
    deeper than the parser recurses is raised as ``error`` with a one-line
    message, led by ``where`` when given, as is one that ``rule`` rejects.
    """
    try:
        doc = json.loads(raw.decode("utf-8") if isinstance(raw, bytes) else raw)
    except (ValueError, RecursionError) as exc:  # ValueError covers JSON and UTF-8 errors
        defect = f"not UTF-8 JSON: {exc}"
        raise error(defect if where is None else f"{where} is {defect}") from None
    return checked(doc, rule, error, where)


def data_file(path: str | Path | None, name: str):
    """The file at ``path``, or the packaged data file ``name`` when ``path`` is None."""
    return resources.files("crsbench.data").joinpath(name) if path is None else Path(path)


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

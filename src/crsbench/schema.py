"""Versioned, checksummed feature schema and encoding dictionaries.

The schema file fixes the canonical column order, the enum encodings, the
continuous-feature list, and the post-operative blocklist. Its checksum is
stamped into every downstream artifact so a report can always be traced back
to the exact dictionary version it was produced with.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import NamedTuple

from .jsondoc import boolean, data_file, integer, list_of, load_json, mapping_of, nullable, obj, string


class SchemaError(ValueError):
    """Raised for malformed schema files or schema/data mismatches."""


# Placeholder strings treated as missing values (case-insensitive).
PLACEHOLDERS = {"", "none", "na", "n/a", "null"}


class ColumnSpec(NamedTuple):
    name: str
    kind: str  # "id" | "int" | "enum" | "bool"
    required: bool
    min: int | None = None
    max: int | None = None


class Schema(NamedTuple):
    version: str
    columns: tuple[ColumnSpec, ...]
    encodings: dict[str, dict[str, int]]
    feature_order: tuple[str, ...]
    continuous: tuple[str, ...]
    blocklist: tuple[str, ...]
    checksum: str

    def column(self, name: str) -> ColumnSpec:
        for spec in self.columns:  # a schema has a few dozen columns
            if spec.name == name:
                return spec
        raise SchemaError(f"unknown column: {name}")

    @property
    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]

    @property
    def required_columns(self) -> list[str]:
        return [c.name for c in self.columns if c.required]


def _check(ok: bool, defect: str) -> None:
    if not ok:
        raise SchemaError(f"schema file: {defect}")


_STRINGS = list_of(string())
_SCHEMA = obj({
    "version": string(),
    "columns": list_of(obj({"name": string(), "kind": string(), "required": boolean(),
                            "min": nullable(integer()), "max": nullable(integer())},
                           build=ColumnSpec, min=None, max=None)),
    "encodings": mapping_of(mapping_of(integer())),
    "feature_order": _STRINGS,
    "continuous": _STRINGS,
    "blocklist": _STRINGS,
})


def _parse_schema(raw: bytes) -> Schema:
    """The schema in ``raw``; a document of the wrong shape is a ``SchemaError``,
    and so is one whose lists name columns of the wrong kind."""
    doc = load_json(raw, _SCHEMA, SchemaError, "the schema file")
    schema = Schema(
        version=doc["version"],
        columns=tuple(doc["columns"]),
        encodings=doc["encodings"],
        feature_order=tuple(doc["feature_order"]),
        continuous=tuple(doc["continuous"]),
        blocklist=tuple(doc["blocklist"]),
        checksum=hashlib.sha256(raw).hexdigest(),
    )
    kinds = {c.name: c.kind for c in schema.columns}
    for feat in schema.feature_order:
        _check(kinds.get(feat, "id") != "id", f"feature_order names {feat}, not a feature column")
    for name in schema.encodings:
        _check(name in kinds, f"encodings names unknown column: {name}")
    for name, kind in kinds.items():
        _check(kind != "enum" or name in schema.encodings, f"enum column {name} has no encodings")
    for name in schema.continuous:
        _check(kinds.get(name) in ("int", "bool"), f"continuous names {name}, not an int or bool column")
    return schema


def load_schema(path: str | Path | None = None) -> Schema:
    """Load the schema from ``path``, or the packaged default when omitted."""
    return _parse_schema(data_file(path, "schema.json").read_bytes())

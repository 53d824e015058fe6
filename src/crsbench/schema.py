"""Versioned, checksummed feature schema and encoding dictionaries.

The schema file fixes the canonical column order, the enum encodings, the
continuous-feature list, and the post-operative blocklist. Its checksum is
stamped into every downstream artifact so a report can always be traced back
to the exact dictionary version it was produced with.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .jsondoc import load_json


class SchemaError(ValueError):
    """Raised for malformed schema files or schema/data mismatches."""


# Placeholder strings treated as missing values (case-insensitive).
PLACEHOLDERS = {"", "none", "na", "n/a", "null"}


@dataclass(frozen=True)
class ColumnSpec:
    name: str
    kind: str  # "id" | "int" | "enum" | "bool"
    required: bool
    min: int | None = None
    max: int | None = None


@dataclass(frozen=True)
class Schema:
    version: str
    columns: tuple[ColumnSpec, ...]
    encodings: dict[str, dict[str, int]]
    feature_order: tuple[str, ...]
    continuous: tuple[str, ...]
    blocklist: tuple[str, ...]
    checksum: str
    _by_name: dict[str, ColumnSpec] = field(repr=False, default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "_by_name", {c.name: c for c in self.columns})

    def column(self, name: str) -> ColumnSpec:
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(f"unknown column: {name}") from None

    @property
    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]

    @property
    def required_columns(self) -> list[str]:
        return [c.name for c in self.columns if c.required]


def _parse_schema(raw: bytes) -> Schema:
    doc = load_json(raw, SchemaError, "the schema file")
    try:
        columns = tuple(
            ColumnSpec(
                name=c["name"],
                kind=c["kind"],
                required=bool(c["required"]),
                min=c.get("min"),
                max=c.get("max"),
            )
            for c in doc["columns"]
        )
        schema = Schema(
            version=doc["version"],
            columns=columns,
            encodings={k: dict(v) for k, v in doc["encodings"].items()},
            feature_order=tuple(doc["feature_order"]),
            continuous=tuple(doc["continuous"]),
            blocklist=tuple(doc["blocklist"]),
            checksum=hashlib.sha256(raw).hexdigest(),
        )
    except KeyError as exc:
        raise SchemaError(f"schema file missing key: {exc}") from None
    names = {c.name for c in schema.columns}
    for feat in schema.feature_order:
        if feat not in names:
            raise SchemaError(f"feature_order names unknown column: {feat}")
    for enum_col in schema.encodings:
        if enum_col not in names:
            raise SchemaError(f"encodings names unknown column: {enum_col}")
    return schema


def load_schema(path: str | Path | None = None) -> Schema:
    """Load the schema from ``path``, or the packaged default when omitted."""
    if path is None:
        raw = resources.files("crsbench.data").joinpath("schema.json").read_bytes()
    else:
        raw = Path(path).read_bytes()
    return _parse_schema(raw)

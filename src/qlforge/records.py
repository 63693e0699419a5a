"""API records and the JSON spec-document wire format.

An :class:`ApiRecord` is one extracted API signature: the qualified callee
(package, enclosing type, method, parameter types, return type) plus the
context needed to judge it (annotations, a bounded code snippet, and the
location where it was first seen). Records are immutable and hash-identified:
two call sites with the same qualified signature get the same id no matter
where they appear.
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from .artifacts import dump_json, parse_entries, read_text, write_text

logger = logging.getLogger(__name__)

SPEC_DOC_VERSION = 1

# Snippet bounds: enough context for classification without blowing the
# prompt budget.
SNIPPET_MAX_LINES = 20
SNIPPET_MAX_CHARS = 1200


@dataclass(frozen=True)
class ApiParam:
    """One parameter of a call: a name and the declared (or inferred) type."""

    name: str
    type: str


@dataclass(frozen=True)
class SourceLocation:
    file: str
    line: int


@dataclass(frozen=True)
class ApiRecord:
    """One extracted API signature with classification context.

    ``id`` is a stable content hash of the qualified signature; see
    :func:`signature_hash`.
    """

    id: str
    package: str
    type_name: str
    method: str
    params: tuple[ApiParam, ...]
    return_type: str
    annotations: tuple[str, ...]
    snippet: str
    first_seen: SourceLocation

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "package": self.package,
            "type_name": self.type_name,
            "method": self.method,
            "params": [{"name": p.name, "type": p.type} for p in self.params],
            "return_type": self.return_type,
            "annotations": list(self.annotations),
            "snippet": self.snippet,
            "first_seen": {"file": self.first_seen.file, "line": self.first_seen.line},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ApiRecord":
        return cls(
            id=data["id"],
            package=data["package"],
            type_name=data["type_name"],
            method=data["method"],
            params=tuple(ApiParam(p["name"], p["type"]) for p in data["params"]),
            return_type=data["return_type"],
            annotations=tuple(data["annotations"]),
            snippet=data["snippet"],
            first_seen=SourceLocation(data["first_seen"]["file"], data["first_seen"]["line"]),
        )

    @cached_property
    def json_text(self) -> str:
        """The record as one line of JSON, the form every prompt embeds.

        Serialized on first use and kept on the instance, so classification
        (cost estimate and rendered prompt), pairing and rule writing all
        reuse one string. The text is not ASCII-escaped; a record holding a
        lone surrogate yields a string that cannot be encoded as UTF-8.
        """
        return json.dumps(self.to_dict(), ensure_ascii=False)


def signature_hash(
    package: str,
    type_name: str,
    method: str,
    param_types: tuple[str, ...] | list[str],
    return_type: str,
) -> str:
    """Stable 16-hex-digit id for a qualified signature.

    Parameter names and locations deliberately do not participate: the same
    API called from two files, or with renamed arguments, hashes identically.
    """
    key = "|".join([package, type_name, method, ",".join(param_types), return_type])
    return hashlib.sha256(key.encode("utf-8")).hexdigest()[:16]


def clamp_snippet(text: str, max_lines: int = SNIPPET_MAX_LINES, max_chars: int = SNIPPET_MAX_CHARS) -> str:
    lines = text.splitlines()
    if len(lines) > max_lines:
        lines = lines[:max_lines]
    out = "\n".join(lines)
    return out[:max_chars]


def make_record(
    package: str,
    type_name: str,
    method: str,
    params: list[ApiParam] | list[tuple[str, str]],
    return_type: str,
    annotations: list[str] = (),
    snippet: str = "",
    first_seen: SourceLocation | None = None,
) -> ApiRecord:
    """Build an :class:`ApiRecord`, computing the id and clamping the snippet."""
    if not method:
        raise ValueError("method name must be non-empty")
    norm_params = tuple(p if isinstance(p, ApiParam) else ApiParam(*p) for p in params)
    return ApiRecord(
        id=signature_hash(package, type_name, method, [p.type for p in norm_params], return_type),
        package=package,
        type_name=type_name,
        method=method,
        params=norm_params,
        return_type=return_type,
        annotations=tuple(annotations),
        snippet=clamp_snippet(snippet),
        first_seen=first_seen or SourceLocation("", 0),
    )


def _encodable(record: ApiRecord) -> bool:
    try:
        record.json_text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def dump_spec_document(records: list[ApiRecord]) -> str:
    """Serialize records to the spec-document JSON text.

    Records whose text cannot be encoded as UTF-8 (e.g. a snippet holding a
    lone surrogate) are dropped with a warning rather than poisoning the
    whole document.
    """
    kept = []
    for record in records:
        if _encodable(record):
            kept.append(record)
        else:
            logger.warning("dropping record %s: snippet not encodable as UTF-8", record.id)
    doc = {"version": SPEC_DOC_VERSION, "apis": [r.to_dict() for r in kept]}
    return dump_json(doc)


def parse_spec_document(text: str, source: str | Path = "spec document") -> list[ApiRecord]:
    return parse_entries(text, source, SPEC_DOC_VERSION, "apis", ApiRecord.from_dict)


def save_spec_document(records: list[ApiRecord], path: str | Path) -> None:
    write_text(path, dump_spec_document(records))


def load_spec_document(path: str | Path) -> list[ApiRecord]:
    return parse_spec_document(read_text(path), path)


def record_lookup(records: list[ApiRecord]) -> dict[str, ApiRecord]:
    return {r.id: r for r in records}

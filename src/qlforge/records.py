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
from json.encoder import encode_basestring
from typing import Iterable

from .artifacts import Document, JsonDataclass
from .errors import UnknownApiId

logger = logging.getLogger(__name__)

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
class ApiRecord(JsonDataclass):
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

    @cached_property
    def pairing_text(self) -> str:
        """The record as one line of compact JSON without its snippet, the form pairing lists.

        Keys, in order: ``id`` (first, so a prompt can splice in a handle),
        ``package``, ``type``, ``method``, ``params`` (each ``"<type> <name>"``),
        ``returns``, ``annotations`` (only when there are any) and ``at``
        (``"<file>:<line>"``), with no space after a ``:`` or ``,``. Every
        field can be read back: a parameter splits on its last space (a name
        is a Java identifier, so it holds none), ``at`` on its last colon,
        and ``package`` and ``type`` stay apart because a nested type name
        holds dots.

        Classification has judged the snippet by the time pairing runs, so
        a pairing prompt lists sources and sinks by this line. The text is
        not ASCII-escaped; a record holding a lone surrogate yields a string
        that cannot be encoded as UTF-8.
        """
        return self._line_without_snippet()

    @cached_property
    def prompt_text(self) -> str:
        """The record as one line of compact JSON, the form classification and rule writing embed.

        :attr:`pairing_text` with a last key, ``snippet``, spliced in before
        its closing brace: the same bytes ``json.dumps`` gives the whole
        mapping with ``separators=(",", ":")``. Built on first use and kept
        on the instance, so classification (cost estimate and rendered
        prompt) and rule writing reuse one string.
        """
        # Built afresh rather than from pairing_text, so the thousands of
        # records that are never paired do not keep a second line.
        return f'{self._line_without_snippet()[:-1]},"snippet":{encode_basestring(self.snippet)}}}'

    def _line_without_snippet(self) -> str:
        line = {
            "id": self.id,
            "package": self.package,
            "type": self.type_name,
            "method": self.method,
            "params": [f"{p.type} {p.name}" for p in self.params],
            "returns": self.return_type,
        }
        if self.annotations:
            line["annotations"] = self.annotations
        line["at"] = f"{self.first_seen.file}:{self.first_seen.line}"
        return json.dumps(line, ensure_ascii=False, separators=(",", ":"))

    @property
    def signature(self) -> str:
        """The qualified signature, ``<package>.<type>.<method>(<param types>) -> <return type>``.

        An empty package or type is left out with its dot. Parameter names,
        annotations, snippet and location are not part of it.
        """
        qualified = ".".join(part for part in (self.package, self.type_name, self.method) if part)
        return f"{qualified}({', '.join(p.type for p in self.params)}) -> {self.return_type}"


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


def snippet_at(lines: list[str], line: int) -> str:
    """Lines line-10 .. line+9 (1-based) of ``lines``, as ``clamp_snippet`` would give them.

    The slice is joined once. ``clamp_snippet`` would split it again and
    drop a last empty line; here that line is dropped before the join.
    ``make_record`` then clamps the result as it does every snippet.
    """
    window = lines[max(0, line - 11) : line + 9]
    if window and not window[-1]:
        window.pop()
    return "\n".join(window)[:SNIPPET_MAX_CHARS]


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


def encodable_only(records: list[ApiRecord]) -> list[ApiRecord]:
    """``records`` less those whose text cannot be encoded as UTF-8.

    A record holding, say, a lone surrogate in its snippet (from a
    ``\\ud800`` escape in an analyzer's output) is dropped with a warning
    rather than poisoning the spec document, the prompts and the transcript.
    """
    kept = []
    for record in records:
        try:
            record.prompt_text.encode("utf-8")
        except UnicodeEncodeError:
            logger.warning("dropping record %s: snippet not encodable as UTF-8", record.id)
        else:
            kept.append(record)
    return kept


SPECS = Document(1, "apis", ApiRecord)
save_spec_document = SPECS.save  # the name the pipeline calls, so a traced run times it


def record_lookup(records: list[ApiRecord]) -> dict[str, ApiRecord]:
    return {r.id: r for r in records}


def records_for(ids: Iterable[str], records_by_id: dict[str, ApiRecord], where: str) -> list[ApiRecord]:
    """The records of ``ids``, in order.

    An id missing from ``records_by_id`` raises :class:`UnknownApiId`, naming ``where``.
    """
    try:
        return [records_by_id[rid] for rid in ids]
    except KeyError as exc:
        raise UnknownApiId(f"{where} references unknown api id {exc.args[0]}") from None

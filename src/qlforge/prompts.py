"""Prompt template assets and strict placeholder rendering."""

from __future__ import annotations

import re
from functools import lru_cache
from importlib import resources
from json.encoder import encode_basestring
from typing import Iterable, Sequence

from .errors import TemplateError
from .records import ApiRecord

_PLACEHOLDER_RE = re.compile(r"\{([A-Z][A-Z0-9_]*)\}")


@lru_cache(maxsize=None)
def load_template(name: str) -> str:
    return (resources.files("qlforge") / "templates" / name).read_text(encoding="utf-8")


def render_template(template: str, values: dict[str, str]) -> str:
    """Fill ``{NAME}`` placeholders; a placeholder with no value is an error.

    Substituted values are inserted verbatim and never rescanned, so content
    containing brace sequences cannot trigger a second expansion.
    """
    missing = [name for name in _PLACEHOLDER_RE.findall(template) if name not in values]
    if missing:
        raise TemplateError(f"unfilled template placeholders: {', '.join(sorted(set(missing)))}")

    def _sub(match: re.Match) -> str:
        return values[match.group(1)]

    return _PLACEHOLDER_RE.sub(_sub, template)


# A model may format an answer line as Markdown: a list item, begun by a
# bullet or an ordered-list marker ("1." or "1)"), with bold, underline or
# code marks anywhere in it. The response parsers drop the marks (see
# without_emphasis) and skip the marker with this pattern, so
# "1. **3**: `Sink`" reads as "3: Sink".
LIST_ITEM = r"(?:[-*+]\s*|\d+[.)]\s+)?"
_EMPHASIS_RE = re.compile(r"\*\*|__|`")


def without_emphasis(line: str) -> str:
    """``line`` without its Markdown bold, underline and code marks."""
    return _EMPHASIS_RE.sub("", line)


# Every line of an ApiRecord (``prompt_text``, ``pairing_text``) begins with
# this, then the id as JSON.
_ID_KEY = '{"id":'


def handles(prefix: str, count: int) -> list[str]:
    """The short names of ``count`` records listed in one prompt: ``prefix`` + 1..count.

    Prompts that list records for the model to name back (classify and
    pairing) show each record under its handle instead of its 16-hex id, so
    every answer line costs a few completion tokens instead of about a dozen.
    Classify's prefix is empty, so a member's handle is its line number;
    pairing's tell its sources, sinks and sanitizers apart.
    """
    return [f"{prefix}{number}" for number in range(1, count + 1)]


def with_handle(record: ApiRecord, handle: str, line: str | None = None) -> str:
    """``line`` with its ``"id"`` value replaced by ``handle``.

    ``line`` is one of ``record``'s JSON lines, by default
    ``record.prompt_text``. The result is spliced from the cached text
    rather than serialized again; the id is skipped by its JSON-encoded
    length, so an id that needs escaping splices correctly too.
    """
    if line is None:
        line = record.prompt_text
    # encode_basestring is the string encoder of json.dumps(ensure_ascii=False),
    # which wrote the line, without the cost of building an encoder per call.
    skip = len(_ID_KEY) + len(encode_basestring(record.id))
    return f"{_ID_KEY}{encode_basestring(handle)}{line[skip:]}"


def handle_names(ids: Sequence[str], prefix: str) -> dict[str, str]:
    """Map every name a response may give ``ids[i]`` back to that id.

    A record is named by its handle (see :func:`handles`) or by its full id.
    Handles are entered last, so a handle that equals another record's full
    id names the handle's record.
    """
    names = {rid: rid for rid in ids}
    names.update(zip(handles(prefix, len(ids)), ids))
    return names


def pack_greedy(order: Iterable[str], costs: dict[str, int], room: int) -> list[list[str]]:
    """Split ``order`` into consecutive groups whose summed costs fit ``room``.

    A group closes as soon as the next member would overflow it, so a member
    that alone costs more than ``room`` still gets a group of its own; the
    callers reject such members before packing.
    """
    groups: list[list[str]] = []
    current: list[str] = []
    used = 0
    for rid in order:
        if current and used + costs[rid] > room:
            groups.append(current)
            current = []
            used = 0
        current.append(rid)
        used += costs[rid]
    if current:
        groups.append(current)
    return groups

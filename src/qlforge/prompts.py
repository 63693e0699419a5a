"""Prompt template assets and strict placeholder rendering."""

from __future__ import annotations

import json
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


# Every ``ApiRecord.prompt_text`` begins with this, then the id as JSON.
_ID_KEY = '{"id": '


def handles(prefix: str, count: int) -> list[str]:
    """The short names of ``count`` records listed in one prompt: ``prefix`` + 1..count.

    Prompts that list records for the model to name back (classify and
    pairing) show each record under its handle instead of its 16-hex id, so
    every answer line costs a few completion tokens instead of about a dozen.
    """
    return [f"{prefix}{number}" for number in range(1, count + 1)]


def with_handle(record: ApiRecord, handle: str) -> str:
    """``record.prompt_text`` with its ``"id"`` value replaced by ``handle``.

    The line is spliced from the cached text rather than serialized again;
    the id is skipped by its JSON-encoded length, so an id that needs
    escaping splices correctly too.
    """
    # encode_basestring is the string encoder of json.dumps(ensure_ascii=False),
    # which wrote prompt_text, without the cost of building an encoder per call.
    skip = len(_ID_KEY) + len(encode_basestring(record.id))
    return f"{_ID_KEY}{encode_basestring(handle)}{record.prompt_text[skip:]}"


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


def load_catalog() -> dict:
    """Load the classification criteria catalog, checking its shape.

    The catalog is an editable asset; the counts (9 sink characteristics,
    8 source heuristics, 3 sanitizer criteria) are part of the prompt
    contract, so drift fails loudly here.
    """
    catalog = json.loads(load_template("classify_catalog.json"))
    expected = {"sink_characteristics": 9, "source_heuristics": 8, "sanitizer_criteria": 3}
    for key, count in expected.items():
        got = len(catalog.get(key, ()))
        if got != count:
            raise TemplateError(f"catalog {key}: expected {count} entries, found {got}")
    return catalog

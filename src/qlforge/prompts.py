"""Prompt template assets and strict placeholder rendering."""

from __future__ import annotations

import json
import re
from functools import lru_cache
from importlib import resources
from typing import Iterable

from .errors import TemplateError

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

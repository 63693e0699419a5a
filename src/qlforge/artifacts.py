"""Reading the versioned JSON documents a run leaves on disk.

Every way such a document can be unreadable (text that is not JSON, a JSON
value that is not an object, a foreign version, an entry of the wrong shape)
raises :class:`ArtifactCorrupt` naming the file, so a resumed run exits with
the documented code instead of a traceback.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator, TypeVar

from .errors import ArtifactCorrupt

T = TypeVar("T")


def parse_json_object(text: str, source: str | Path) -> dict:
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise ArtifactCorrupt(f"{source}: not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ArtifactCorrupt(f"{source}: expected a JSON object")
    return doc


def read_json(path: str | Path) -> dict:
    return parse_json_object(Path(path).read_text(encoding="utf-8"), path)


def check_version(doc: dict, source: str | Path, version: int) -> None:
    if doc.get("version") != version:
        raise ArtifactCorrupt(f"{source}: unsupported document version: {doc.get('version')!r}")


def parse_entries(
    text: str, source: str | Path, version: int, key: str, from_dict: Callable[[dict], T]
) -> list[T]:
    """The entries under ``key`` of a ``{"version": version, key: [...]}`` document."""
    doc = parse_json_object(text, source)
    check_version(doc, source, version)
    with shape_checked(source, key):
        return [from_dict(entry) for entry in doc[key]]


@contextmanager
def shape_checked(source: str | Path, key: str) -> Iterator[None]:
    """Turn the errors of reading a document of the wrong shape into :class:`ArtifactCorrupt`.

    Wrap only code that reads an already parsed document: an
    ``ArtifactCorrupt`` raised inside would be reported again as a shape error.
    """
    try:
        yield
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ArtifactCorrupt(f"{source}: malformed {key!r} entry: {exc!r}") from None

"""Writing and reading the files a run leaves on disk.

Every write goes through :func:`write_text`, which writes a temporary file
next to the target and renames it into place, so a killed run leaves either
the previous file or the new one, never half of one. A write that fails
raises :class:`UnwritableOutput` naming the file.

Every way a document can be unreadable (a missing file, bytes that are not
UTF-8, text that is not JSON, a JSON value that is not an object, a foreign
version, an entry of the wrong shape) raises :class:`ArtifactCorrupt` naming
the file, so a resumed run exits with the documented code instead of a
traceback.
"""

from __future__ import annotations

import json
import os
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator, TypeVar

from .errors import ArtifactCorrupt, ConfigError, UnwritableOutput

T = TypeVar("T")


def dump_json(doc) -> str:
    """The text every JSON document of a run is written as."""
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def write_text(path: str | Path, text: str) -> None:
    """Replace ``path`` with ``text`` (UTF-8) in one rename."""
    path = Path(path)
    # One name per writing thread, so two writers never share a temporary file.
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except (OSError, UnicodeError) as exc:
        tmp.unlink(missing_ok=True)
        raise UnwritableOutput(f"cannot write {path}: {exc}") from exc


def read_text(path: str | Path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ArtifactCorrupt(f"{path}: cannot read: {reason}") from None


def parse_json_object(text: str, source: str | Path) -> dict:
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise ArtifactCorrupt(f"{source}: not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ArtifactCorrupt(f"{source}: expected a JSON object")
    return doc


def read_json(path: str | Path) -> dict:
    return parse_json_object(read_text(path), path)


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


@contextmanager
def config_input() -> Iterator[None]:
    """Report an unreadable input file named by the configuration as a :class:`ConfigError`."""
    try:
        yield
    except ArtifactCorrupt as exc:
        raise ConfigError(str(exc)) from None

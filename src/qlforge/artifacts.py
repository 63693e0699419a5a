"""Writing and reading the files a run leaves on disk.

Every write goes through :func:`write_text` or :func:`write_json`, which
write a temporary file next to the target and rename it into place, so a
killed run leaves either the previous file or the new one, never half of
one. A write that fails raises :class:`UnwritableOutput` naming the file.

Every way a document can be unreadable (a missing file, bytes that are not
UTF-8, text that is not JSON, a JSON value that is not an object, a foreign
version, an entry of the wrong shape or a field of the wrong type) raises
:class:`ArtifactCorrupt` naming the file, so a resumed run exits with the
documented code instead of a traceback.

Every document entry is a dataclass deriving from :class:`JsonDataclass`.
Its JSON form is ``dataclasses.asdict`` of it: the keys are the field names
in field order. ``from_dict`` is built once per class from the fields'
annotations and checks every value's type. A stage document
(``{"version": N, "<key>": [...]}``) is a :class:`Document`, written entry
by entry from the same annotations as ``json.dumps`` would write its dicts.
"""

from __future__ import annotations

import json
import logging
import os
import re
import threading
import types
from contextlib import contextmanager
from dataclasses import MISSING, asdict, fields, is_dataclass
from enum import Enum
from functools import cache, partial
from json.encoder import encode_basestring
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterator, TextIO, TypeVar, Union, get_args, get_origin, get_type_hints

from .errors import ArtifactCorrupt, ConfigError, UnwritableOutput

logger = logging.getLogger(__name__)

T = TypeVar("T")

# The only characters of a str that UTF-8 cannot encode.
_SURROGATE = re.compile(r"[\ud800-\udfff]")


def dump_json(doc) -> str:
    """The text every JSON document of a run is written as."""
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def write_text(path: str | Path, text: str) -> None:
    """Replace ``path`` with ``text`` (UTF-8) in one rename."""
    with _replaced(path) as fh:
        fh.write(text)


def write_json(path: str | Path, doc) -> None:
    """Replace ``path`` with :func:`dump_json`'s text for a small ``doc``; see :class:`Document`."""
    write_text(path, dump_json(doc))


@contextmanager
def _replaced(path: str | Path) -> Iterator[TextIO]:
    """A text file to write that replaces ``path`` in one rename on success.

    On any failure the temporary file is removed and ``path`` keeps its old
    content; an ``OSError`` or ``UnicodeError`` is raised as
    :class:`UnwritableOutput` naming the file.
    """
    path = Path(path)
    # One name per writing thread, so two writers never share a temporary file.
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        # The stream may fail partway (say, a lone surrogate deep in a
        # document), so the temporary file goes whatever the error.
        tmp.unlink(missing_ok=True)
        if isinstance(exc, (OSError, UnicodeError)):
            raise UnwritableOutput(f"cannot write {path}: {exc}") from exc
        raise


def read_text(path: str | Path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ArtifactCorrupt(f"{path}: cannot read: {reason}") from None


def parse_json_object(text: str, source: str | Path) -> dict:
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
        raise ArtifactCorrupt(f"{source}: not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ArtifactCorrupt(f"{source}: expected a JSON object")
    return doc


def read_json(path: str | Path) -> dict:
    return parse_json_object(read_text(path), path)


def without_surrogates(value):
    """``value``, a JSON value, with each lone surrogate in its strings and keys replaced by U+FFFD.

    A ``\\ud800`` escape in outside JSON parses to a str that UTF-8 cannot
    encode, so no artifact or transcript holding it could be written.
    """
    if isinstance(value, str):
        return _SURROGATE.sub("\ufffd", value)
    if isinstance(value, list):
        return [without_surrogates(item) for item in value]
    if isinstance(value, dict):
        return {without_surrogates(key): without_surrogates(item) for key, item in value.items()}
    return value


def check_version(doc: dict, source: str | Path, version: int) -> None:
    if doc.get("version") != version:
        raise ArtifactCorrupt(f"{source}: unsupported document version: {doc.get('version')!r}")


def last_transcript_seq(path: str | Path) -> int:
    """The highest ``seq`` of the transcript at ``path``, a file of JSON lines.

    A final line with no newline is an append cut short by a killed run; it
    is cut from the file with a warning. Any other line that is not an object
    with an integer ``seq`` raises :class:`ArtifactCorrupt`.
    """
    data = Path(path).read_bytes()
    torn = data.rpartition(b"\n")[2]
    if torn:
        logger.warning("%s: dropping torn final line (%d bytes)", path, len(torn))
        data = data[: len(data) - len(torn)]
        os.truncate(path, len(data))
    seq = 0
    for number, line in enumerate(data.splitlines(), 1):
        if line.strip():
            try:
                seq = max(seq, typed(json.loads(line).get("seq", 0), int, "seq"))
            except (ValueError, AttributeError, TypeError, RecursionError):
                raise ArtifactCorrupt(f"{path}: line {number} is not a transcript entry") from None
    return seq


def typed(value: T, kind: type, name: str) -> T:
    """``value`` if it is a ``kind``, else a ``TypeError`` naming the field ``name``.

    A boolean is no integer here, though Python's ``bool`` subclasses
    ``int``. Inside :func:`shape_checked` the error becomes
    :class:`ArtifactCorrupt` naming the file.
    """
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise TypeError(f"{name} must be {kind.__name__}, not {type(value).__name__}")
    return value


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


def known_keys_only(data: dict, known) -> None:
    """A ``TypeError`` naming every key of ``data`` that is not in ``known``."""
    unknown = sorted(map(str, data.keys() - known))
    if unknown:
        raise TypeError(f"unknown key(s): {', '.join(unknown)}")


class JsonDataclass:
    """Base of the dataclasses a run reads back from JSON.

    A run writes an instance as ``dataclasses.asdict`` gives it: one key per
    field, in field order (``json`` writes a str-valued ``Enum`` as its value
    and a tuple as a list). ``from_dict`` reverses that: a missing key takes
    the field's default, an unknown key is ignored, and a missing key with
    no default or a value of the wrong type is a ``TypeError`` naming the
    field, which :func:`shape_checked` reports as :class:`ArtifactCorrupt`.
    A class declared with ``rejects_unknown_keys=True`` (a hand-written
    input, where an unknown key is a typo) also raises one naming that key.
    """

    __slots__ = ()

    def __init_subclass__(cls, rejects_unknown_keys: bool = False, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.rejects_unknown_keys = rejects_unknown_keys

    @classmethod
    def from_dict(cls: type[T], data: dict) -> T:
        return _decoder(cls)(data)


@cache
def _decoder(cls: type) -> Callable[[object], object]:
    """The decoder of dataclass ``cls``; an annotation it cannot handle raises."""
    hints = get_type_hints(cls)
    plan = [
        (f.name, _decode(hints[f.name], f.name),
         f.default is MISSING and f.default_factory is MISSING)
        for f in fields(cls)
    ]
    known = {name for name, _, _ in plan} if getattr(cls, "rejects_unknown_keys", False) else None

    def decode(data):
        typed(data, dict, cls.__name__)
        if known is not None:
            known_keys_only(data, known)
        kwargs = {}
        for name, dec, required in plan:
            if name in data:
                kwargs[name] = dec(data[name])
            elif required:
                raise TypeError(f"{name} is missing")
        return cls(**kwargs)

    return decode


def _decode(kind, name: str) -> Callable:
    """The decoder of one field annotation."""
    origin, args = get_origin(kind), get_args(kind)
    if kind in (str, int, bool):
        return lambda value: typed(value, kind, name)
    if kind is float:

        def decode_float(value) -> float:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise TypeError(f"{name} must be float, not {type(value).__name__}")
            return float(value)

        return decode_float
    if isinstance(kind, type) and issubclass(kind, str) and issubclass(kind, Enum):
        return lambda value: kind(typed(value, str, name))
    if is_dataclass(kind):
        return _decoder(kind)
    if origin is tuple and len(args) == 2 and args[1] is Ellipsis:
        dec = _decode(args[0], f"{name} item")
        return lambda items: tuple(dec(item) for item in typed(items, list, name))
    if _optional(kind):
        dec = _decode(_optional(kind), name)
        return lambda value: None if value is None else dec(value)
    if kind is dict:
        return lambda value: dict(typed(value, dict, name))
    if origin is dict and args[0] is str:
        dec = _decode(args[1], f"{name} value")

        def decode_dict(value) -> dict:
            decoded = {}
            for key, item in typed(value, dict, name).items():
                try:
                    decoded[typed(key, str, f"{name} key")] = dec(item)
                except (KeyError, TypeError, ValueError) as exc:
                    raise TypeError(f"{name}[{key!r}]: {exc}") from None
            return decoded

        return decode_dict
    raise TypeError(f"no JSON decoder for field {name!r} of type {kind!r}")


def _optional(kind):
    """``X`` of an ``X | None`` annotation, else None."""
    args = get_args(kind)
    if get_origin(kind) in (Union, types.UnionType) and len(args) == 2 and type(None) in args:
        return args[0] if args[1] is type(None) else args[1]
    return None


class Document:
    """A stage document: ``{"version": version, key: [entry, ...]}`` of ``entry_class``.

    ``arrange`` maps the entries given to the list written (a sort). The
    text is ``json.dumps(doc, indent=2, ensure_ascii=False)`` plus a
    newline, each entry being ``dataclasses.asdict`` of it, but it is built
    entry by entry by the entry class's writer, so no dict of the document
    exists and :meth:`save` streams.
    """

    def __init__(self, version: int, key: str, entry_class: type, arrange: Callable = list):
        self.version, self.key, self.entry_class, self.arrange = version, key, entry_class, arrange

    def _chunks(self, entries: list) -> Iterator[str]:
        write = _writer(self.entry_class, 2)
        yield '{\n  "version": %d,\n  %s: [' % (self.version, encode_basestring(self.key))
        sep, close = "\n    ", "]\n}\n"
        for entry in self.arrange(entries):
            yield sep + write(entry)
            sep, close = ",\n    ", "\n  ]\n}\n"
        yield close

    def dump(self, entries: list) -> str:
        return "".join(self._chunks(entries))

    def save(self, entries: list, path: str | Path) -> None:
        with _replaced(path) as fh:
            fh.writelines(self._chunks(entries))

    def parse(self, text: str, source: str | Path = "document") -> list:
        doc = parse_json_object(text, source)
        check_version(doc, source, self.version)
        with shape_checked(source, self.key):
            return [self.entry_class.from_dict(entry) for entry in doc[self.key]]

    def load(self, path: str | Path) -> list:
        return self.parse(read_text(path), path)


# How each kind of token is spelled; ``json.dumps`` names NaN and the infinities.
_TOKENS = {int: int.__repr__, bool: {True: "true", False: "false"}.__getitem__, float: json.dumps}


def _speller(kind, depth: int) -> Callable[[object], str]:
    """The ``indent=2`` text of a value of annotation ``kind`` whose line is at ``depth``."""
    args = get_args(kind)
    if _optional(kind):
        spell = _speller(_optional(kind), depth)
        return lambda value: "null" if value is None else spell(value)
    if isinstance(kind, type) and issubclass(kind, str):
        return encode_basestring  # json's C escaper; a str Enum's text is its value
    if kind in _TOKENS:
        return _TOKENS[kind]
    if is_dataclass(kind):
        return _writer(kind, depth)
    if get_origin(kind) is tuple and len(args) == 2 and args[1] is Ellipsis:
        item, pad = _speller(args[0], depth + 1), "\n" + "  " * (depth + 1)
        sep, close = "," + pad, "\n" + "  " * depth + "]"
        return lambda items: "[" + pad + sep.join(map(item, items)) + close if items else "[]"
    indent = "\n" + "  " * depth
    # ``default=asdict`` writes the dataclass values of a ``dict[str, X]`` field.
    dumps = partial(json.dumps, indent=2, ensure_ascii=False, default=asdict)
    return lambda value: dumps(value).replace("\n", indent)


def _template(cls: type, depth: int, prefix: str, slots: list) -> str:
    """The ``%`` template of a ``cls`` instance at ``depth``; appends each slot's (path, speller).

    A field holding a dataclass (not ``None``) always has the same keys, so
    its template is inlined and its fields are read by dotted path.
    """
    hints = get_type_hints(cls)
    items = []
    for f in fields(cls):
        if is_dataclass(hints[f.name]):
            slot = _template(hints[f.name], depth + 1, f"{prefix}{f.name}.", slots)
        else:
            slots.append((prefix + f.name, _speller(hints[f.name], depth + 1)))
            slot = "%s"
        items.append(f"{encode_basestring(f.name)}: {slot}")
    pad = "\n" + "  " * (depth + 1)
    return "{" + pad + ("," + pad).join(items) + "\n" + "  " * depth + "}" if items else "{}"


@cache
def _writer(cls: type, depth: int) -> Callable[[object], str]:
    """The ``indent=2`` text of a dataclass ``cls`` instance whose opening line is at ``depth``.

    Built on first use, once per class and depth: one ``%`` template holds
    every key and line break, and each slot is filled by the speller of its
    field's annotation. No dict of the instance is built.
    """
    slots: list[tuple[str, Callable[[object], str]]] = []
    template = _template(cls, depth, "", slots)
    paths, spellers = zip(*slots)
    # attrgetter of one name returns the value itself, not a 1-tuple.
    values = attrgetter(*paths) if len(paths) > 1 else lambda obj: (attrgetter(*paths)(obj),)
    return lambda obj: template % tuple([spell(v) for spell, v in zip(spellers, values(obj))])

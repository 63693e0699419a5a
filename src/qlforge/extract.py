"""Call-site extraction: analyzer backends, risk filtering, deduplication.

Two backends satisfy the same contract: the built-in fixture backend (a
line-pattern scanner for a small Java-style corpus, so the whole pipeline
runs with no external toolchain) and the CodeQL process adapter in
:mod:`qlforge.codeql`. Backend output for an unchanged project is
byte-identical across runs.
"""

from __future__ import annotations

import logging
import os
import re
import stat
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol

from .artifacts import JsonDataclass
from .errors import ConfigError
from .records import ApiParam, ApiRecord, SourceLocation, make_record, snippet_at

logger = logging.getLogger(__name__)

# Types that resolve without an import in Java source.
JAVA_LANG_TYPES = frozenset(
    {
        "String", "StringBuilder", "StringBuffer", "Object", "Integer", "Long",
        "Short", "Byte", "Boolean", "Double", "Float", "Character", "Math",
        "System", "Thread", "Runtime", "Process", "Class", "Exception",
        "RuntimeException", "Throwable", "Iterable", "Comparable",
    }
)

_PACKAGE_RE = re.compile(r"^\s*package\s+([\w.]+)\s*;")
_IMPORT_RE = re.compile(r"^\s*import\s+(?:static\s+)?([\w.]+)\s*;")
_ANNOTATION_RE = re.compile(r"^\s*@(\w+)")
_CLASS_RE = re.compile(r"^\s*(?:public\s+|final\s+|abstract\s+)*(?:class|interface|enum)\s+(\w+)")
_METHOD_DECL_RE = re.compile(
    r"^\s*(?:public|private|protected)\s[\w<>\[\],\s]*?(\w+)\s*\(([^)]*)\)"
)
_VAR_DECL_RE = re.compile(r"(?:^|[(,;]\s*|\s)(?:final\s+)?([A-Z]\w*(?:<[\w<>,\s]*>)?(?:\[\])?)\s+([a-z]\w*)\s*(?=[=;,)])")
_CALL_RE = re.compile(r"\b([A-Za-z_]\w*)\s*\.\s*([a-z]\w*)\s*\(")
_ASSIGN_PREFIX_RE = re.compile(r"([A-Z]\w*(?:<[\w<>,\s]*>)?(?:\[\])?)\s+[a-z]\w*\s*=\s*$")

_GENERICS_RE = re.compile(r"<.*>")
_INT_RE = re.compile(r"-?\d+")
_DOUBLE_RE = re.compile(r"-?\d+\.\d+")
_LEADING_NAME_RE = re.compile(r"([a-z]\w*)\b")

_KEYWORD_RECEIVERS = frozenset({"this", "super", "new", "return", "if", "while", "for", "switch"})


def _strip_generics(type_name: str) -> str:
    return _GENERICS_RE.sub("", type_name).strip()


def _split_args(text: str) -> list[str]:
    """Split a parenthesized argument list at top-level commas.

    ``text`` starts just after the opening paren; scanning stops at the
    matching close paren (or end of line for unbalanced input).
    """
    args: list[str] = []
    depth = 0
    in_str = False
    current = []
    for ch in text:
        if in_str:
            current.append(ch)
            if ch == '"':
                in_str = False
            continue
        if ch == '"':
            in_str = True
            current.append(ch)
        elif ch == "(":
            depth += 1
            current.append(ch)
        elif ch == ")":
            if depth == 0:
                break
            depth -= 1
            current.append(ch)
        elif ch == "," and depth == 0:
            args.append("".join(current).strip())
            current = []
        else:
            current.append(ch)
    tail = "".join(current).strip()
    if tail:
        args.append(tail)
    return [a for a in args if a]


def _infer_arg_type(arg: str, var_types: dict[str, str]) -> str:
    arg = arg.strip()
    if not arg:
        return "unknown"
    if arg.startswith('"'):
        return "String"
    if _INT_RE.fullmatch(arg):
        return "int"
    if _DOUBLE_RE.fullmatch(arg):
        return "double"
    if arg in ("true", "false"):
        return "boolean"
    m = _LEADING_NAME_RE.match(arg)
    if m and m.group(1) in var_types:
        return var_types[m.group(1)]
    return "unknown"


class AnalyzerBackend(Protocol):
    """Contract every extraction backend satisfies.

    ``enumerate_calls`` returns every API invocation found under the project
    root as raw (possibly duplicated) records, in a deterministic order.
    """

    def enumerate_calls(self, project_root: Path) -> list[ApiRecord]: ...


class FixtureBackend:
    """Line-pattern call-site scanner for the Java-style fixture grammar.

    Per file it tracks the package declaration, imports, declared variable
    types, and the annotations on the enclosing method, then records every
    ``receiver.method(args)`` invocation. Receiver and argument types resolve
    against in-file declarations; the callee package resolves against imports
    (with a ``java.lang`` builtin table). Anything unresolvable is recorded
    as ``"unknown"`` rather than guessed.
    """

    def enumerate_calls(self, project_root: Path) -> list[ApiRecord]:
        root = os.fspath(project_root)
        rels: list[str] = []
        # Hidden directories are walked, symlinked ones are not entered, and
        # a directory named *.java is walked, never read as a file.
        for dirpath, _dirnames, filenames in os.walk(root):
            sub = dirpath[len(root):].lstrip(os.sep)
            prefix = sub.replace(os.sep, "/") + "/" if sub else ""
            rels.extend(prefix + name for name in filenames if name.endswith(".java"))
        rels.sort()
        records: list[ApiRecord] = []
        for rel in rels:
            records.extend(self._scan_file(os.path.join(root, rel), rel))
        return records

    def _scan_file(self, path: str, rel: str) -> list[ApiRecord]:
        try:
            # O_NONBLOCK: opening a FIFO for reading would wait for a writer.
            with open(os.open(path, os.O_RDONLY | getattr(os, "O_NONBLOCK", 0)), "rb") as fh:
                if not stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                    raise OSError("not a regular file")
                data = fh.read()
        except OSError as exc:
            # A dangling link, an unreadable file, a FIFO or a device is skipped, not fatal.
            logger.warning("%s cannot be read (%s); skipping it", rel, exc.strerror or exc)
            return []
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            # One legacy-encoded file should not stop a whole-project run.
            logger.warning(
                "%s is not UTF-8 (byte 0x%02x at offset %d); reading it with "
                "undecodable bytes replaced", rel, exc.object[exc.start], exc.start,
            )
            text = data.decode("utf-8", errors="replace")
        lines = text.splitlines()
        package = ""
        imports: dict[str, str] = {}
        var_types: dict[str, str] = {}
        pending_annotations: list[str] = []
        method_annotations: tuple[str, ...] = ()
        records: list[ApiRecord] = []

        for lineno, line in enumerate(lines, start=1):
            # Each anchored pattern needs its keyword or symbol on the line,
            # so a substring test rules most lines out before any match.
            if "package" in line and (m := _PACKAGE_RE.match(line)):
                package = m.group(1)
                continue
            if "import" in line and (m := _IMPORT_RE.match(line)):
                qualified = m.group(1)
                simple = qualified.rsplit(".", 1)[-1]
                imports[simple] = qualified.rsplit(".", 1)[0] if "." in qualified else ""
                continue
            if "@" in line and (m := _ANNOTATION_RE.match(line)):
                pending_annotations.append(m.group(1))
                continue
            has_paren = "(" in line
            if _CLASS_RE.match(line):
                pending_annotations = []
            elif has_paren and _METHOD_DECL_RE.match(line):
                method_annotations = tuple(pending_annotations)
                pending_annotations = []

            for tm in _VAR_DECL_RE.finditer(line):
                var_types[tm.group(2)] = _strip_generics(tm.group(1))

            if not has_paren:
                continue
            snippet = None
            for cm in _CALL_RE.finditer(line):
                receiver, method = cm.group(1), cm.group(2)
                if receiver in _KEYWORD_RECEIVERS:
                    continue
                if snippet is None:
                    snippet = snippet_at(lines, lineno)
                args = _split_args(line[cm.end():])
                records.append(
                    make_record(
                        package=self._callee_package(receiver, var_types, imports, package),
                        type_name=self._receiver_type(receiver, var_types),
                        method=method,
                        params=[
                            ApiParam(f"arg{i}", _infer_arg_type(a, var_types))
                            for i, a in enumerate(args)
                        ],
                        return_type=self._return_type(line[: cm.start()]),
                        annotations=list(method_annotations),
                        snippet=snippet,
                        first_seen=SourceLocation(rel, lineno),
                    )
                )
        return records

    @staticmethod
    def _receiver_type(receiver: str, var_types: dict[str, str]) -> str:
        if receiver in var_types:
            return var_types[receiver]
        if receiver[0].isupper():
            return receiver
        return "unknown"

    def _callee_package(
        self,
        receiver: str,
        var_types: dict[str, str],
        imports: dict[str, str],
        file_package: str,
    ) -> str:
        type_name = self._receiver_type(receiver, var_types)
        if type_name in imports:
            return imports[type_name]
        if type_name in JAVA_LANG_TYPES:
            return "java.lang"
        if type_name == "unknown":
            return "unknown"
        return file_package

    @staticmethod
    def _return_type(prefix: str) -> str:
        m = _ASSIGN_PREFIX_RE.search(prefix)
        if m:
            return _strip_generics(m.group(1))
        return "unknown"


# Deny methods that are overwhelmingly plumbing: bean accessors, identity
# helpers, logging, and collection accessors. The allow list punches holes
# for the classic request/environment entry points, which would otherwise
# fall to the getter pattern.
DEFAULT_DENY_PATTERNS = (
    r"^get([A-Z_].*)?$",
    r"^set([A-Z_].*)?$",
    r"^is[A-Z_].*$",
    r"^toString$",
    r"^hashCode$",
    r"^equals$",
    r"^(log|info|debug|warn|warning|error|trace|fatal|print|println)$",
    r"^(size|isEmpty|iterator|contains|indexOf|stream|length|keySet|entrySet|values)$",
)

DEFAULT_ALLOW_PATTERNS = (
    r"^getParameter",
    r"^getHeader",
    r"^getCookies?$",
    r"^getInputStream$",
    r"^getReader$",
    r"^getQueryString$",
    r"^getRequestURI$",
    r"^getSubmittedFileName$",
    r"^getPart",
    r"^getRemote",
    r"^getenv$",
    r"^getProperty$",
)


def _compile_patterns(key: str, patterns: tuple[str, ...]) -> list[re.Pattern]:
    compiled = []
    for pattern in patterns:
        try:
            compiled.append(re.compile(pattern))
        except (re.error, OverflowError, RecursionError) as exc:
            raise ConfigError(f"config key filters.{key}: bad pattern {pattern!r}: {exc}") from None
    return compiled


@dataclass
class FilterConfig(JsonDataclass):
    """Deny/allow method-name patterns for the risk filter.

    The patterns are compiled into ``compiled`` (deny, allow) when the
    config is built, so a bad one is a :class:`ConfigError` naming its key
    before any stage runs.
    """

    deny: tuple[str, ...] = DEFAULT_DENY_PATTERNS
    allow: tuple[str, ...] = DEFAULT_ALLOW_PATTERNS

    def __post_init__(self):
        self.compiled = (
            _compile_patterns("deny", self.deny),
            _compile_patterns("allow", self.allow),
        )


def extract_apis(project_root: str | Path, backend: AnalyzerBackend) -> list[ApiRecord]:
    """Enumerate every API invocation under ``project_root``.

    Returns raw records (duplicates included) in a stable order sorted by id.
    An empty project yields an empty list with a warning, not an error.
    """
    root = Path(project_root)
    records = backend.enumerate_calls(root)
    if not records:
        logger.warning("no API invocations found under %s", root)
        return []
    return sorted(records, key=lambda r: (r.id, r.first_seen.file, r.first_seen.line))


def filter_risky(records: list[ApiRecord], rules: FilterConfig | None = None) -> list[ApiRecord]:
    """Drop records whose method matches a deny pattern, unless allowed.

    A record matching any allow pattern is never removed. Input order is
    preserved.
    """
    rules = rules or FilterConfig()
    deny, allow = rules.compiled
    kept = []
    for record in records:
        if any(p.search(record.method) for p in allow):
            kept.append(record)
        elif not any(p.search(record.method) for p in deny):
            kept.append(record)
    return kept


def dedupe(records: list[ApiRecord]) -> list[ApiRecord]:
    """Keep one record per id, retaining the earliest ``first_seen``.

    Ties break by lexicographic file path then line; output is sorted by id.
    Idempotent.
    """
    best: dict[str, ApiRecord] = {}
    for record in records:
        prior = best.get(record.id)
        if prior is None:
            best[record.id] = record
        elif (record.first_seen.file, record.first_seen.line) < (
            prior.first_seen.file,
            prior.first_seen.line,
        ):
            best[record.id] = record
    return [best[k] for k in sorted(best)]

"""CodeQL-backed extraction backend and rule compiler.

Everything here shells out to the ``codeql`` binary, found once, when the
backend or compiler is built (see ``resolve_binary``). No executable file
there raises BackendUnavailable (extraction) or CompilerUnavailable
(compilation and scanning), and so does a ``codeql`` that cannot start, or
that runs past its timeout while extracting or scanning; a timed-out compile
fails with one diagnostic saying the limit was exceeded. A timeout kills the
whole process group of the ``codeql`` call. A compile returns its diagnostics:
none when the rule compiled, else stderr's lines as codeql printed them,
whatever their form, and nothing parses them. A ``database analyze`` that
runs and fails, or writes SARIF that cannot be read, raises ExecutionFailed
instead, so callers can tell a broken environment from a broken rule. ``codeql``'s output is
decoded as UTF-8, an invalid byte becoming U+FFFD, and each lone surrogate
in its SARIF becomes U+FFFD too.

Scanning runs every compiled rule in one ``codeql database analyze`` call,
so the CLI starts once per scan rather than once per rule. Each rule is
written as ``<pair_id>.ql`` into one workspace, with its query ``@id``
stamped as ``qlforge/<pair_id>`` (rules built from the skeleton all carry
the same ``@id``), and the SARIF results are split back to their pairs by
``ruleId``, or by ``rule.id`` when ``ruleId`` is absent. A result that maps
to no rule in the call is logged and dropped.
"""

from __future__ import annotations

import json
import logging
import os
import re
import shutil
import signal
import subprocess
import tempfile
from pathlib import Path

from .errors import BackendUnavailable, CompilerUnavailable, ExecutionFailed
from .artifacts import typed, without_surrogates
from .records import ApiRecord, SourceLocation, make_record, snippet_at

logger = logging.getLogger(__name__)

ENV_CODEQL = "QLFORGE_CODEQL"
DEFAULT_TIMEOUT_S = 600.0
SCAN_ID_PREFIX = "qlforge/"

_QLPACK_YML = """\
name: qlforge/generated-rule
version: 0.0.0
dependencies:
  codeql/java-all: "*"
"""

# The leading QLDoc block; blank lines and plain comments may precede it.
# Each comment form matches in one way only, so a failed match cannot
# backtrack exponentially.
_COMMENT_BODY = r"(?:[^*]|\*(?!/))*\*/"
_LEADING_QLDOC_RE = re.compile(
    rf"\A(?:\s|//[^\n]*(?=\n|\Z)|/\*(?!\*){_COMMENT_BODY})*(/\*\*{_COMMENT_BODY})"
)
_ID_TAG_RE = re.compile(r"@id(?![\w-])[ \t]*\S*?(?=\*/|\s|$)")


def resolve_binary(explicit: str | None = None) -> str | None:
    """The codeql binary: the first of ``explicit``, $QLFORGE_CODEQL and ``codeql``
    that is set, as ``shutil.which`` finds it; None when that is no executable file."""
    return shutil.which(explicit or os.environ.get(ENV_CODEQL) or "codeql")


class _CodeQLTool:
    """Runs the codeql binary it finds when built; no executable file there is ``unavailable``.

    ``timeout_s`` bounds each ``codeql`` call, ``DEFAULT_TIMEOUT_S`` when unset.
    """

    unavailable: type[Exception]

    def __init__(self, binary: str | None = None, timeout_s: float | None = None):
        self.binary = resolve_binary(binary)
        if self.binary is None:
            wanted = binary or os.environ.get(ENV_CODEQL) or "codeql"
            raise self.unavailable(
                f"codeql binary not found: no executable file {wanted!r};"
                f" set codeql.path or {ENV_CODEQL}"
            )
        self.timeout_s = DEFAULT_TIMEOUT_S if timeout_s is None else timeout_s

    def _run(self, args: list[str], timeout_s: float | None = None) -> subprocess.CompletedProcess:
        """Run codeql with ``args`` in a session of its own, for at most ``timeout_s``
        (``self.timeout_s`` when unset).

        A binary that cannot be started is ``unavailable``. On a timeout, or
        any other exception while waiting, the whole process group is killed
        before the error propagates, so no process codeql started outlives it.
        """
        logger.debug("running: %s %s", self.binary, " ".join(args))
        try:
            proc = subprocess.Popen(
                [self.binary, *args], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                encoding="utf-8", errors="replace", start_new_session=True,
            )
        except OSError as exc:
            raise self.unavailable(f"codeql binary {self.binary} cannot run: {exc}") from exc
        with proc:
            try:
                stdout, stderr = proc.communicate(timeout=timeout_s or self.timeout_s)
            except BaseException:
                if proc.returncode is None:  # not reaped, so its pid still names the group
                    os.killpg(proc.pid, signal.SIGKILL)
                raise
        return subprocess.CompletedProcess(proc.args, proc.returncode, stdout, stderr)


def stamp_rule_id(rule_text: str, rule_id: str) -> str:
    """Set the query ``@id`` of a rule in its leading QLDoc block.

    The first ``@id`` already in that block is replaced and any later one
    removed, a block without one gets one, and a rule with no leading block
    gets a block holding only the id.
    """
    tag = f"@id {rule_id}"
    match = _LEADING_QLDOC_RE.match(rule_text)
    if match is None:
        return f"/**\n * {tag}\n */\n{rule_text}"
    block = match.group(1)
    first = _ID_TAG_RE.search(block)
    if first is None:
        block = f"/**\n * {tag}\n *{block[3:]}"
    else:
        block = block[: first.start()] + tag + _ID_TAG_RE.sub("", block[first.end() :])
    start, end = match.span(1)
    return rule_text[:start] + block + rule_text[end:]


class CodeQLBackend(_CodeQLTool):
    """Extraction backend that builds a database and runs the bundled query."""

    unavailable = BackendUnavailable

    def _codeql(self, *args: str) -> subprocess.CompletedProcess:
        """Run one codeql subcommand; a failure or a timeout is BackendUnavailable."""
        command = " ".join(args[:2])
        try:
            proc = self._run(list(args))
        except subprocess.TimeoutExpired as exc:
            raise BackendUnavailable(f"codeql {command} exceeded {exc.timeout}s") from exc
        if proc.returncode != 0:
            raise BackendUnavailable(f"codeql {command} failed: {proc.stderr.strip()[:500]}")
        return proc

    def enumerate_calls(self, project_root: str | Path) -> list[ApiRecord]:
        project_root = Path(project_root)
        from .prompts import load_template

        with tempfile.TemporaryDirectory(prefix="qlforge-codeql-") as tmp:
            tmp_path = Path(tmp)
            db_dir = tmp_path / "db"
            query = tmp_path / "extract_calls.ql"
            query.write_text(load_template("extract_calls.ql"), encoding="utf-8")
            (tmp_path / "qlpack.yml").write_text(_QLPACK_YML, encoding="utf-8")
            bqrs = tmp_path / "calls.bqrs"

            self._codeql(
                "database", "create", str(db_dir), "--language=java",
                f"--source-root={project_root}", "--overwrite",
            )
            self._codeql("query", "run", str(query), f"--database={db_dir}", f"--output={bqrs}")
            decode = self._codeql("bqrs", "decode", "--format=json", str(bqrs))
            return _rows_to_records(decode.stdout, project_root)


def _rows_to_records(decoded: str, project_root: Path) -> list[ApiRecord]:
    records = []
    lines_by_file: dict[str, list[str]] = {}
    for row in _call_rows(decoded):
        package, type_name, method, params_string, return_type, rel_file, line = row
        if rel_file not in lines_by_file:
            lines_by_file[rel_file] = _source_lines(project_root / rel_file)
        param_types = [
            t.strip() for t in params_string.strip("()").split(",") if t.strip()
        ]
        records.append(
            make_record(
                package=package,
                type_name=type_name,
                method=method,
                params=[(f"arg{i}", t) for i, t in enumerate(param_types)],
                return_type=return_type,
                annotations=[],
                snippet=snippet_at(lines_by_file[rel_file], line),
                first_seen=SourceLocation(file=rel_file, line=line),
            )
        )
    return sorted(records, key=lambda r: (r.id, r.first_seen.file, r.first_seen.line))


def _call_rows(decoded: str) -> list[list]:
    """The rows of the extraction query's ``bqrs decode --format=json`` output.

    Each row is six strings (package, type, method, parameter list, return
    type, file), the method not empty, and an integer line. Output of any
    other shape raises BackendUnavailable.
    """
    try:
        doc = json.loads(decoded)
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
        raise BackendUnavailable(f"codeql bqrs decode wrote no readable JSON: {exc}") from None
    select = doc.get("#select", {}) if isinstance(doc, dict) else None
    rows = select.get("tuples", []) if isinstance(select, dict) else None
    if not isinstance(rows, list):
        raise BackendUnavailable("codeql bqrs decode wrote no '#select' tuples list")
    for row in rows:
        if not (
            isinstance(row, list)
            and len(row) == 7
            and all(isinstance(value, str) for value in row[:6])
            and row[2]
            and isinstance(row[6], int)
            and not isinstance(row[6], bool)
        ):
            raise BackendUnavailable(f"codeql bqrs decode wrote a mis-shaped row: {row!r:.200}")
    return rows


def _source_lines(path: Path) -> list[str]:
    """The lines of a source file, or none when it cannot be read."""
    try:
        return path.read_text(encoding="utf-8", errors="replace").splitlines()
    except (OSError, ValueError):  # ValueError: a NUL byte in the path
        return []


class CodeQLCompiler(_CodeQLTool):
    """Compiles and executes generated rules through the codeql CLI."""

    unavailable = CompilerUnavailable

    @staticmethod
    def _workspace(tmp: Path, rules: dict[str, str]) -> list[Path]:
        """Write one query pack holding ``<name>.ql`` for each named rule."""
        (tmp / "qlpack.yml").write_text(_QLPACK_YML, encoding="utf-8")
        paths = []
        for name, rule_text in rules.items():
            path = tmp / f"{name}.ql"
            path.write_text(rule_text, encoding="utf-8")
            paths.append(path)
        return paths

    def compile(self, pair_id: str, rule_text: str) -> tuple[str, ...]:
        """Compile the rule as ``rule.ql`` in a fresh workspace.

        Returns nothing when it compiled, else stderr's non-blank lines, or
        a line giving the exit code. A path into the workspace in codeql's
        output is cut to the file's name, so diagnostics say ``rule.ql`` and
        not a temporary directory that differs from run to run.
        """
        with tempfile.TemporaryDirectory(prefix="qlforge-compile-") as tmp:
            (rule,) = self._workspace(Path(tmp), {"rule": rule_text})
            try:
                proc = self._run(["query", "compile", str(rule)])
            except subprocess.TimeoutExpired as exc:
                return (f"rule.ql: error: codeql query compile exceeded {exc.timeout}s",)
            stderr = proc.stderr
            # The longer first, in case the resolved path ends with the other.
            for workspace in sorted({tmp, os.path.realpath(tmp)}, key=len, reverse=True):
                stderr = stderr.replace(workspace + os.sep, "")
        if proc.returncode == 0:
            return ()
        lines = tuple(line for line in stderr.splitlines() if line.strip())
        return lines or (f"rule.ql: error: codeql exited {proc.returncode}",)

    def execute(self, rules: dict[str, str], database: str) -> dict[str, list[dict]]:
        """Run every rule (pair id -> rule text) in one ``database analyze``.

        Returns the findings of each pair. The timeout grows with the number
        of rules, so each rule has as long as it would have alone.
        """
        if not rules:
            return {}
        timeout_s = self.timeout_s * len(rules)
        with tempfile.TemporaryDirectory(prefix="qlforge-scan-") as tmp:
            tmp_path = Path(tmp)
            queries = self._workspace(
                tmp_path,
                {pid: stamp_rule_id(text, SCAN_ID_PREFIX + pid) for pid, text in rules.items()},
            )
            sarif_path = tmp_path / "out.sarif"
            try:
                proc = self._run(
                    ["database", "analyze", database, *map(str, queries),
                     "--format=sarif-latest", f"--output={sarif_path}", "--rerun"],
                    timeout_s,
                )
            except subprocess.TimeoutExpired as exc:
                raise CompilerUnavailable(
                    f"codeql database analyze exceeded {timeout_s}s"
                ) from exc
            if proc.returncode != 0:
                raise ExecutionFailed(
                    f"codeql database analyze failed: {proc.stderr.strip()[:500]}"
                )
            try:
                sarif = without_surrogates(json.loads(sarif_path.read_text(encoding="utf-8")))
            except (OSError, ValueError, RecursionError) as exc:
                raise ExecutionFailed(
                    f"codeql database analyze wrote no readable SARIF: {exc}"
                ) from exc
        return _split_sarif(sarif, {SCAN_ID_PREFIX + pid: pid for pid in rules})


def _split_sarif(sarif, pair_by_rule_id: dict[str, str]) -> dict[str, list[dict]]:
    """Assign each SARIF finding to the pair whose rule reported it.

    SARIF of the wrong shape raises ExecutionFailed, as unreadable SARIF
    does, so scan's fallback runs the batch's rules one at a time.
    """
    findings: dict[str, list[dict]] = {pid: [] for pid in pair_by_rule_id.values()}
    try:
        for rule_id, finding in _sarif_results(sarif):
            pair_id = pair_by_rule_id.get(rule_id)
            if pair_id is None:
                logger.warning(
                    "scan: dropping a result of rule %r, which is not in the batch", rule_id
                )
                continue
            findings[pair_id].append(finding)
    except (AttributeError, TypeError, ValueError, OverflowError) as exc:
        raise ExecutionFailed(
            f"codeql database analyze wrote no readable SARIF: {type(exc).__name__}: {exc}"
        ) from exc
    return findings


def _sarif_results(sarif: dict):
    """Yield (rule id, finding) for each located SARIF 2.1.0 result.

    The rule id is the result's ``ruleId``, or else its ``rule.id``.
    """
    for run in sarif.get("runs", []):
        for result in run.get("results", []):
            rule_id = result.get("ruleId") or result.get("rule", {}).get("id")
            for location in result.get("locations", []):
                physical = location.get("physicalLocation", {})
                region = physical.get("region", {})
                start = region.get("startLine")
                if start is None:
                    continue
                finding = {
                    "file": physical.get("artifactLocation", {}).get("uri", ""),
                    "start_line": typed(start, int, "startLine"),
                    "end_line": typed(region.get("endLine", start), int, "endLine"),
                    "message": result.get("message", {}).get("text", ""),
                }
                if not isinstance(finding["file"], str) or not isinstance(finding["message"], str):
                    raise TypeError(f"result with a non-string uri or message: {finding!r}")
                yield rule_id, finding


"""Stub ``codeql`` executable for the benchmark.

The benchmark copies this file next to a JSON config of the same name plus
``.json`` and prepends a ``#!<python> -IS`` line, so a spawn costs an
isolated interpreter start without site imports. The flags must stay one
shebang token: the kernel passes everything after the interpreter path as a
single argument. The config holds:

* ``counter``: a file that gets one ``<subcommand> <seconds>`` line per spawn;
* ``fail_marker``: a rule containing it fails ``query compile``;
* ``start_s``: a sleep on every spawn, standing in for JVM start-up;
* ``vulns``: planted locations keyed by ``"<source method> <sink method>"``.

Subcommands:

* ``query compile RULE`` is stateless: it fails with a
  ``file:line:col: error:`` diagnostic when the fail marker is present.
* ``database analyze DB QUERY... --output=PATH`` accepts several query files
  in one call and writes SARIF 2.1.0 whose ``ruleId`` is each rule's ``@id``.

Uses the standard library only, because ``-I`` keeps the benchmark's
directory off ``sys.path``.
"""

import json
import os
import re
import sys
import time
from pathlib import Path

_ID_RE = re.compile(r"@id\s+(\S+)")
_NAME_RE = re.compile(r'hasName\("([^"]+)"\)')


def _compile(config: dict, args: list[str]) -> int:
    rule = Path(args[0])
    for lineno, line in enumerate(rule.read_text(encoding="utf-8").splitlines(), 1):
        col = line.find(config["fail_marker"])
        if col >= 0:
            # The bare file name keeps diagnostics, and so prompt sizes,
            # independent of where the temporary directory lives.
            sys.stderr.write(
                f"{rule.name}:{lineno}:{col + 1}: error: "
                f"mismatched input '{config['fail_marker']}' expecting 'predicate'\n"
            )
            return 1
    return 0


def _analyze(config: dict, args: list[str]) -> int:
    output = next(a.split("=", 1)[1] for a in args if a.startswith("--output="))
    queries = [a for a in args[1:] if not a.startswith("--")]
    rules, results = [], []
    for query in queries:
        text = Path(query).read_text(encoding="utf-8")
        rule_id = _ID_RE.search(text).group(1)
        names = _NAME_RE.findall(text)
        rules.append({"id": rule_id})
        for vuln in config["vulns"].get(" ".join(names[:2]), []):
            region = {"startLine": vuln["line"], "endLine": vuln["line"]}
            results.append(
                {
                    "ruleId": rule_id,
                    "message": {"text": "Tainted value flows from user input to a dangerous sink."},
                    "locations": [
                        {"physicalLocation": {"artifactLocation": {"uri": vuln["file"]},
                                              "region": region}}
                    ],
                }
            )
    sarif = {
        "version": "2.1.0",
        "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
        "runs": [{"tool": {"driver": {"name": "CodeQL", "rules": rules}}, "results": results}],
    }
    Path(output).write_text(json.dumps(sarif), encoding="utf-8")
    return 0


def main() -> int:
    started = time.monotonic()
    config = json.loads(Path(__file__).with_name(Path(__file__).name + ".json").read_text())
    time.sleep(config["start_s"])
    command = " ".join(sys.argv[1:3])
    if command == "query compile":
        code = _compile(config, sys.argv[3:])
    elif command == "database analyze":
        code = _analyze(config, sys.argv[3:])
    else:
        sys.stderr.write(f"stub codeql: unsupported command {command!r}\n")
        code = 2
    line = f"{command.replace(' ', '_')} {time.monotonic() - started:.6f}\n"
    fd = os.open(config["counter"], os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        os.write(fd, line.encode())
    finally:
        os.close(fd)
    return code


if __name__ == "__main__":
    sys.exit(main())

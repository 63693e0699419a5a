#!/usr/bin/env python3
"""Regenerate mock_llm.jsonl and mock_compiler.json from the fixture corpus.

Record ids are content hashes of API signatures, so editing any Java file
under demo_project/ invalidates both mock scripts. Rerun this after such an
edit and commit the regenerated files:

    python3 fixtures/regen_mocks.py

The script also prints the classification frame cost and the largest member
cost so pipeline_config.json's classify.budget can be sanity-checked.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

FIXTURES = Path(__file__).resolve().parent
sys.path.insert(0, str(FIXTURES.parent / "src"))

from qlforge.classify import _frame_cost, _member_cost  # noqa: E402
from qlforge.extract import FixtureBackend, dedupe, extract_apis, filter_risky  # noqa: E402

# Ground-truth labels keyed by (type_name, method); every kept record must
# appear here so the canned classify response covers the full corpus.
LABELS = {
    ("HttpServletRequest", "getParameter"): "Source",
    ("HttpServletRequest", "getPart"): "Source",
    ("Part", "getSubmittedFileName"): "Source",
    ("Part", "getInputStream"): "Source",
    ("Statement", "executeQuery"): "Sink",
    ("FileOutputStream", "write"): "Sink",
    ("Runtime", "exec"): "Sink",
    ("Encode", "forHtml"): "Sanitizer",
    ("Connection", "createStatement"): "None",
    ("InputStream", "read"): "None",
    ("FileOutputStream", "close"): "None",
    ("InputStream", "close"): "None",
    ("Process", "waitFor"): "None",
    ("StringBuilder", "append"): "None",
    ("Map", "put"): "None",
}

# Pair plan: (source key, sink key, class, rationale, confidence,
#             sanitizer key or None, fail_count, finding or None).
PAIRS = [
    (
        ("HttpServletRequest", "getParameter"),
        ("Statement", "executeQuery"),
        "sql-injection",
        "request parameter is concatenated into the statement text",
        "high",
        None,
        0,
        {
            "file": "src/com/example/web/UserController.java",
            "start_line": 18,
            "end_line": 18,
            "message": "user-controlled name reaches executeQuery",
        },
    ),
    (
        ("Part", "getSubmittedFileName"),
        ("FileOutputStream", "write"),
        "path-traversal",
        "client-chosen file name decides where bytes are written",
        "high",
        None,
        1,
        {
            "file": "src/com/example/web/UploadHandler.java",
            "start_line": 22,
            "end_line": 22,
            "message": "uploaded file name reaches the output stream",
        },
    ),
    (
        ("HttpServletRequest", "getParameter"),
        ("Runtime", "exec"),
        "command-injection",
        "request parameter is passed to the process launcher verbatim",
        "high",
        None,
        0,
        {
            "file": "src/com/example/admin/AdminTools.java",
            "start_line": 10,
            "end_line": 10,
            "message": "user-controlled tool name reaches exec",
        },
    ),
    (
        ("HttpServletRequest", "getParameter"),
        ("FileOutputStream", "write"),
        "path-traversal",
        "parameter could select the written file but is HTML-escaped first",
        "low",
        ("Encode", "forHtml"),
        0,
        None,
    ),
]

REPAIR_ADVICE = (
    "Declare the taint-tracking module before the select clause, import the "
    "dataflow library once, and terminate the query with a newline."
)


def barrier_text(sanitizer) -> str:
    """An isBarrier predicate stopping the flow at calls to ``sanitizer``, or "" for None."""
    if sanitizer is None:
        return ""
    return f"""
  predicate isBarrier(DataFlow::Node node) {{
    exists(MethodAccess ma |
      ma.getMethod().hasName("{sanitizer.method}") and
      ma.getMethod().getDeclaringType().hasQualifiedName("{sanitizer.package}", "{sanitizer.type_name}") and
      node.asExpr() = ma
    )
  }}
"""


def rule_text(pair_id: str, source, sink, vuln_class: str, sanitizer=None) -> str:
    return f"""/**
 * Flow from {source.type_name}.{source.method} to {sink.type_name}.{sink.method}.
 * @kind path-problem
 * @id qlforge/{vuln_class}/{pair_id}
 * @problem.severity error
 */

import java
import semmle.code.java.dataflow.TaintTracking
import RuleFlow::PathGraph

module RuleConfig implements DataFlow::ConfigSig {{
  predicate isSource(DataFlow::Node source) {{
    exists(MethodAccess ma |
      ma.getMethod().hasName("{source.method}") and
      ma.getMethod().getDeclaringType().hasQualifiedName("{source.package}", "{source.type_name}") and
      source.asExpr() = ma
    )
  }}

  predicate isSink(DataFlow::Node sink) {{
    exists(MethodAccess ma |
      ma.getMethod().hasName("{sink.method}") and
      ma.getMethod().getDeclaringType().hasQualifiedName("{sink.package}", "{sink.type_name}") and
      sink.asExpr() = ma.getAnArgument()
    )
  }}
{barrier_text(sanitizer)}}}

module RuleFlow = TaintTracking::Global<RuleConfig>;

from RuleFlow::PathNode source, RuleFlow::PathNode sink
where RuleFlow::flowPath(source, sink)
select sink.getNode(), source, sink, "Tainted value reaches {sink.method}."
"""


def main() -> None:
    records = dedupe(filter_risky(extract_apis(FIXTURES / "demo_project", FixtureBackend())))
    by_key = {}
    for record in records:
        by_key.setdefault((record.type_name, record.method), record)

    missing = [k for k in LABELS if k not in by_key]
    extra = [k for k in by_key if k not in LABELS]
    if missing or extra:
        raise SystemExit(f"label table out of sync: missing={missing} extra={extra}")

    classify_lines = "\n".join(
        f"{record.id}: {LABELS[(record.type_name, record.method)]}"
        for record in records
    )

    pair_lines = []
    llm_entries = []
    compiler_pairs = {}
    for src_key, snk_key, vuln_class, rationale, confidence, san_key, fail_count, finding in PAIRS:
        src, snk = by_key[src_key], by_key[snk_key]
        pair_id = f"{src.id}__{snk.id}"
        line = (
            f"PAIR: ({src.id}, {snk.id}) | CLASS: {vuln_class} "
            f"| RATIONALE: {rationale} | CONFIDENCE: {confidence}"
        )
        san = by_key[san_key] if san_key is not None else None
        if san is not None:
            line += f" | SANITIZED_BY: {san.id}"
        pair_lines.append(line)
        llm_entries.append(
            {
                "stage": "write",
                "contains": pair_id,
                "response": rule_text(pair_id, src, snk, vuln_class, san),
            }
        )
        entry: dict = {"fail_count": fail_count}
        if fail_count:
            entry["diagnostics"] = ["rule.ql:14:5: error: unresolved predicate or missing import"]
        # A sanitized pair's rule names its barrier, so the scan finds nothing.
        entry["findings"] = [finding] if finding else []
        compiler_pairs[pair_id] = entry

    mock_llm = [
        {"stage": "classify", "response": classify_lines},
        {"stage": "pair", "response": "\n".join(pair_lines)},
        *llm_entries,
        {"stage": "write", "response": "// fallback rule\nimport java\nselect 1"},
        {"stage": "repair", "response": REPAIR_ADVICE},
        {"default": "NO_PAIRS"},
    ]
    with (FIXTURES / "mock_llm.jsonl").open("w", encoding="utf-8") as fh:
        for entry in mock_llm:
            fh.write(json.dumps(entry, ensure_ascii=False) + "\n")

    compiler_doc = {
        "version": 1,
        "default": {"fail_count": 0, "diagnostics": [], "findings": []},
        "pairs": compiler_pairs,
    }
    (FIXTURES / "mock_compiler.json").write_text(
        json.dumps(compiler_doc, indent=2, ensure_ascii=False) + "\n", encoding="utf-8"
    )

    frame = _frame_cost()
    member_costs = sorted(_member_cost(r) for r in records)
    print(f"wrote mock_llm.jsonl ({len(mock_llm)} entries) and mock_compiler.json "
          f"({len(compiler_pairs)} scripted pairs)")
    print(f"classify frame cost: {frame} tokens; member costs "
          f"{member_costs[0]}..{member_costs[-1]}; "
          f"singleton minimum budget: {frame + member_costs[-1]}")


if __name__ == "__main__":
    main()

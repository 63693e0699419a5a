"""Span wrappers installed around qlforge's module entry points, traced runs only.

:func:`install` replaces each entry point in :data:`ENTRY_POINTS` with a
wrapper that records a span (name, start, end, parent, run id, thread) in
memory. Functions are replaced wherever a loaded ``qlforge`` module holds a
reference to them, because modules bind imported names at import time.
Methods are replaced on their class. An entry point that no longer exists is
listed as unmeasured instead of failing the run.

Some wrappers also record a count at the same boundary, such as the number
of records a call returned.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict

# (module, attribute path); the path is also the span name.
ENTRY_POINTS = (
    ("qlforge.extract", "extract_apis"),
    ("qlforge.extract", "filter_risky"),
    ("qlforge.extract", "dedupe"),
    ("qlforge.records", "save_spec_document"),
    ("qlforge.classify", "classify_records"),
    ("qlforge.classify", "plan_groups"),
    ("qlforge.classify", "build_classification_prompt"),
    ("qlforge.classify", "parse_classification_response"),
    ("qlforge.classify", "save_votes"),
    ("qlforge.pairing", "pair_all"),
    ("qlforge.pairing", "build_pairing_prompt"),
    ("qlforge.pairing", "parse_pair_lines"),
    ("qlforge.gateway", "LlmGateway.complete"),
    ("qlforge.gateway", "LlmGateway.complete_batch"),
    ("qlforge.gateway", "LiveLlmClient.send"),
    ("qlforge.gateway", "TranscriptStore.append"),
    ("qlforge.rulegen", "generate_all"),
    ("qlforge.rulegen", "generate_rule"),
    ("qlforge.codeql", "CodeQLCompiler.compile"),
    ("qlforge.codeql", "CodeQLCompiler.execute"),
    ("qlforge.rulegen", "scan"),
    ("qlforge.metrics", "compute_metrics"),
    ("qlforge.report", "dump_report"),
)


def _rule_outcome(artifact) -> dict:
    status = getattr(artifact.status, "value", artifact.status)
    return {
        "pairs": 1,
        "attempts": artifact.attempts,
        "compiled": int(status == "Compiled"),
        "first_try": int(status == "Compiled" and artifact.attempts == 1),
    }


# Counts recorded from an entry point's return value: span name -> (count
# name, function of the result giving an int or a dict of ints).
_RESULT_COUNTS = {
    "extract_apis": ("call_sites", len),
    "dedupe": ("apis_kept", len),
    "scan": ("findings", len),
    "generate_rule": ("rule", _rule_outcome),
}


class Tracer:
    """In-memory span and count store for one run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []  # (id, name, start, end, parent, thread, failed)
        self.counts: dict[str, int] = defaultdict(int)
        self.unmeasured: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        counted = _RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            failed = True
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(
                    (span_id, name, start, end, parent, threading.get_ident(), failed)
                )
            if counted is not None:
                self._count(counted[0], counted[1](result))
            return result

        return wrapper

    def _count(self, key: str, value) -> None:
        items = value.items() if isinstance(value, dict) else ((None, value),)
        with self._lock:
            for sub, n in items:
                self.counts[key if sub is None else f"{key}.{sub}"] += n

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span of the given name."""
        return self.wrap(name, fn)(*args, **kwargs)

    def export(self) -> dict:
        """Spans with self time, per-name totals, counts and unmeasured entry points."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for span_id, _name, start, end, parent, _thread, _failed in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        spans = []
        totals: dict[str, dict] = {}
        for span_id, name, start, end, parent, thread, failed in sorted(self.spans):
            self_s = (end - start) - covered(children.get(span_id, []))
            spans.append(
                {"id": span_id, "name": name, "start": start, "end": end, "parent": parent,
                 "run": self.run_id, "thread": thread, "failed": failed, "self_s": self_s}
            )
            t = totals.setdefault(name, {"calls": 0, "failed": 0, "total_s": 0.0, "self_s": 0.0})
            t["calls"] += 1
            t["failed"] += int(failed)
            t["total_s"] += end - start
            t["self_s"] += self_s
        return {
            "run": self.run_id,
            "spans": spans,
            "totals": totals,
            "counts": dict(self.counts),
            "unmeasured": list(self.unmeasured),
        }


def covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def install(tracer: Tracer) -> None:
    """Wrap every entry point that exists; record the rest as unmeasured."""
    for module_name, path in ENTRY_POINTS:
        *parents, attr = path.split(".")
        try:
            owner = importlib.import_module(module_name)
            for part in parents:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            tracer.unmeasured.append(path)
            continue
        wrapper = tracer.wrap(path, original)
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
            continue
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "qlforge" or mod_name.startswith("qlforge."):
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

"""Run qlforge's pipeline once, in this fresh interpreter, and record timings.

Usage: python3 one_run.py CONFIG RESULT [--trace RUN_ID] [--import-only]

``qlforge`` must be importable (the benchmark sets PYTHONPATH to the
checkout's ``src``). RESULT receives a JSON object with the monotonic clock
reading once the config is built (the parent subtracts its spawn time to get
set-up time) and, unless ``--import-only`` stops there, the ``run_pipeline``
wall time, this process's peak RSS and, with ``--trace``, the spans recorded
by :mod:`spans`.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def main(argv: list[str]) -> int:
    config_path, result_path = argv[0], argv[1]
    run_id = argv[argv.index("--trace") + 1] if "--trace" in argv else None

    from qlforge.pipeline import PipelineConfig, run_pipeline

    config = PipelineConfig.from_file(config_path)
    setup_done = time.monotonic()
    if "--import-only" in argv:
        with open(result_path, "w", encoding="utf-8") as fh:
            json.dump({"setup_done": setup_done}, fh)
        return 0

    tracer = None
    if run_id is not None:
        import spans

        tracer = spans.Tracer(run_id)
        spans.install(tracer)

    started = time.monotonic()
    if tracer is None:
        run_pipeline(config)
    else:
        tracer.span("run_pipeline", run_pipeline, config)
    run_s = time.monotonic() - started

    result = {
        "setup_done": setup_done,
        "run_s": run_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        result["trace"] = tracer.export()
        result["frame_tokens"] = _frame_tokens()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def _frame_tokens() -> int | None:
    """Tokens of a classification prompt with no members: the fixed frame."""
    try:
        from qlforge.classify import ContextGroup, build_classification_prompt

        frame = build_classification_prompt(ContextGroup(0, "frame", (), 0), {})
    except (ImportError, TypeError, ValueError):
        return None
    return (len(frame) + 3) // 4


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

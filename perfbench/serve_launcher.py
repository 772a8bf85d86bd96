"""Start the analysis daemon with a speed probe, and in a traced run
with the layer spans.

Usage::

    python3 perfbench/serve_launcher.py <probe file> <spans.json | -> \
        [repro serve options]

Starts the speed probe (``probe.py``) in the daemon's main thread, its
samples appended to ``<probe file>`` as they are taken, then runs
``repro serve`` exactly as the command line does.  Given a spans file,
it first wraps the daemon's layer entry points (request parsing, store
lookup, batch submit and dispatch, façade compute, response encoding,
and the kernel layers below them); when the daemon shuts down, the spans
go to that file.  ``GET /v1/stats`` marks a phase boundary, so the
client can leave its warm-up out of the layer totals.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from typing import Dict, List  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracer import Span, Tracer, from_rows, self_times, to_rows  # noqa: E402


def install_serve_tracing(tracer: Tracer) -> None:
    from repro.api.report import AnalysisReport
    from repro.api.service import AssignmentOutcome
    import repro.serve.daemon as daemon
    from repro.serve.batcher import MicroBatcher
    from repro.serve.store import ResultStore

    def looked_up(result, *args, **kwargs) -> None:
        if result is not None:
            now = tracer.clock()
            tracer.record("serve.store_hit", now, now)

    def marked(result, *args, **kwargs) -> None:
        now = tracer.clock()
        tracer.record("phase.mark", now, now)

    tracer.patch(daemon.AnalysisDaemon, "_parse_model", "serve.parse")
    tracer.patch(ResultStore, "get", "serve.store_lookup", on_result=looked_up)
    tracer.patch(daemon.AnalysisDaemon, "_dispatch", "serve.dispatch",
                 item_of=lambda self, group, payloads: len(payloads))
    tracer.patch(daemon, "analyze", "serve.compute")
    tracer.patch(daemon, "assign", "serve.compute")
    tracer.patch(AnalysisReport, "report_json", "serve.encode")
    tracer.patch(AssignmentOutcome, "outcome_json", "serve.encode")
    tracer.patch(daemon.AnalysisDaemon, "stats", "serve.stats", on_result=marked)

    submit = MicroBatcher.submit

    async def traced_submit(self, *args, **kwargs):
        start = tracer.clock()
        try:
            return await submit(self, *args, **kwargs)
        finally:
            tracer.record("serve.batch", start, tracer.clock())

    MicroBatcher.submit = traced_submit


def serve_layers(rows: List[list]) -> Dict[str, float]:
    """Layer totals over the spans between the first two phase marks."""
    spans = from_rows(rows)
    marks = sorted(span.start for span in spans if span.name == "phase.mark")
    since = marks[0] if marks else float("-inf")
    until = marks[1] if len(marks) > 1 else float("inf")
    # The client waits for every reply before it marks a phase, so no
    # request straddles a mark and each parent stays with its children.
    timed = [span for span in spans if since <= span.start < until]
    by_name: Dict[str, List[Span]] = defaultdict(list)
    for span in timed:
        by_name[span.name].append(span)
    metrics = {f"{name}_s": seconds for name, seconds in self_times(timed).items()}
    lookups = len(by_name["serve.store_lookup"])
    dispatches = by_name["serve.dispatch"]
    waited = sum(s.end - s.start for s in by_name["serve.batch"])
    in_dispatch = sum(s.item * (s.end - s.start) for s in dispatches)
    metrics["serve.store_hit_ratio"] = (
        len(by_name["serve.store_hit"]) / lookups if lookups else 0.0
    )
    metrics["serve.batch_size"] = (
        sum(s.item for s in dispatches) / len(dispatches) if dispatches else 0.0
    )
    metrics["serve.batch_wait_s"] = max(0.0, waited - in_dispatch)
    return metrics


def main(argv: List[str]) -> int:
    probe_path, spans_path = argv[1], argv[2]
    from probe import SpeedProbe

    probe = SpeedProbe(probe_path).start()
    try:
        from repro.cli import main as repro_main

        if spans_path == "-":
            return repro_main(["serve", *argv[3:]])
        import child

        import_seconds = time.perf_counter() - _STARTED
        tracer = Tracer()
        child.install_tracing(tracer, {})
        install_serve_tracing(tracer)
        try:
            return repro_main(["serve", *argv[3:]])
        finally:
            with open(spans_path, "w") as handle:
                json.dump({"import_s": import_seconds,
                           "spans": to_rows(tracer.spans)}, handle)
    finally:
        probe.stop()


if __name__ == "__main__":
    sys.exit(main(sys.argv))

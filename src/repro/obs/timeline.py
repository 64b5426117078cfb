"""Chrome trace-event export: span JSONL in, Perfetto timeline out.

Converts the span records a ``--trace`` run writes into the Trace Event
Format that ``chrome://tracing`` and https://ui.perfetto.dev load
directly: one complete (``"X"``) event per span, one track per recording
process (the parent sweep plus each pool worker), and derived counter
(``"C"``) events — pairs completed and cache hits over time — so the
sweep's progress reads off the same timeline.

Only spans carrying a ``t0_s`` start offset (span schema >= 2) can be
placed on a timeline; older records are counted and skipped so a mixed
file still exports everything it can.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence

from .summarize import SpanForest, has_timeline, load_spans, require_timeline

#: Trace Event Format "other data" stamp.
TIMELINE_SCHEMA = 1


def chrome_trace(
    spans: Sequence[Dict[str, object]],
    metrics: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Build a Trace Event Format document from span records.

    Args:
        spans: Records from :func:`repro.obs.summarize.load_spans`.
        metrics: Optional :meth:`MetricsRegistry.dump` snapshot; counter
            and gauge families are appended as one counter event at the
            end of the timeline.

    Raises:
        TraceFileError: When no span carries a timeline position, or
            when a span id occurs twice.
    """
    require_timeline(spans)
    placeable = [span for span in spans if has_timeline(span)]
    skipped = len(spans) - len(placeable)
    # The parent process records the roots; worker spans hang below.
    roots = SpanForest(placeable).roots
    main_pid = int(roots[0].get("pid") or 0) if roots else 0
    events: List[Dict[str, object]] = []
    pids = []
    for span in placeable:
        pid = int(span.get("pid") or 0)
        if pid not in pids:
            pids.append(pid)
        args = dict(span.get("attrs") or {})
        args["status"] = span.get("status", "ok")
        args["span_id"] = span.get("id")
        events.append({
            "name": str(span.get("name")),
            "cat": "span",
            "ph": "X",
            "ts": round(float(span["t0_s"]) * 1e6, 3),
            "dur": round(float(span.get("wall_s") or 0.0) * 1e6, 3),
            "pid": pid,
            "tid": pid,
            "args": args,
        })

    # One named track per recording process, workers labelled as such.
    for pid in pids:
        label = "sweep (parent)" if pid == main_pid else "worker %d" % pid
        events.append({
            "name": "process_name", "ph": "M", "pid": pid, "tid": pid,
            "args": {"name": label},
        })

    # Derived counters: sweep progress over time, sampled at each
    # pair-span end.  Deterministic given the trace (sorted by end time,
    # span id breaking exact ties).
    pair_spans = sorted(
        (span for span in placeable if span.get("name") == "pair.run"),
        key=lambda span: (
            float(span["t0_s"]) + float(span.get("wall_s") or 0.0),
            int(span.get("id") or 0),
        ),
    )
    done = hits = 0
    for span in pair_spans:
        done += 1
        if (span.get("attrs") or {}).get("cache") == "hit":
            hits += 1
        end = float(span["t0_s"]) + float(span.get("wall_s") or 0.0)
        events.append({
            "name": "sweep progress", "ph": "C", "pid": main_pid,
            "ts": round(end * 1e6, 3),
            "args": {"pairs_completed": done, "cache_hits": hits},
        })

    if metrics:
        end_ts = max(
            (
                float(span["t0_s"]) + float(span.get("wall_s") or 0.0)
                for span in placeable
            ),
            default=0.0,
        )
        snapshot: Dict[str, float] = {}
        for name, family in sorted(metrics.items()):
            if family.get("kind") not in ("counter", "gauge"):
                continue
            for child in family.get("children", []):
                labels = ",".join(
                    "%s=%s" % (k, v) for k, v in child.get("labels", [])
                )
                key = "%s{%s}" % (name, labels) if labels else name
                snapshot[key] = float(child.get("value", 0.0))
        if snapshot:
            events.append({
                "name": "metrics", "ph": "C", "pid": main_pid,
                "ts": round(end_ts * 1e6, 3),
                "args": snapshot,
            })

    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "schema": TIMELINE_SCHEMA,
            "spans": len(placeable),
            "skipped_spans": skipped,
            "workers": [pid for pid in pids if pid != main_pid],
        },
    }


def export_chrome_trace(
    trace_path: str,
    output_path: str,
    metrics: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Read a span JSONL file and write the chrome JSON next to it.

    Returns the document for callers that want the event counts.
    """
    document = chrome_trace(load_spans(trace_path), metrics=metrics)
    with open(output_path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, sort_keys=True)
        handle.write("\n")
    return document

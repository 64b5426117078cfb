"""Critical-path and worker-utilization analysis over a span tree.

Two questions the per-stage summary table cannot answer:

* **Critical path** — through all the parallelism, which chain of spans
  actually determined the sweep's end-to-end wall time?  Speeding up
  anything off that chain cannot move the total.
* **Utilization** — how busy was each worker, where are the scheduling
  gaps, and which pairs straggled?

Both need the span *timeline* (``t0_s`` start offsets, schema >= 2),
not just durations.  The critical path is computed by walking backwards
from the root span's end: at every instant the algorithm descends into
the child span that finished last and still covers the cursor, so every
instant of the root's wall time is attributed to exactly one span — the
per-stage on-path self times therefore sum to the root's wall time by
construction (the property the acceptance tests lock).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .summarize import SpanForest, TraceFileError, require_timeline

#: Span name the runner gives per-pair work (busy time for utilization).
PAIR_SPAN = "pair.run"

#: Span name of one ``SuiteRunner.run`` sweep.
SWEEP_SPAN = "suite.run"


def _t0(span: Dict[str, object]) -> float:
    return float(span.get("t0_s") or 0.0)


def _t1(span: Dict[str, object]) -> float:
    return _t0(span) + float(span.get("wall_s") or 0.0)


def _dominant_root(forest: SpanForest) -> Dict[str, object]:
    """The root with the largest wall time, ties to the later start, so
    a list holding several sweeps analyzes the dominant one."""
    if not forest.roots:
        raise TraceFileError("trace holds no root span")
    return max(forest.roots, key=lambda span: (
        float(span.get("wall_s") or 0.0), _t0(span),
    ))


def sweeps(
    spans: Sequence[Dict[str, object]],
) -> List[List[Dict[str, object]]]:
    """Each sweep's spans: one subtree per ``suite.run`` root, in start
    order, or the whole list as one sweep when it holds no such root.

    The CLI reports each sweep on its own, so a file holding several
    (``repro run all`` records two) never mixes their accounting.
    """
    forest = SpanForest(spans)
    roots = sorted(
        (root for root in forest.roots if root.get("name") == SWEEP_SPAN),
        key=_t0,
    )
    return [forest.subtree(root) for root in roots] or [list(spans)]


# ---------------------------------------------------------------------------
# Critical path
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PathSegment:
    """One on-path interval attributed to a single span."""

    name: str
    span_id: int
    start_s: float
    duration_s: float
    depth: int


@dataclass(frozen=True)
class StageShare:
    """Aggregated on-path self time of every span sharing one name."""

    name: str
    seconds: float
    share: float
    segments: int


@dataclass
class CriticalPathReport:
    """What :func:`critical_path` extracts from one trace."""

    root_name: str
    root_id: int
    total_s: float
    segments: List[PathSegment]
    stages: List[StageShare] = field(default_factory=list)

    @property
    def attributed_s(self) -> float:
        return sum(segment.duration_s for segment in self.segments)

    def render(self, limit: Optional[int] = None) -> str:
        header = "%-28s %7s %12s %7s" % (
            "stage (on critical path)", "segs", "self_ms", "share"
        )
        lines = [
            "critical path of %s (span %d): %.2f ms wall"
            % (self.root_name, self.root_id, 1e3 * self.total_s),
            header,
            "-" * len(header),
        ]
        for stage in self.stages:
            lines.append(
                "%-28s %7d %12.2f %6.1f%%"
                % (stage.name, stage.segments, 1e3 * stage.seconds,
                   100.0 * stage.share)
            )
        shown = self.segments[:limit] if limit else self.segments
        lines.append("")
        lines.append("chain (time order%s):"
                     % (", first %d segments" % limit
                        if limit and len(self.segments) > limit else ""))
        for segment in shown:
            lines.append(
                "  %10.2f ms  %s%-28s %10.2f ms"
                % (1e3 * segment.start_s, "  " * segment.depth,
                   segment.name, 1e3 * segment.duration_s)
            )
        return "\n".join(lines)


def critical_path(
    spans: Sequence[Dict[str, object]],
    root_id: Optional[int] = None,
) -> CriticalPathReport:
    """The longest dependency chain through the span tree.

    Walks backwards from the root's end time; at each step the cursor
    descends into the child that finished last before it.  Every instant
    of the root's wall time lands on exactly one span, so the stage
    self-times sum to the root's wall time.
    """
    require_timeline(spans)
    forest = SpanForest(spans)
    if root_id is not None:
        root = forest.span(root_id)
        if root is None:
            raise TraceFileError("no span with id %r in trace" % root_id)
    else:
        root = _dominant_root(forest)

    segments: List[PathSegment] = []

    def attribute(span: Dict[str, object], lo: float, hi: float,
                  depth: int) -> None:
        """Attribute [lo, hi] of wall time to ``span`` and its children."""
        cursor = hi
        ordered = sorted(
            forest.children(span),
            key=lambda child: (_t1(child), _t0(child)),
            reverse=True,
        )
        for child in ordered:
            if cursor <= lo:
                break
            child_end = min(_t1(child), cursor)
            child_start = max(_t0(child), lo)
            if child_end <= child_start:
                continue
            if cursor > child_end:
                # The gap after the last-finishing child is the parent's
                # own on-path time.
                segments.append(PathSegment(
                    name=str(span.get("name")),
                    span_id=int(span.get("id") or 0),
                    start_s=child_end,
                    duration_s=cursor - child_end,
                    depth=depth,
                ))
            attribute(child, child_start, child_end, depth + 1)
            cursor = child_start
        if cursor > lo:
            segments.append(PathSegment(
                name=str(span.get("name")),
                span_id=int(span.get("id") or 0),
                start_s=lo,
                duration_s=cursor - lo,
                depth=depth,
            ))

    total = float(root.get("wall_s") or 0.0)
    attribute(root, _t0(root), _t1(root), 0)
    segments.sort(key=lambda segment: segment.start_s)

    by_name: Dict[str, List[PathSegment]] = {}
    for segment in segments:
        by_name.setdefault(segment.name, []).append(segment)
    stages = [
        StageShare(
            name=name,
            seconds=sum(s.duration_s for s in segs),
            share=(
                sum(s.duration_s for s in segs) / total if total > 0 else 0.0
            ),
            segments=len(segs),
        )
        for name, segs in by_name.items()
    ]
    stages.sort(key=lambda stage: (-stage.seconds, stage.name))
    return CriticalPathReport(
        root_name=str(root.get("name")),
        root_id=int(root.get("id") or 0),
        total_s=total,
        segments=segments,
        stages=stages,
    )


def critical_path_seconds(
    spans: Sequence[Dict[str, object]],
) -> Optional[float]:
    """Best-effort critical-path length for ledger records.

    ``None`` when the trace cannot be analyzed (no roots, no timeline) —
    the ledger field is optional by contract.
    """
    try:
        return critical_path(spans).total_s
    except TraceFileError:
        return None


# ---------------------------------------------------------------------------
# Worker utilization
# ---------------------------------------------------------------------------

def _merge_intervals(
    intervals: List[Tuple[float, float]],
) -> List[Tuple[float, float]]:
    merged: List[Tuple[float, float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


@dataclass(frozen=True)
class WorkerLine:
    """Busy/idle accounting of one process over the sweep window."""

    pid: int
    is_parent: bool
    pairs: int
    cache_hits: int
    busy_s: float
    idle_s: float
    utilization: float
    longest_gap_s: float
    last_end_s: float


@dataclass
class UtilizationReport:
    """What :func:`utilization` extracts from one trace."""

    window_s: float
    workers: List[WorkerLine]

    @property
    def pool_utilization(self) -> float:
        """Busy fraction across every track (parent included)."""
        busy = sum(line.busy_s for line in self.workers)
        denom = self.window_s * len(self.workers)
        return busy / denom if denom > 0 else 0.0

    @property
    def straggler_s(self) -> float:
        """How long the last track kept working after the first finished."""
        if len(self.workers) < 2:
            return 0.0
        ends = [line.last_end_s for line in self.workers]
        return max(ends) - min(ends)

    def render(self) -> str:
        header = "%-16s %6s %6s %10s %10s %6s %10s" % (
            "track", "pairs", "hits", "busy_ms", "idle_ms", "util", "gap_ms"
        )
        lines = [
            "sweep window: %.2f ms over %d track(s)"
            % (1e3 * self.window_s, len(self.workers)),
            header,
            "-" * len(header),
        ]
        for line in self.workers:
            label = "parent %d" % line.pid if line.is_parent else (
                "worker %d" % line.pid
            )
            lines.append(
                "%-16s %6d %6d %10.2f %10.2f %5.1f%% %10.2f"
                % (label, line.pairs, line.cache_hits, 1e3 * line.busy_s,
                   1e3 * line.idle_s, 100.0 * line.utilization,
                   1e3 * line.longest_gap_s)
            )
        lines.append(
            "pool utilization %.1f%%, straggler spread %.2f ms"
            % (100.0 * self.pool_utilization, 1e3 * self.straggler_s)
        )
        return "\n".join(lines)


def utilization(
    spans: Sequence[Dict[str, object]],
    pair_span: str = PAIR_SPAN,
) -> UtilizationReport:
    """Per-worker busy/idle intervals from pair-span start/end times.

    Busy time is the union of ``pair.run`` intervals recorded by each
    pid — cache hits, simulated misses, *and retry attempts* all count
    (a retried pair occupies its track for every attempt).  Idle time is
    the rest of the sweep window (the analyzed root span's interval),
    and the longest internal gap exposes scheduling stalls.
    """
    require_timeline(spans)
    root = _dominant_root(SpanForest(spans))
    window_start, window_end = _t0(root), _t1(root)
    window = max(window_end - window_start, 0.0)
    main_pid = int(root.get("pid") or 0)

    by_pid: Dict[int, List[Dict[str, object]]] = {}
    for span in spans:
        if span.get("name") != pair_span:
            continue
        # Only spans inside the analyzed window (a file can hold several
        # sweeps; accounting must not mix them).
        if _t1(span) < window_start or _t0(span) > window_end:
            continue
        by_pid.setdefault(int(span.get("pid") or 0), []).append(span)

    lines: List[WorkerLine] = []
    for pid in sorted(by_pid):
        batch = by_pid[pid]
        intervals = _merge_intervals([
            (max(_t0(span), window_start), min(_t1(span), window_end))
            for span in batch
        ])
        busy = sum(end - start for start, end in intervals)
        gaps: List[float] = []
        if intervals:
            gaps.append(intervals[0][0] - window_start)
            for (_, prev_end), (next_start, _) in zip(
                intervals, intervals[1:]
            ):
                gaps.append(next_start - prev_end)
            gaps.append(window_end - intervals[-1][1])
        hits = sum(
            1 for span in batch
            if (span.get("attrs") or {}).get("cache") == "hit"
        )
        lines.append(WorkerLine(
            pid=pid,
            is_parent=pid == main_pid,
            pairs=len(batch),
            cache_hits=hits,
            busy_s=busy,
            idle_s=max(window - busy, 0.0),
            utilization=busy / window if window > 0 else 0.0,
            longest_gap_s=max(gaps) if gaps else 0.0,
            last_end_s=max(_t1(span) for span in batch),
        ))
    # Workers first in pid order, parent track last — stable and easy to
    # eyeball for skew.
    lines.sort(key=lambda line: (line.is_parent, line.pid))
    return UtilizationReport(window_s=window, workers=lines)

"""Offline span analysis: turn a JSONL trace into a per-stage breakdown.

The JSONL sink writes one finished span per line, children before
parents.  :class:`SpanForest` rebuilds the tree — it is the one place
that links spans, and every analyzer (this module's summary, the
critical path, utilization and the chrome export) reads through it.
The summary aggregates wall/CPU time per span *name* (the "stage"),
attributing to each stage its **self time** (wall time minus the wall
time of its direct children) as well as its cumulative time, so the
table answers "where did the run actually go" without double counting
nested stages.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..errors import ReproError


class TraceFileError(ReproError):
    """Raised when a trace file cannot be read or parsed."""


@dataclass
class StageLine:
    """Aggregate of every span sharing one name."""

    name: str
    count: int = 0
    wall_s: float = 0.0
    self_s: float = 0.0
    cpu_s: float = 0.0
    errors: int = 0

    @property
    def mean_ms(self) -> float:
        return 1e3 * self.wall_s / self.count if self.count else 0.0


@dataclass
class TraceSummary:
    """Everything :func:`summarize` extracts from one trace file."""

    spans: List[Dict[str, object]]
    stages: List[StageLine]
    total_self_s: float
    roots: List[Dict[str, object]] = field(default_factory=list)

    @property
    def n_spans(self) -> int:
        return len(self.spans)


def load_spans(path: str) -> List[Dict[str, object]]:
    """Read one span dict per JSONL line (blank lines skipped).

    Salvage-friendly, the same contract as
    :meth:`~repro.obs.ledger.RunLedger.records`: a corrupt or truncated
    line — typically the trailing half-line of a sweep that was killed
    mid-write — is skipped with a warning instead of sinking the whole
    file; every well-formed span around it is still returned.  Only an
    unreadable file raises.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as error:
        raise TraceFileError("cannot read trace %s: %s" % (path, error)) from error
    spans: List[Dict[str, object]] = []
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text:
            continue
        try:
            record = json.loads(text)
        except ValueError:
            warnings.warn(
                "trace %s:%d is not valid JSON; skipping the line"
                % (path, lineno),
                stacklevel=2,
            )
            continue
        if not isinstance(record, dict) or "name" not in record:
            warnings.warn(
                "trace %s:%d is not a span record; skipping the line"
                % (path, lineno),
                stacklevel=2,
            )
            continue
        spans.append(record)
    return spans


class SpanForest:
    """The span trees of one recording, linked once for every analyzer.

    Spans are indexed by their integer ``id``.  A span whose ``parent``
    is ``None`` or names no span in the list is a root — a worker span
    whose parent was evicted from a ring buffer still gets analyzed.
    A span id that occurs twice means the list mixes recordings (a file
    an older sink appended to), so the forest refuses it instead of
    linking children to the wrong parent.

    Roots and children keep the order of the span list.
    """

    def __init__(self, spans: Sequence[Dict[str, object]]):
        self._by_id: Dict[int, Dict[str, object]] = {}
        for span in spans:
            span_id = span.get("id")
            if not isinstance(span_id, int):
                continue
            if span_id in self._by_id:
                raise TraceFileError(
                    "span id %d occurs more than once: the trace holds more "
                    "than one recording; re-record it with --trace"
                    % span_id
                )
            self._by_id[span_id] = span
        self.roots: List[Dict[str, object]] = []
        self._children: Dict[int, List[Dict[str, object]]] = {}
        for span in spans:
            parent = span.get("parent")
            if parent in self._by_id:
                self._children.setdefault(parent, []).append(span)
            else:
                self.roots.append(span)

    def span(self, span_id: int) -> Optional[Dict[str, object]]:
        """The span with id ``span_id``, or ``None``."""
        return self._by_id.get(span_id)

    def children(self, span: Dict[str, object]) -> List[Dict[str, object]]:
        """The direct children of ``span``."""
        return self._children.get(span.get("id"), [])

    def subtree(self, root: Dict[str, object]) -> List[Dict[str, object]]:
        """``root`` and every span below it, parents before children."""
        spans: List[Dict[str, object]] = []
        stack = [root]
        while stack:
            span = stack.pop()
            spans.append(span)
            stack.extend(reversed(self.children(span)))
        return spans


def has_timeline(span: Dict[str, object]) -> bool:
    """Does ``span`` carry a ``t0_s`` start offset (span schema >= 2)?"""
    return isinstance(span.get("t0_s"), (int, float))


def require_timeline(spans: Sequence[Dict[str, object]]) -> None:
    """Refuse a non-empty trace none of whose spans has a start offset."""
    if spans and not any(has_timeline(span) for span in spans):
        raise TraceFileError(
            "trace has no t0_s start offsets (span schema < 2); re-record "
            "it with --trace under this version to analyze its timeline"
        )


def _wall(span: Dict[str, object]) -> float:
    return float(span.get("wall_s") or 0.0)


def summarize_spans(spans: List[Dict[str, object]]) -> TraceSummary:
    """Aggregate spans per stage name, computing self times."""
    forest = SpanForest(spans)
    stages: Dict[str, StageLine] = {}
    total_self = 0.0
    for span in spans:
        name = str(span.get("name"))
        line = stages.get(name)
        if line is None:
            line = stages[name] = StageLine(name)
        wall = _wall(span)
        child_wall = sum(_wall(child) for child in forest.children(span))
        self_s = max(wall - child_wall, 0.0)
        line.count += 1
        line.wall_s += wall
        line.self_s += self_s
        line.cpu_s += float(span.get("cpu_s") or 0.0)
        if span.get("status") == "error":
            line.errors += 1
        total_self += self_s

    ordered = sorted(
        stages.values(), key=lambda line: (-line.self_s, line.name)
    )
    return TraceSummary(
        spans=spans, stages=ordered, total_self_s=total_self,
        roots=forest.roots,
    )


def summarize(path: str) -> TraceSummary:
    return summarize_spans(load_spans(path))


def render_table(summary: TraceSummary) -> str:
    """The per-stage breakdown table ``repro trace summarize`` prints."""
    header = "%-24s %7s %12s %12s %10s %7s %7s" % (
        "stage", "count", "total_ms", "self_ms", "mean_ms", "self%", "errors"
    )
    lines = [header, "-" * len(header)]
    total = summary.total_self_s
    for stage in summary.stages:
        share = 100.0 * stage.self_s / total if total > 0 else 0.0
        lines.append(
            "%-24s %7d %12.2f %12.2f %10.3f %6.1f%% %7d"
            % (
                stage.name, stage.count, 1e3 * stage.wall_s,
                1e3 * stage.self_s, stage.mean_ms, share, stage.errors,
            )
        )
    lines.append(
        "%d spans, %d root(s), %.2f ms total self time"
        % (summary.n_spans, len(summary.roots), 1e3 * summary.total_self_s)
    )
    return "\n".join(lines)


def render_tree(summary: TraceSummary, max_depth: Optional[int] = None) -> str:
    """An indented span tree (names + attrs), for debugging traces."""
    forest = SpanForest(summary.spans)
    lines: List[str] = []

    def walk(span: Dict[str, object], depth: int) -> None:
        if max_depth is not None and depth > max_depth:
            return
        attrs = span.get("attrs") or {}
        attr_text = " ".join(
            "%s=%s" % (key, attrs[key]) for key in sorted(attrs)
        )
        status = span.get("status")
        suffix = " [%s]" % status if status != "ok" else ""
        lines.append("%s%s (%.2f ms)%s%s" % (
            "  " * depth, span.get("name"), 1e3 * _wall(span),
            (" " + attr_text) if attr_text else "", suffix,
        ))
        for child in forest.children(span):
            walk(child, depth + 1)

    for root in forest.roots:
        walk(root, 0)
    return "\n".join(lines)

"""Incremental analysis cache for the whole-program lint tier.

Whole-program analysis pays a parse-everything cost on every run; the
cache makes the second run cheap.  Per file we store the content hash,
the JSON-round-trippable module summary the extraction tier produced,
and the per-file findings from the **full** rule set.  On a warm run an
unchanged file costs one hash — no re-read of the AST, no rule visits —
and the project model is rebuilt purely from cached summaries.  Only
an analyzer that lazily demands an AST (the picklability check inspects
a handful of named modules) touches the parser again.

Two design rules keep the cache trustworthy:

* **Findings are cached selection-independent.**  The full rule set
  runs on every miss; ``--select`` filtering happens at report time.
  A cache primed under one selection is therefore valid under every
  other — there is no way to poison a strict run from a lenient one.
* **The schema version is part of the key.**  Any change to summary or
  finding shape bumps :data:`CACHE_VERSION` and silently discards the
  whole file; a stale cache can only ever cost time, never correctness.

The file is written atomically (temp file + ``os.replace``) so an
interrupted run leaves the previous cache intact.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Tuple

#: Bump on any change to the cached summary/finding schema.
CACHE_VERSION = 1


class AnalysisCache:
    """Per-file summaries + findings keyed on content hash."""

    def __init__(self, path: Optional[Path] = None):
        self.path = Path(path) if path is not None else None
        self._entries: Dict[str, Dict[str, object]] = {}
        self.hits = 0
        self.misses = 0
        if self.path is not None and self.path.exists():
            self._load()

    def _load(self) -> None:
        try:
            payload = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, ValueError, UnicodeDecodeError):
            return  # unreadable cache: start cold
        if not isinstance(payload, dict):
            return
        if payload.get("version") != CACHE_VERSION:
            return  # schema changed: discard wholesale
        entries = payload.get("entries")
        if isinstance(entries, dict):
            self._entries = entries

    def get(self, path: str, content_hash: str
            ) -> Optional[Tuple[Dict[str, object], List[Dict[str, object]]]]:
        """Cached ``(summary, findings)`` for an unchanged file, or None."""
        entry = self._entries.get(path)
        if entry is None or entry.get("hash") != content_hash:
            self.misses += 1
            return None
        self.hits += 1
        return entry["summary"], entry["findings"]

    def put(self, path: str, content_hash: str, summary: Dict[str, object],
            findings: List[Dict[str, object]]) -> None:
        self._entries[path] = {
            "hash": content_hash,
            "summary": summary,
            "findings": findings,
        }

    def prune(self, live_paths) -> None:
        """Drop entries for files no longer part of the lint run."""
        live = set(live_paths)
        for path in list(self._entries):
            if path not in live:
                del self._entries[path]

    def save(self) -> None:
        if self.path is None:
            return
        payload = {"version": CACHE_VERSION, "entries": self._entries}
        body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=str(self.path.parent), prefix=self.path.name, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(body)
            os.replace(tmp, str(self.path))
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

"""Deterministic on-disk result cache for characterization runs.

Each cache entry holds the scaled counter values of one application-input
pair collected under one exact collection setup.  The entry key is a
content hash over everything that can change those values:

* the full :class:`~repro.config.SystemConfig` (caches, pipeline,
  predictor, frequency — the simulated substrate),
* the full :class:`~repro.workloads.profile.WorkloadProfile`,
* the sample parameters (``sample_ops``, ``warmup_fraction``) and the
  resolved execution engine,
* the code fingerprint (:func:`repro.hashing.code_fingerprint`, a hash
  of every counter-computing source file) and the cache schema version.

Everything but the profile is the same for every pair of a sweep, so it
is hashed once into a *setup digest*; the key is the hash of that digest
with the profile (:meth:`ResultCache.key` composes both steps).

Because the simulation is deterministic, a cache hit is bitwise identical
to a fresh run; anything that would change the numbers — an input or an
edit to the simulator's source — changes the key, so stale entries are
never *reused*; they are simply unreachable until
:meth:`ResultCache.clear` garbage-collects them.

The default location is ``~/.cache/repro`` and can be overridden with the
``REPRO_CACHE_DIR`` environment variable or per-cache with the
``directory`` argument.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Dict, Optional, Tuple

from ..hashing import code_fingerprint

# Historical homes of the content hash and the default cache directory;
# re-exported from the neutral repro.hashing / repro.paths modules so
# repro.obs can use both without importing the runner.
from ..hashing import content_hash, jsonable
from ..paths import CACHE_DIR_ENV, default_cache_dir

#: Bump to invalidate every existing cache entry on disk (layout changes).
CACHE_SCHEMA = 1


class ResultCache:
    """Content-addressed JSON store of per-pair counter values."""

    def __init__(self, directory: Optional[os.PathLike] = None):
        self.directory = Path(directory) if directory else default_cache_dir()
        #: ``(setup arguments, setup digest)`` of the last :meth:`key`
        #: call; the arguments are held, so their ids cannot be reused.
        self._setup_digest: Tuple[Optional[tuple], str] = (None, "")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "ResultCache(%r)" % str(self.directory)

    def key(
        self,
        config,
        profile,
        sample_ops: int,
        warmup_fraction: float,
        engine: Optional[str] = None,
    ) -> str:
        """The cache key of one (config, profile, sample params) tuple.

        ``engine`` is the *resolved* execution engine ("scalar" or
        "vector"), not the user-facing knob: both engines are parity-
        checked but keyed separately so a regression in either can never
        hide behind the other's cached entries.  ``None`` (legacy
        callers) hashes like the pre-engine layout did not exist —
        it participates in the hash as an explicit null.

        The key is two content hashes: a *setup digest* over everything
        but the profile (schema, code fingerprint, config, sample
        parameters, engine), then a hash of that digest with the profile.
        A sweep passes the same setup objects for every pair, so the
        setup digest is remembered for the last setup seen and reused
        while each argument is that very object.  Identity, not
        equality, decides reuse: ``0.0 == -0.0``, yet the two encode,
        and so key, differently.
        """
        fingerprint = code_fingerprint()
        setup = (fingerprint, config, sample_ops, warmup_fraction, engine)
        last_setup, digest = self._setup_digest
        if last_setup is None or any(
            a is not b for a, b in zip(setup, last_setup)
        ):
            digest = content_hash(
                {
                    "schema": CACHE_SCHEMA,
                    "code_fingerprint": fingerprint,
                    "config": config,
                    "sample_ops": sample_ops,
                    "warmup_fraction": warmup_fraction,
                    "engine": engine,
                }
            )
            # One assignment, so a reader never pairs a setup with
            # another setup's digest.
            self._setup_digest = (setup, digest)
        return content_hash({"setup": digest, "profile": profile})

    def path(self, key: str) -> Path:
        return self.directory / (key + ".json")

    def load(self, key: str) -> Optional[Dict[str, float]]:
        """The stored counter values, or None on miss/corruption."""
        try:
            with open(self.path(key), "r", encoding="utf-8") as handle:
                entry = json.load(handle)
        except (OSError, ValueError):
            return None
        if not isinstance(entry, dict) or entry.get("schema") != CACHE_SCHEMA:
            return None
        values = entry.get("values")
        if not isinstance(values, dict):
            return None
        try:
            return {str(name): float(value) for name, value in values.items()}
        except (TypeError, ValueError):
            return None

    def store(self, key: str, pair_name: str, values: Dict[str, float]) -> Path:
        """Atomically persist one pair's counter values."""
        self.directory.mkdir(parents=True, exist_ok=True)
        entry = {
            "schema": CACHE_SCHEMA,
            "code_fingerprint": code_fingerprint(),
            "pair": pair_name,
            "values": {name: float(value) for name, value in values.items()},
        }
        # Encoded in one piece by the C encoder (json.dump streams through
        # the pure-Python one); the bytes are the same either way.
        payload = json.dumps(entry, sort_keys=True).encode("utf-8")
        descriptor, tmp_name = tempfile.mkstemp(
            dir=str(self.directory), suffix=".tmp"
        )
        try:
            with os.fdopen(descriptor, "wb") as handle:
                handle.write(payload)
            path = self.path(key)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return path

    def entry_count(self) -> int:
        """Number of entries currently on disk."""
        try:
            return sum(1 for _ in self.directory.glob("*.json"))
        except OSError:
            return 0

    def clear(self) -> int:
        """Delete every cache entry; returns the number removed."""
        removed = 0
        if not self.directory.is_dir():
            return removed
        for path in self.directory.glob("*.json"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

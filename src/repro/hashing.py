"""Canonical content hashing shared by the cache, ledger, and linter.

This module is the layering-neutral home of the repository's two
identity hashes: the content hash, a SHA-256 over the canonical JSON
encoding of arbitrarily nested dataclasses, enums, containers, and
scalars; and the code fingerprint, a SHA-256 over the source of every
module that computes counter values.  The content hash was
extracted from :mod:`repro.runner.cache` (which re-exports it unchanged)
so that lower layers — :mod:`repro.obs` in particular — can hash material
without importing the runner, keeping the import graph acyclic and the
layer ordering enforceable by ``repro lint --project`` (rule LAY001).

It must stay dependency-free: importing anything above the error layer
from here would reintroduce exactly the cycle it exists to break.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import json
from pathlib import Path
from typing import Dict, List, Optional, Tuple

#: Package-relative modules and packages whose source decides counter
#: values: the substrate config, the error types the engines raise, this
#: module, the workload models, both execution engines, and the perf
#: counter layer.  ``repro.obs`` is deliberately absent: its hooks time
#: and record work but never change a counter.
FINGERPRINT_SOURCES = (
    "config.py", "errors.py", "hashing.py", "workloads", "uarch", "perf",
)

#: The imported ``repro`` package directory the fingerprint reads from.
_PACKAGE_ROOT = Path(__file__).resolve().parent


#: Exact types :func:`jsonable` returns unchanged without further checks.
_SCALAR_TYPES = frozenset((str, int, float, bool, type(None)))

#: Field names of each dataclass type :func:`jsonable` has met, or None
#: for a type that is not a dataclass.
_FIELD_NAMES: Dict[type, Optional[Tuple[str, ...]]] = {}


def _field_names(kind: type) -> Optional[Tuple[str, ...]]:
    try:
        return _FIELD_NAMES[kind]
    except KeyError:
        pass
    names = None
    if dataclasses.is_dataclass(kind):
        names = tuple(f.name for f in dataclasses.fields(kind))
    _FIELD_NAMES[kind] = names
    return names


def jsonable(obj):
    """Recursively convert dataclasses/enums/tuples to JSON-safe values.

    The exact JSON types are dispatched first, since a hashed object is
    almost all of them.  Everything else takes the general branches in
    their historical order — dataclass instance, enum, list or tuple
    subclass, dict subclass, anything else unchanged — so the output,
    and every content hash over it, never depends on which path ran.
    """
    kind = type(obj)
    if kind in _SCALAR_TYPES:
        return obj
    if kind is dict:
        return {str(key): jsonable(value) for key, value in obj.items()}
    if kind is list or kind is tuple:
        return [jsonable(item) for item in obj]
    names = _field_names(kind)
    if names is not None:
        return {name: jsonable(getattr(obj, name)) for name in names}
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, (list, tuple)):
        return [jsonable(item) for item in obj]
    if isinstance(obj, dict):
        return {str(key): jsonable(value) for key, value in obj.items()}
    return obj


def content_hash(material) -> str:
    """SHA-256 over the canonical JSON encoding of ``material``."""
    payload = json.dumps(
        jsonable(material), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def fingerprint_files() -> List[Path]:
    """The source files :func:`code_fingerprint` hashes, in hash order
    (sorted by package-relative POSIX path)."""
    files: List[Path] = []
    for name in FINGERPRINT_SOURCES:
        path = _PACKAGE_ROOT / name
        files.extend(path.rglob("*.py") if path.is_dir() else [path])
    return sorted(files, key=_relative_name)


def _relative_name(path: Path) -> str:
    return path.relative_to(_PACKAGE_ROOT).as_posix()


@functools.lru_cache(maxsize=None)
def code_fingerprint() -> str:
    """SHA-256 over the paths and bytes of every counter-computing source
    file (:data:`FINGERPRINT_SOURCES`).

    Any edit to the simulator — an engine, a workload model, a counter
    formula — changes the fingerprint, so result-cache keys and ledger
    records identify the exact code that produced them.  Computed once
    per process; the files are read from the imported package itself.
    """
    digest = hashlib.sha256()
    for path in fingerprint_files():
        source = path.read_bytes()
        relative = _relative_name(path).encode("utf-8")
        # Length-prefixed records: no two file sets hash alike.
        digest.update(b"%d:%s\0%d:" % (len(relative), relative, len(source)))
        digest.update(source)
    return digest.hexdigest()

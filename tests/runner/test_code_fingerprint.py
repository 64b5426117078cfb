"""The result cache is keyed on the code that computes the counters.

The key folds in :func:`repro.hashing.code_fingerprint`, a hash of every
counter-computing source file.  These tests break the engine in a
throwaway copy of the package and check that a cached pair can no longer
be served, and that the fingerprinted file set covers everything the
perf session imports.
"""

import ast
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import repro
from repro.hashing import fingerprint_files
from repro.lint.project import Project, summarize_module

PACKAGE = Path(repro.__file__).resolve().parent

#: Runs one pair through the cache, then without it, in whatever copy of
#: the package is first on the path; prints fingerprint, hit count and
#: both counter sets as JSON.
PROBE = """
import json, sys
from repro.hashing import code_fingerprint
from repro.runner import SuiteRunner
from repro.workloads import cpu2017
from repro.workloads.profile import InputSize

pair = cpu2017().get("505.mcf_r").profile(InputSize.REF)

def sweep(use_cache):
    runner = SuiteRunner(sample_ops=5000, workers=1, cache_dir=sys.argv[1],
                         use_cache=use_cache, use_ledger=False)
    result = runner.run([pair])
    return result.manifest.cache_hits, dict(result.report(pair.pair_name))

hits, cached = sweep(True)
_, fresh = sweep(False)
print(json.dumps({"fingerprint": code_fingerprint(), "hits": hits,
                  "cached": cached, "fresh": fresh}))
"""

#: The vector engine's conditional-mispredict count, and a broken one.
MISPREDICTS = "mispredictions=int(np.count_nonzero(mispredicted[cond_warmup:])),"
BROKEN = "mispredictions=int(np.count_nonzero(mispredicted[cond_warmup:])) // 30,"


def probe(source_root, cache_dir):
    env = dict(os.environ, PYTHONPATH=str(source_root),
               PYTHONDONTWRITEBYTECODE="1")
    result = subprocess.run(
        [sys.executable, "-c", PROBE, str(cache_dir)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


class TestFingerprint:
    def test_hashes_the_counter_computing_sources(self):
        names = {
            path.relative_to(PACKAGE).as_posix() for path in fingerprint_files()
        }
        assert {"config.py", "errors.py", "hashing.py", "uarch/vector.py",
                "uarch/core.py", "workloads/generator.py",
                "perf/session.py"} <= names
        assert not any(name.startswith(("obs/", "runner/", "lint/"))
                       for name in names)

    def test_engine_edit_misses_the_cache(self, tmp_path):
        source_root = tmp_path / "src"
        shutil.copytree(
            PACKAGE, source_root / "repro",
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        cache_dir = tmp_path / "cache"
        before = probe(source_root, cache_dir)
        assert before["hits"] == 0
        assert before["cached"] == before["fresh"]

        vector = source_root / "repro" / "uarch" / "vector.py"
        text = vector.read_text(encoding="utf-8")
        assert text.count(MISPREDICTS) == 1
        vector.write_text(text.replace(MISPREDICTS, BROKEN), encoding="utf-8")

        after = probe(source_root, cache_dir)
        assert after["fingerprint"] != before["fingerprint"]
        assert after["hits"] == 0  # the stale entry is unreachable
        assert after["cached"] == after["fresh"]
        assert after["fresh"] != before["fresh"]  # the edit did bite


class TestCoverage:
    def test_covers_the_perf_session_import_closure(self):
        """Every module ``repro.perf.session`` reaches, lazily or not,
        is fingerprinted; the ``repro.obs`` seam only observes."""
        summaries = []
        for path in sorted(PACKAGE.rglob("*.py")):
            source = path.read_text(encoding="utf-8")
            summaries.append(
                summarize_module(str(path), source, ast.parse(source))
            )
        project = Project(summaries)
        edges = project.import_edges()
        closure, todo = set(), ["repro.perf.session"]
        while todo:
            module = todo.pop()
            if module in closure or module.split(".")[:2] == ["repro", "obs"]:
                continue
            closure.add(module)
            todo.extend(edge["target"] for edge in edges[module])
        assert "repro.uarch.vector" in closure
        fingerprinted = {str(path) for path in fingerprint_files()}
        missing = sorted(
            module for module in closure
            if project.path_of(module) not in fingerprinted
        )
        assert missing == []

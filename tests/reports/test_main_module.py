"""``python -m repro`` must work as a process entry point."""

import os
import subprocess
import sys

import repro
from repro.obs import Tracer


def run_module(*args):
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True, text=True, timeout=300,
    )


class TestMainModule:
    def test_list(self):
        result = run_module("list")
        assert result.returncode == 0
        assert "table10" in result.stdout

    def test_version(self):
        result = run_module("--version")
        assert result.returncode == 0

    def test_pair(self):
        result = run_module("--sample-ops", "5000", "pair", "505.mcf_r")
        assert result.returncode == 0
        assert "IPC" in result.stdout

    def test_startup_does_not_load_lint_stack(self):
        """Importing the CLI leaves ``repro.lint`` to ``repro lint``."""
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        probe = ("import sys, repro.reports.cli; "
                 "print(sorted(m for m in sys.modules "
                 "if m == 'repro.lint' or m.startswith('repro.lint.')))")
        result = subprocess.run(
            [sys.executable, "-c", probe],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, timeout=300,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

    def test_startup_does_not_load_trace_analyzers(self):
        """Importing the CLI leaves the offline analyzers to the
        subcommands that use them."""
        analyzers = ["repro.obs.%s" % name for name in (
            "critical", "drift", "profiler", "summarize", "timeline",
        )]
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        probe = ("import sys, repro.reports.cli; "
                 "print(sorted(m for m in sys.modules if m in %r))"
                 % (analyzers,))
        result = subprocess.run(
            [sys.executable, "-c", probe],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, timeout=300,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

    def test_bad_subcommand(self):
        result = run_module("explode")
        assert result.returncode != 0

    def test_closed_stdout_pipe_exits_quietly(self, tmp_path):
        """``repro trace summarize t.jsonl --tree | head -1``: the reader
        leaves after one line, long before the tree is written."""
        trace_path = tmp_path / "t.jsonl"
        tracer = Tracer(sink_path=str(trace_path))
        for index in range(3000):
            with tracer.span("pair.run", pair="p%d" % index):
                with tracer.span("trace.gen"):
                    pass
        tracer.close()
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "trace", "summarize",
             str(trace_path), "--tree"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        assert process.stdout.readline().startswith(b"stage")
        process.stdout.close()
        stderr = process.stderr.read()
        assert process.wait(timeout=300) == 0
        assert b"Traceback" not in stderr
        assert b"BrokenPipeError" not in stderr

"""End-to-end benchmark of ``repro run all``; see ``perfbench/README.md``."""

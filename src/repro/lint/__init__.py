"""``repro.lint`` — the repository's own static-analysis pass.

Two tiers:

* **Per-file rules** — AST checks a single file can prove: no ambient
  randomness (the result cache assumes bit-identical replay), picklable
  pool/cache-crossing types, no float equality in the analysis layers,
  counter names sourced from :mod:`repro.perf.counters` only, no
  mutable defaults, and seed parameters on every public RNG-constructing
  function.
* **Whole-program analyzers** (``--project``) — invariants that only
  hold across module boundaries: layer ordering and import cycles
  (LAY001), seed-taint dataflow through the call graph (SEED010), and
  transitive picklability of the worker result channel (PKL010).

Run it as ``python -m repro lint [paths]`` (add ``--project`` for the
second tier); suppress a finding in place with ``# repro: noqa[RULE001]``
(or a bare ``# repro: noqa``), or a whole file with a
``# repro: noqa-file[RULE001]`` directive in the first five lines.
Register project-specific rules with :func:`repro.lint.rules.register`
and analyzers with :func:`repro.lint.analyzers.register_analyzer`.
"""

from .analyzers import (
    ProjectAnalyzer,
    active_analyzers,
    all_analyzers,
    analyzer_ids,
    get_analyzer,
    register_analyzer,
)
from .baseline import Baseline, fingerprint
from .cache import AnalysisCache
from .engine import (
    PARSE_RULE_ID,
    FileContext,
    Finding,
    LintRun,
    file_suppressions,
    iter_python_files,
    line_suppressions,
    lint_paths,
    lint_source,
    run_lint,
)
from .project import Project, summarize_module
from .reporters import render, render_json, render_sarif, render_text
from .rules import Rule, active_rules, all_rules, get_rule, register, rule_ids

__all__ = [
    "PARSE_RULE_ID",
    "AnalysisCache",
    "Baseline",
    "FileContext",
    "Finding",
    "LintRun",
    "Project",
    "ProjectAnalyzer",
    "Rule",
    "active_analyzers",
    "active_rules",
    "all_analyzers",
    "all_rules",
    "analyzer_ids",
    "file_suppressions",
    "fingerprint",
    "get_analyzer",
    "get_rule",
    "iter_python_files",
    "line_suppressions",
    "lint_paths",
    "lint_source",
    "register",
    "register_analyzer",
    "render",
    "render_json",
    "render_sarif",
    "render_text",
    "rule_ids",
    "run_lint",
    "summarize_module",
]

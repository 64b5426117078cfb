"""Stable public facade of the ``repro`` package.

Everything downstream code needs lives here under one import::

    from repro.api import SuiteRunner, cpu2017, InputSize

``repro.api`` re-exports from the implementation modules but adds no logic
of its own; its :data:`__all__` is the compatibility contract.  Names may
be *added* here over time, but an existing name never changes meaning or
disappears without a deprecation cycle.  Deep imports
(``repro.uarch.core``, ``repro.workloads.generator``, ...) still work but
are implementation detail: they may move between releases, and the
``API001`` lint rule keeps the shipped examples and docs off them.

The facade groups into:

- **Suites and workloads** — :func:`cpu2017`, :func:`cpu2006`,
  :class:`WorkloadProfile` and its mix/behavior components.
- **Collection** — :class:`PerfSession`, :class:`SuiteRunner`,
  :class:`ResultCache`, :class:`CounterReport`.
- **Simulation** — :class:`SimulatedCore`, :class:`TraceGenerator`,
  :func:`solve_pipeline_params`, configs and presets.
- **Analysis** — :class:`Characterizer`, :class:`SubsetSelector`,
  :func:`feature_vector`, the phase-analysis toolkit.
- **Observability** — :class:`Tracer`, :class:`MetricsRegistry`, the
  run ledger and drift watchdog (:class:`RunLedger`,
  :func:`check_ledger`), and the :mod:`repro.obs` module itself for
  ``obs.enable()`` / ``obs.profile()``.
- **Errors** — the full exception hierarchy rooted at :class:`ReproError`.
"""

from __future__ import annotations

from . import obs
from .config import (
    CacheConfig,
    PipelineConfig,
    SystemConfig,
    get_config,
    haswell_e5_2650l_v3,
)
from .core import (
    Characterizer,
    SubsetResult,
    SubsetSelector,
    feature_matrix,
    feature_vector,
)
from .errors import (
    AnalysisError,
    ClusteringError,
    CollectionError,
    ConfigError,
    CounterError,
    CounterValidationError,
    ExperimentError,
    LintError,
    ReproError,
    SimulationError,
    UnknownBenchmarkError,
    WorkloadError,
)
from .obs import MetricsRegistry, RunLedger, Tracer
from .obs.critical import (
    CriticalPathReport,
    UtilizationReport,
    critical_path,
    utilization,
)
from .obs.drift import (
    DriftDetector,
    DriftReport,
    DriftThresholds,
    check_ledger,
)
from .obs.profiler import SpanProfiler
from .obs.summarize import load_spans
from .obs.timeline import chrome_trace, export_chrome_trace
from .perf import CounterReport, PerfSession
from .phases import (
    PhaseDetector,
    PhasedTraceGenerator,
    PhasedWorkload,
    Schedule,
    estimate_from_simulation_points,
    make_phases,
)
from .runner import (
    PairFailure,
    ResultCache,
    RunManifest,
    SuiteRunner,
    SuiteRunResult,
)
from .uarch.core import SimulatedCore
from .workloads import (
    BenchmarkSuite,
    InputSize,
    MiniSuite,
    WorkloadProfile,
    cpu2006,
    cpu2017,
)
from .workloads.calibrate import solve_pipeline_params
from .workloads.generator import TraceGenerator
from .workloads.profile import (
    BranchBehavior,
    BranchMix,
    InstructionMix,
    MemoryBehavior,
)

__all__ = [
    # Suites and workloads
    "BenchmarkSuite",
    "BranchBehavior",
    "BranchMix",
    "InputSize",
    "InstructionMix",
    "MemoryBehavior",
    "MiniSuite",
    "WorkloadProfile",
    "cpu2006",
    "cpu2017",
    # Collection
    "CounterReport",
    "PairFailure",
    "PerfSession",
    "ResultCache",
    "RunManifest",
    "SuiteRunResult",
    "SuiteRunner",
    # Simulation
    "CacheConfig",
    "PipelineConfig",
    "SimulatedCore",
    "SystemConfig",
    "TraceGenerator",
    "get_config",
    "haswell_e5_2650l_v3",
    "solve_pipeline_params",
    # Analysis
    "Characterizer",
    "PhaseDetector",
    "PhasedTraceGenerator",
    "PhasedWorkload",
    "Schedule",
    "SubsetResult",
    "SubsetSelector",
    "estimate_from_simulation_points",
    "feature_matrix",
    "feature_vector",
    "make_phases",
    # Observability
    "CriticalPathReport",
    "DriftDetector",
    "DriftReport",
    "DriftThresholds",
    "MetricsRegistry",
    "RunLedger",
    "SpanProfiler",
    "Tracer",
    "UtilizationReport",
    "check_ledger",
    "chrome_trace",
    "critical_path",
    "export_chrome_trace",
    "load_spans",
    "obs",
    "utilization",
    # Errors
    "AnalysisError",
    "ClusteringError",
    "CollectionError",
    "ConfigError",
    "CounterError",
    "CounterValidationError",
    "ExperimentError",
    "LintError",
    "ReproError",
    "SimulationError",
    "UnknownBenchmarkError",
    "WorkloadError",
]

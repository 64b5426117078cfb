"""Outside-in layer timing for the benchmark's traced samples.

:class:`LayerTimer` replaces public functions of each ``repro`` layer with
timing wrappers inside the benchmark's own sample process; no program file
changes.  A wrapper records calls, wall time and self time, where self time
is a call's wall time minus the wall time of the wrapped calls it made.

Pool workers of the ``cold-pooled`` workload are timed too: the timer also
swaps the runner's worker initializer and task function for the two hooks
below, which time the worker side and leave one stats file per worker in
the directory named by ``$PERFBENCH_STATS_DIR``.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: The wrapped public functions, as (module, qualified name).
TARGETS: Tuple[Tuple[str, str], ...] = (
    ("repro.workloads.generator", "TraceGenerator.generate"),
    ("repro.uarch.vector", "analyze_trace"),
    ("repro.uarch.vector", "execute_vector"),
    ("repro.uarch.core", "SimulatedCore.run"),
    ("repro.perf.session", "PerfSession.run"),
    ("repro.perf.report", "CounterReport.validate"),
    ("repro.runner.cache", "ResultCache.key"),
    ("repro.runner.cache", "ResultCache.load"),
    ("repro.runner.cache", "ResultCache.store"),
    ("repro.runner.runner", "SuiteRunner.run"),
    ("repro.obs.ledger", "build_run_record"),
    ("repro.obs.ledger", "RunLedger.append"),
    ("repro.core.metrics", "PairMetrics.from_report"),
    ("repro.core.subset", "SubsetSelector.select"),
    ("repro.core.subset", "SubsetSelector.sweep"),
    ("repro.stats.pca", "PCA.fit_transform"),
    ("repro.stats.cluster", "AgglomerativeClustering.fit"),
    ("repro.stats.cluster", "ClusteringResult.labels"),
    ("repro.reports.experiments", "run_experiment"),
)

#: Per-layer metrics: (name, unit, better, the end-to-end metric and
#: workload a change to that layer should move).
PER_LAYER: Tuple[Tuple[str, str, str, str], ...] = (
    ("setup.import_s", "s", "lower",
     "setup_s on all workloads; largest relative effect on warm-inline"),
    ("setup.repro_modules", "count", "lower",
     "setup_s on all workloads; largest relative effect on warm-inline"),
    ("workloads.generate_s", "s", "lower",
     "run_s, pair_p50_ms on cold-inline and cold-pooled; 0 on warm-inline"),
    ("workloads.generate_calls", "count", "lower",
     "run_s on cold-inline and cold-pooled; 0 calls on warm-inline"),
    ("uarch.analyze_s", "s", "lower",
     "run_s, pair_p50_ms on cold-inline and cold-pooled; 0 on warm-inline"),
    ("uarch.execute_s", "s", "lower",
     "run_s, pair_p50_ms on cold-inline and cold-pooled; 0 on warm-inline"),
    ("uarch.core_self_s", "s", "lower",
     "run_s, pair_p50_ms on cold-inline and cold-pooled; 0 on warm-inline"),
    ("uarch.scalar_fallbacks", "count", "lower",
     "run_s on cold-inline and cold-pooled"),
    ("uarch.sim_mops_per_s", "Mop/s", "higher",
     "run_s, pair_p50_ms on cold-inline and cold-pooled"),
    ("perf.session_self_s", "s", "lower",
     "run_s on cold-inline; pair_p50_ms on warm-inline"),
    ("perf.validate_s", "s", "lower",
     "run_s on cold-inline; pair_p50_ms on warm-inline"),
    ("perf.validate_per_pair", "calls/pair", "lower",
     "run_s on cold-inline; pair_p50_ms on warm-inline"),
    ("runner.cache_key_s", "s", "lower",
     "run_s and pair_p50_ms on warm-inline"),
    ("runner.cache_load_s", "s", "lower",
     "run_s and pair_p50_ms on warm-inline"),
    ("runner.cache_store_s", "s", "lower", "run_s on cold-inline"),
    ("runner.cache_hit_ratio", "ratio", "higher",
     "pair_p50_ms on warm-inline (1 there, 0 on the cold workloads)"),
    ("runner.sweep_self_s", "s", "lower",
     "run_s on cold-pooled (pool start-up, scheduling, waiting)"),
    ("runner.pool_busy_ratio", "ratio", "higher", "run_s on cold-pooled only"),
    ("runner.retries", "count", "lower", "run_s on every workload"),
    ("obs.ledger_s", "s", "lower", "run_s on warm-inline"),
    ("core.metrics_s", "s", "lower", "run_s on warm-inline"),
    ("core.metrics_per_pair", "calls/pair", "lower", "run_s on warm-inline"),
    ("core.subset_s", "s", "lower", "run_s on warm-inline"),
    ("stats.pca_s", "s", "lower", "run_s on warm-inline"),
    ("stats.cluster_s", "s", "lower", "run_s on warm-inline"),
    ("stats.cluster_fits", "count", "lower", "run_s on warm-inline"),
    ("stats.labels_s", "s", "lower", "run_s on warm-inline"),
    ("reports.render_s", "s", "lower", "run_s on warm-inline"),
    ("bench.trace_overhead_pct", "%", "lower",
     "none: checks that the traced run is trustworthy"),
    ("bench.unattributed_s", "s", "lower",
     "none: checks that the traced run is trustworthy"),
)

#: Wrapper metrics and the program's span stages that time the same work,
#: for the span-stream cross-check.  ``engine.exec`` opens inside
#: ``SimulatedCore.run`` around the engine call; the branch and memory
#: stages are recorded under it after the fact.
SPAN_PEERS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("workloads.generate_s", ("trace.gen",)),
    ("uarch.analyze_s", ("engine.vector.analyze",)),
    ("uarch.execute_s",
     ("engine.exec", "engine.vector.branch", "engine.vector.memory")),
    ("perf.validate_s", ("counters.validate",)),
)

STATS_DIR_ENV = "PERFBENCH_STATS_DIR"
_RUNNER_MODULE = "repro.runner.runner"
_MARK = "__perfbench_layer__"

#: The installed timer of this process (one at most).
_ACTIVE: Optional["LayerTimer"] = None

Stats = Dict[str, List[float]]  # target -> [calls, wall_s, self_s]


class LayerTimer:
    """Times every target in :data:`TARGETS` while installed."""

    def __init__(self) -> None:
        self.stats: Stats = {}
        self._stack: List[List[float]] = []
        self._patches: List[Tuple[object, str, object]] = []
        self._epoch = time.monotonic_ns()

    def __enter__(self) -> "LayerTimer":
        return self.install()

    def __exit__(self, *exc_info) -> bool:
        self.uninstall()
        return False

    def install(self) -> "LayerTimer":
        global _ACTIVE
        if _ACTIVE is not None:
            raise RuntimeError("layer wrappers are already installed")
        for module_name, qualname in TARGETS:
            self._patch_target(module_name, qualname)
        runner = importlib.import_module(_RUNNER_MODULE)
        self._set(runner, "_init_worker", worker_init)
        self._set(runner, "_run_pair", worker_run_pair)
        _ACTIVE = self
        return self

    def uninstall(self) -> None:
        global _ACTIVE
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        _ACTIVE = None

    def reset(self) -> None:
        """Forget all totals and open calls (a forked worker inherits both)."""
        self.stats = {}
        self._stack = []
        self._epoch = time.monotonic_ns()

    def original(self, owner: object, attr: str) -> object:
        for patched_owner, patched_attr, value in self._patches:
            if patched_owner is owner and patched_attr == attr:
                return value
        raise KeyError(attr)

    def dump(self, directory: str) -> None:
        path = os.path.join(
            directory, "worker-%d-%d.json" % (os.getpid(), self._epoch)
        )
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.stats, handle)

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _patch_target(self, module_name: str, qualname: str) -> None:
        module = importlib.import_module(module_name)
        if "." in qualname:
            class_name, attr = qualname.split(".")
            owner = getattr(module, class_name)
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.wrap(qualname, raw.__func__))
            else:
                wrapped = self.wrap(qualname, raw)
            self._set(owner, attr, wrapped)
            return
        # A module-level function is also bound by name in every module
        # that imported it; rebind each binding.
        original = getattr(module, qualname)
        wrapper = self.wrap(qualname, original)
        for name, loaded in list(sys.modules.items()):
            if loaded is None or name.split(".")[0] != "repro":
                continue
            for attr, value in list(vars(loaded).items()):
                if value is original:
                    self._set(loaded, attr, wrapper)

    def wrap(self, target: str, func: Callable) -> Callable:
        """``func`` with its calls timed under ``target``."""
        timer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            frame = [0.0]  # wall time of wrapped calls made from this one
            timer._stack.append(frame)
            started = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                wall = time.perf_counter() - started
                timer._stack.pop()
                if timer._stack:
                    timer._stack[-1][0] += wall
                stat = timer.stats.setdefault(target, [0, 0.0, 0.0])
                stat[0] += 1
                stat[1] += wall
                stat[2] += wall - frame[0]

        setattr(wrapper, _MARK, target)
        return wrapper


def wrapped_targets() -> List[str]:
    """Targets whose current binding is a wrapper (empty when unpatched)."""
    found = []
    for module_name, qualname in TARGETS:
        module = importlib.import_module(module_name)
        if "." in qualname:
            class_name, attr = qualname.split(".")
            raw = vars(getattr(module, class_name))[attr]
            value = raw.__func__ if isinstance(raw, classmethod) else raw
        else:
            value = getattr(module, qualname)
        if hasattr(value, _MARK):
            found.append(qualname)
    runner = importlib.import_module(_RUNNER_MODULE)
    for attr in ("_init_worker", "_run_pair"):
        if getattr(runner, attr).__module__ != _RUNNER_MODULE:
            found.append(attr)
    return found


def worker_init(*args) -> None:
    """Pool initializer: time this worker, then run the runner's own."""
    timer = _ACTIVE if _ACTIVE is not None else LayerTimer().install()
    timer.reset()
    runner = importlib.import_module(_RUNNER_MODULE)
    timer.original(runner, "_init_worker")(*args)


def worker_run_pair(*args):
    """Pool task: the runner's own, then this worker's totals to disk."""
    runner = importlib.import_module(_RUNNER_MODULE)
    result = _ACTIVE.original(runner, "_run_pair")(*args)
    _ACTIVE.dump(os.environ[STATS_DIR_ENV])
    return result


def load_worker_stats(directory: str) -> Stats:
    """Sum the stats files the pool workers left in ``directory``."""
    total: Stats = {}
    for name in sorted(os.listdir(directory)):
        if name.startswith("worker-") and name.endswith(".json"):
            path = os.path.join(directory, name)
            with open(path, encoding="utf-8") as handle:
                merge(total, json.load(handle))
    return total


def merge(into: Stats, other: Stats) -> Stats:
    for target, values in other.items():
        stat = into.setdefault(target, [0, 0.0, 0.0])
        for index, value in enumerate(values):
            stat[index] += value
    return into


def derive(
    stats: Stats,
    records: Sequence[Sequence[object]],
    sweeps: Sequence[Sequence[float]],
    sample_ops: int,
) -> Dict[str, float]:
    """The per-layer metrics of one traced sample.

    ``records`` are the run's manifest lines ``(pair, seconds, cached,
    attempts, error)`` and ``sweeps`` its ``(workers, wall_s)`` pairs.
    The setup and bench metrics come from elsewhere.
    """
    def calls(target: str) -> float:
        return stats.get(target, [0, 0.0, 0.0])[0]

    def wall(target: str) -> float:
        return stats.get(target, [0, 0.0, 0.0])[1]

    def self_s(*targets: str) -> float:
        return sum(stats.get(t, [0, 0.0, 0.0])[2] for t in targets)

    pairs = len(records) or 1
    core_wall = wall("SimulatedCore.run")
    capacity = sum(workers * seconds for workers, seconds in sweeps)
    busy = sum(record[1] for record in records if not record[2])
    return {
        "workloads.generate_s": self_s("TraceGenerator.generate"),
        "workloads.generate_calls": calls("TraceGenerator.generate"),
        "uarch.analyze_s": self_s("analyze_trace"),
        "uarch.execute_s": self_s("execute_vector"),
        "uarch.core_self_s": self_s("SimulatedCore.run"),
        "uarch.scalar_fallbacks":
            calls("SimulatedCore.run") - calls("execute_vector"),
        "uarch.sim_mops_per_s": (
            calls("TraceGenerator.generate") * sample_ops / 1e6 / core_wall
            if core_wall > 0 else 0.0
        ),
        "perf.session_self_s": self_s("PerfSession.run"),
        "perf.validate_s": self_s("CounterReport.validate"),
        "perf.validate_per_pair": calls("CounterReport.validate") / pairs,
        "runner.cache_key_s": self_s("ResultCache.key"),
        "runner.cache_load_s": self_s("ResultCache.load"),
        "runner.cache_store_s": self_s("ResultCache.store"),
        "runner.cache_hit_ratio":
            sum(1 for record in records if record[2]) / pairs,
        "runner.sweep_self_s": self_s("SuiteRunner.run"),
        "runner.pool_busy_ratio": busy / capacity if capacity > 0 else 0.0,
        "runner.retries": sum(max(0, record[3] - 1) for record in records),
        "obs.ledger_s": self_s("build_run_record", "RunLedger.append"),
        "core.metrics_s": self_s("PairMetrics.from_report"),
        "core.metrics_per_pair": calls("PairMetrics.from_report") / pairs,
        "core.subset_s":
            self_s("SubsetSelector.select", "SubsetSelector.sweep"),
        "stats.pca_s": self_s("PCA.fit_transform"),
        "stats.cluster_s": self_s("AgglomerativeClustering.fit"),
        "stats.cluster_fits": calls("AgglomerativeClustering.fit"),
        "stats.labels_s": self_s("ClusteringResult.labels"),
        "reports.render_s": self_s("run_experiment"),
    }

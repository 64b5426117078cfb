"""Tests of the benchmark itself: ``python -m pytest perfbench -q``."""

from __future__ import annotations

import json
import os
import re
import sys
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for path in (ROOT, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from perfbench import layers, run, sample  # noqa: E402
from perfbench.layers import LayerTimer  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _bindings():
    """Every function-like attribute of every loaded repro module/class."""
    found = {}
    for name, module in list(sys.modules.items()):
        if module is None or name.split(".")[0] != "repro":
            continue
        for attr, value in vars(module).items():
            found[(name, attr)] = value
            if isinstance(value, type):
                for member, raw in vars(value).items():
                    found[(name, attr, member)] = raw
    return found


def test_nested_self_time_partitions_parent_wall():
    timer = LayerTimer()
    child = timer.wrap("child", lambda: time.sleep(0.002))

    def body():
        time.sleep(0.001)
        child()
        child()

    timer.wrap("parent", body)()
    calls, wall, self_s = timer.stats["parent"]
    child_calls, child_wall, child_self = timer.stats["child"]
    assert (calls, child_calls) == (1, 2)
    assert child_self == child_wall
    assert self_s + child_wall == pytest.approx(wall, rel=1e-12)
    assert 0 < self_s < wall


def test_uninstall_restores_every_binding():
    import repro.reports.cli  # noqa: F401  (load the whole program)

    before = _bindings()
    assert layers.wrapped_targets() == []
    with LayerTimer():
        assert len(layers.wrapped_targets()) == len(layers.TARGETS) + 2
        with pytest.raises(RuntimeError):
            LayerTimer().install()
    assert layers.wrapped_targets() == []
    after = _bindings()
    assert before.keys() == after.keys()
    assert all(after[key] is value for key, value in before.items())


def test_untraced_sample_refuses_patched_code(tmp_path):
    with LayerTimer():
        with pytest.raises(RuntimeError, match="wrappers"):
            sample.main([
                "--cache-dir", str(tmp_path), "--jobs", "1",
                "--spawned-at", str(time.monotonic()),
            ])
    assert not (tmp_path / "ledger.jsonl").exists()


def test_pool_workers_report_their_layers(tmp_path, monkeypatch):
    from repro.runner import SuiteRunner
    from repro.workloads.spec2017 import cpu2017

    profiles = [p.profile for p in cpu2017().pairs()[:3]]
    monkeypatch.setenv(layers.STATS_DIR_ENV, str(tmp_path))
    with LayerTimer() as timer:
        result = SuiteRunner(
            sample_ops=2000, workers=2, use_cache=False, use_ledger=False,
        ).run(profiles)
    assert result.ok
    assert "TraceGenerator.generate" not in timer.stats
    workers = layers.load_worker_stats(str(tmp_path))
    assert workers["TraceGenerator.generate"][0] == 3
    assert workers["PerfSession.run"][0] == 3


def test_metric_and_workload_names():
    names = [m[0] for m in run.END_TO_END] + [m[0] for m in layers.PER_LAYER]
    names += list(run.WORKLOADS)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name


def test_benchmark_json_matches_the_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert spec["workloads"] == [
        {"name": name, "why": workload.why}
        for name, workload in run.WORKLOADS.items()
    ]
    assert spec["end_to_end"] == [
        {"name": n, "unit": u, "better": b, "bound": bound}
        for n, u, b, bound in run.END_TO_END
    ]
    assert spec["per_layer"] == [
        {"name": n, "unit": u, "better": b} for n, u, b, _ in layers.PER_LAYER
    ]


def test_derive_covers_the_traced_layers():
    derived = layers.derive({}, [("a/ref", 0.01, True, 0, None)], [(1, 0.1)],
                            60000)
    traced = {m[0] for m in layers.PER_LAYER
              if not m[0].startswith(("setup.", "bench."))}
    assert set(derived) == traced
    assert derived["runner.cache_hit_ratio"] == 1.0
    assert derived["uarch.sim_mops_per_s"] == 0.0


def test_host_speed_scaling():
    from perfbench import calibrate

    assert calibrate.kernel() == calibrate.kernel()
    ref = calibrate.REFERENCE_S
    # The fastest reading on each side counts; a slow host scales down.
    assert calibrate.scale(
        {"before": [3 * ref, ref], "after": [ref, 5 * ref]}
    ) == pytest.approx(1.0)
    factor = calibrate.scale({"before": [2 * ref], "after": [2 * ref]})
    assert factor == pytest.approx(0.5)
    scaled = run._scale_layers(
        {"uarch.execute_s": 2.0, "uarch.sim_mops_per_s": 10.0,
         "workloads.generate_calls": 223},
        factor,
    )
    assert scaled == {"uarch.execute_s": 1.0, "uarch.sim_mops_per_s": 20.0,
                      "workloads.generate_calls": 223}

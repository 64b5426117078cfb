"""End-to-end benchmark of ``repro run all``.

Run from the root of a checkout::

    python3 perfbench/run.py --workload cold-inline --seed 1 --seconds 30 \
        --trace 0
    python3 perfbench/run.py --workload all --seconds 30 --trace 1

Traffic model: closed loop, one client.  Each sample is one full
``run all`` in a fresh interpreter (``perfbench/sample.py``), so set-up
time and peak memory are what a user pays.  The inputs are the 223
modeled pairs (194 CPU2017 + 29 CPU2006); the program seeds each pair's
trace from its name, so ``--seed`` is recorded but changes no input.

Every run starts with one untimed prep sweep into an empty cache: it
compiles the bytecode and, for ``warm-inline``, fills the cache every
sample starts from.  Samples then repeat for ``--seconds``.  ``--trace 0``
reports the end-to-end metrics of untraced samples; ``--trace 1``
alternates untraced samples with samples whose layers are timed from the
outside (``perfbench/layers.py``) and reports the per-layer metrics.

Times are given in reference seconds: each sample times a fixed kernel
right after its set-up and right after its sweep (``perfbench/calibrate.py``)
and its times are scaled by the host speed that kernel shows, so that the
drift of a shared host's speed does not move the results.

Every sample's output is checked against ``perfbench/reference.json``: the
sha256 of the rendered report and of each pair's scaled counters.  A pair
whose counters differ, or that the runner reports as failed, counts as
failed.  The last line of standard output is one JSON object; the exit
code is 1 when a check failed and 2 when no result could be produced.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from statistics import median
from typing import Dict, List, Optional, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench.calibrate import scale  # noqa: E402
from perfbench.layers import PER_LAYER, SPAN_PEERS, derive  # noqa: E402

REFERENCE = os.path.join(ROOT, "perfbench", "reference.json")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
#: The whole run, prep and all, must end well inside three minutes.
DEADLINE_S = 160.0


@dataclass(frozen=True)
class Workload:
    jobs: int
    warm: bool
    why: str


WORKLOADS: Dict[str, Workload] = {
    "cold-inline": Workload(
        1, False,
        "empty cache, --jobs 1: trace generation, the engine and cache "
        "writes do the work; shows generator, engine and cache-store changes",
    ),
    "warm-inline": Workload(
        1, True,
        "cache filled by the code under test, --jobs 1: no simulation; "
        "setup, cache reads, metrics, stats, ledger and rendering",
    ),
    "cold-pooled": Workload(
        2, False,
        "empty cache, --jobs 2: the cold work through the process pool, "
        "so per-task and worker start-up overhead shows",
    ),
}

#: End-to-end metrics: (name, unit, better, bound).  Times are reference
#: seconds (``perfbench/calibrate.py``): host speed on a shared box drifts
#: by a third over tens of seconds, which would move whole runs.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("run_s", "s", "lower", 0.25),
    ("pair_p50_ms", "ms", "lower", 0.25),
    ("pair_p95_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("paper_err_pct", "%", "lower", 0.01),
)


class SampleError(RuntimeError):
    pass


def _tail(values: Sequence[float]) -> Optional[tuple]:
    """(percentile, value) of the highest percentile with ten samples
    beyond it, or None with ten samples or fewer."""
    if len(values) <= 10:
        return None
    ordered = sorted(values)
    index = len(ordered) - 11
    return 100.0 * (index + 1) / len(ordered), ordered[index]


def _sample_env() -> Dict[str, str]:
    env = dict(os.environ)
    # Never the user's cache or ledger: a cache shared across commits
    # would let a change's warm run serve the parent's counters.
    for name in ("REPRO_CACHE_DIR", "REPRO_LEDGER", "PERFBENCH_STATS_DIR"):
        env.pop(name, None)
    return env


class Sampler:
    """Starts sample processes under one deadline and collects results."""

    def __init__(self, work: str, jobs: int, deadline: float):
        self.work = work
        self.jobs = jobs
        self.deadline = deadline
        self.count = 0

    def run(self, cache_dir: str, layers: bool = False,
            spans: bool = False) -> dict:
        self.count += 1
        args = ["--cache-dir", cache_dir, "--jobs", str(self.jobs)]
        if layers:
            stats_dir = os.path.join(self.work, "stats-%d" % self.count)
            os.makedirs(stats_dir)
            args += ["--layers", stats_dir]
        if spans:
            args += ["--spans", os.path.join(self.work, "spans.jsonl")]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise SampleError("out of time before sample %d" % self.count)
        spawned_at = time.monotonic()
        process = subprocess.Popen(
            [sys.executable, "-m", "perfbench.sample",
             "--spawned-at", repr(spawned_at)] + args,
            cwd=ROOT, env=_sample_env(), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, start_new_session=True,
        )
        try:
            out, err = process.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)
            process.communicate()
            raise SampleError("sample %d timed out" % self.count) from None
        if process.returncode != 0 or not out.strip():
            raise SampleError(
                "sample %d exited %d: %s"
                % (self.count, process.returncode, err.strip()[-2000:])
            )
        return json.loads(out.strip().splitlines()[-1])


def _fresh_cache(work: str, index: int, seed_cache: Optional[str]) -> str:
    path = os.path.join(work, "cache-%d" % index)
    if seed_cache is not None:
        # Each warm sample starts from the prep sweep's entries and an
        # empty ledger of its own.
        shutil.copytree(
            seed_cache, path, ignore=shutil.ignore_patterns("ledger.jsonl")
        )
    return path


def _scaled(sample: dict, key: str) -> float:
    """A time of ``sample`` in reference seconds."""
    return sample[key] * scale(sample["calibration"])


def _scale_layers(metrics: Dict[str, float], factor: float) -> Dict[str, float]:
    """Per-layer metrics of one sample with its times in reference seconds."""
    units = {name: unit for name, unit, _, _ in PER_LAYER}
    per_second = {"s": factor, "Mop/s": 1.0 / factor}
    return {
        name: value * per_second.get(units[name], 1.0)
        for name, value in metrics.items()
    }


def _check(sample: dict, reference: dict) -> List[str]:
    """Names of the reference pairs this sample got wrong."""
    got = sample["pair_sha256"]
    return [
        name for name, digest in reference["pairs"].items()
        if got.get(name) != digest
    ]


def collect(workload: Workload, seconds: float, trace: bool,
            work: str) -> dict:
    """Prep, then samples for ``seconds``; returns the raw samples."""
    sampler = Sampler(work, workload.jobs, time.monotonic() + DEADLINE_S)
    prep_cache = os.path.join(work, "prep")
    sampler.run(prep_cache)
    seed_cache = prep_cache if workload.warm else None

    plain: List[dict] = []
    layered: List[dict] = []
    errors: List[str] = []
    started = time.monotonic()
    durations: List[float] = []
    index = 0
    while True:
        layers = trace and index % 2 == 1
        cache_dir = _fresh_cache(work, index, seed_cache)
        began = time.monotonic()
        try:
            (layered if layers else plain).append(
                sampler.run(cache_dir, layers=layers)
            )
        except SampleError as error:
            errors.append(str(error))
        shutil.rmtree(cache_dir, ignore_errors=True)
        durations.append(time.monotonic() - began)
        index += 1
        now, expected = time.monotonic(), statistics.mean(durations)
        if now + expected > sampler.deadline or (
            index >= (2 if trace else 1)
            and now - started + expected > seconds
        ):
            break

    spans = None
    if trace and not workload.warm and workload.jobs == 1:
        cache_dir = _fresh_cache(work, index, None)
        try:
            spans = sampler.run(cache_dir, spans=True)
        except SampleError as error:
            errors.append(str(error))
    return {"plain": plain, "layered": layered,
            "spans": spans, "errors": errors}


def summarize(raw: dict, reference: dict) -> dict:
    """Metrics, checks and counts of one run's samples."""
    plain, layered = raw["plain"], raw["layered"]
    n_pairs = len(reference["pairs"])
    measured = plain + layered + ([raw["spans"]] if raw["spans"] else [])
    failed_pairs = 0
    report_ok = 0
    for sample in measured:
        failed_pairs += len(_check(sample, reference))
        report_ok += sample["report_sha256"] == reference["report_sha256"]
    attempted = n_pairs * (len(measured) + len(raw["errors"]))
    failed = failed_pairs + n_pairs * len(raw["errors"])

    # A pair's latency is its median over the run's samples; the
    # percentiles are taken across the pairs.
    by_pair: Dict[str, List[float]] = {}
    for sample in plain:
        factor = scale(sample["calibration"])
        for record in sample["records"]:
            by_pair.setdefault(record[0], []).append(1e3 * record[1] * factor)
    latencies = [median(values) for values in by_pair.values()]
    end_to_end = {
        "setup_s": median([_scaled(s, "setup_s") for s in plain]),
        "run_s": median([_scaled(s, "run_s") for s in plain]),
        "pair_p50_ms": median(latencies),
        "pair_p95_ms": statistics.quantiles(latencies, n=20)[18],
        "peak_rss_mb": median([s["peak_rss_mb"] for s in plain]),
        "paper_err_pct": median([s["paper_err_pct"] for s in measured]),
    }
    per_layer: Dict[str, float] = {}
    if layered:
        derived = [
            _scale_layers(
                derive(s["layers"], s["records"], s["sweeps"],
                       s["sample_ops"]),
                scale(s["calibration"]),
            )
            for s in layered
        ]
        per_layer = {
            name: median([d[name] for d in derived]) for name in derived[0]
        }
        every = plain + layered
        per_layer["setup.import_s"] = median(
            [_scaled(s, "import_s") for s in every]
        )
        per_layer["setup.repro_modules"] = median(
            [s["repro_modules"] for s in every]
        )
        traced_run = median([_scaled(s, "run_s") for s in layered])
        per_layer["bench.trace_overhead_pct"] = (
            100.0 * (traced_run - end_to_end["run_s"]) / end_to_end["run_s"]
        )
        per_layer["bench.unattributed_s"] = median([
            (s["run_s"] - s["parent_self_s"]) * scale(s["calibration"])
            for s in layered
        ])
        per_layer = {name: per_layer[name] for name, *_ in PER_LAYER}
    return {
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "attempted": attempted,
        "failed": failed,
        "report_ok": report_ok,
        "measured": len(measured),
        "correct": failed == 0 and report_ok == len(measured),
    }


def render(name: str, seed: int, seconds: float, trace: bool, raw: dict,
           summary: dict) -> str:
    plain, layered = raw["plain"], raw["layered"]
    units = {metric: unit for metric, unit, _, _ in END_TO_END}
    lines = [
        "perfbench %s: seed %d (recorded; the 223 modeled pairs are fixed), "
        "%g s, %d untraced + %d layer-timed samples after one untimed prep "
        "sweep" % (name, seed, seconds, len(plain), len(layered)),
        "",
        "%-16s %12s  %-6s %s" % ("end-to-end", "value", "unit", "detail"),
    ]
    e2e = summary["end_to_end"]
    runs = [_scaled(s, "run_s") for s in plain]
    run_tail = _tail(runs)
    factors = [scale(s["calibration"]) for s in plain]
    details = {
        "setup_s": "median of %d fresh interpreters; host %.4f s" % (
            len(plain), median(s["setup_s"] for s in plain),
        ),
        "run_s": "median of %d sweeps, max %.4f%s; host %.4f s" % (
            len(plain), max(runs),
            ", p%.0f %.4f" % run_tail if run_tail else "",
            median(s["run_s"] for s in plain),
        ),
        "pair_p50_ms": "across %d pairs, each its median of %d samples" % (
            len(plain[0]["records"]), len(plain),
        ),
        "pair_p95_ms": "",
        "peak_rss_mb": "largest process of the run, median",
        "paper_err_pct": "median relative error; Table VIII %.3f%%, IPC/"
                         "miss/mispredict %.3f%%" % tuple(
                             median(s[key] for s in plain)
                             for key in ("table8_err_pct", "other_err_pct")
                         ),
    }
    for metric, value in e2e.items():
        lines.append("%-16s %12.4f  %-6s %s"
                     % (metric, value, units[metric], details[metric]))
    lines.append(
        "times are reference seconds: host time x the host-speed factor of "
        "the calibration kernel, median %.3f (%.3f to %.3f)"
        % (median(factors), min(factors), max(factors))
    )
    lines.append(
        "%-16s %12.4f  %-6s %d failed of %d pairs attempted"
        % ("fail_ratio", summary["failed"] / max(summary["attempted"], 1),
           "ratio", summary["failed"], summary["attempted"])
    )
    lines.append(
        "rendered report sha256 matches the reference in %d of %d samples"
        % (summary["report_ok"], summary["measured"])
    )
    for error in raw["errors"]:
        lines.append("sample failure: %s" % error)
    if summary["per_layer"]:
        layer = summary["per_layer"]
        lines += ["", "%-26s %12s  %-10s %s"
                  % ("per-layer (traced)", "value", "unit", "should move")]
        for metric, unit, _, moves in PER_LAYER:
            lines.append("%-26s %12.4f  %-10s %s"
                         % (metric, layer[metric], unit, moves))
        run_s = e2e["run_s"]
        named = run_s - layer["bench.unattributed_s"]
        sim = sum(
            layer[m] for m in ("workloads.generate_s", "uarch.analyze_s",
                               "uarch.execute_s", "uarch.core_self_s")
        )
        lines.append(
            "attributed to named layers: %.1f%% of run_s; workloads + uarch "
            "self time: %.1f%% of run_s (summed over processes)"
            % (100.0 * named / run_s, 100.0 * sim / run_s)
        )
    if raw["spans"]:
        factor = scale(raw["spans"]["calibration"])
        stages = {
            stage: self_s * factor
            for stage, _, self_s in raw["spans"]["spans"]
        }
        layer = summary["per_layer"]
        lines += ["", "span-stream cross-check: one more sweep with the "
                  "program's own spans (diagnostic, not gated)",
                  "%-22s %10s %10s  %s"
                  % ("wrapper metric", "wrapper_s", "span_s", "span stages")]
        for metric, peers in SPAN_PEERS:
            lines.append("%-22s %10.4f %10.4f  %s" % (
                metric, layer[metric],
                sum(stages.get(stage, 0.0) for stage in peers),
                " + ".join(peers),
            ))
        lines.append("all span stages (self_s): " + ", ".join(
            "%s %.4f" % item for item in stages.items()
        ))
    return "\n".join(lines)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    with open(REFERENCE, encoding="utf-8") as handle:
        reference = json.load(handle)
    work = os.path.join(WORK_ROOT, "%s-%d" % (name, os.getpid()))
    os.makedirs(work)
    try:
        raw = collect(WORKLOADS[name], seconds, trace, work)
    except SampleError as error:
        print("perfbench: %s" % error, file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass
    if not raw["plain"]:
        print("perfbench: no untraced sample completed", file=sys.stderr)
        for error in raw["errors"]:
            print(error, file=sys.stderr)
        return 2
    summary = summarize(raw, reference)
    print(render(name, seed, seconds, trace, raw, summary))
    units = {metric: unit for metric, unit, _, _ in END_TO_END}
    units.update({metric: unit for metric, unit, _, _ in PER_LAYER})
    metrics = summary["per_layer"] if trace else summary["end_to_end"]
    print(json.dumps({
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {
            metric: {"value": value, "unit": units[metric]}
            for metric, value in metrics.items()
        },
    }))
    return 0 if summary["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no repro sources under %s"
              % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    status = 0
    for name in names:
        status = max(status, run_workload(
            name, args.seed, args.seconds, bool(args.trace)
        ))
    return status


if __name__ == "__main__":
    sys.exit(main())

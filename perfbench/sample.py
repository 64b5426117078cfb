"""One benchmark sample: a fresh interpreter runs ``repro run all`` once.

Started by ``perfbench/run.py`` as ``python3 -m perfbench.sample`` from the
root of a checkout.  It imports ``repro`` from that checkout's ``src``,
builds the runner and experiment context the way the CLI does, runs every
experiment, and prints one JSON line with its timings, the output digests
and, when asked, the layer timings.  Only ``--layers`` installs wrappers;
every other sample runs unpatched code.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time


def _parse(argv):
    parser = argparse.ArgumentParser(prog="perfbench.sample")
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--jobs", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() just before this process "
                             "was started")
    parser.add_argument("--layers", metavar="STATS_DIR", default=None,
                        help="time the layers; pool workers write here")
    parser.add_argument("--spans", metavar="TRACE", default=None,
                        help="record the program's own span stream here")
    return parser.parse_args(argv)


def _relative_errors(report, profile):
    """(Table VIII errors, other anchor errors) of one pair, as fractions."""
    from repro.core.features import FEATURE_NAMES, feature_vector
    from repro.obs.drift import paper_anchor_vector

    def rel(simulated, anchor):
        return abs(simulated - anchor) / abs(anchor)

    anchors = paper_anchor_vector(profile)
    table8 = [
        rel(value, anchors[name])
        for name, value in zip(FEATURE_NAMES, feature_vector(report))
        if anchors[name] != 0
    ]
    memory, branches = profile.memory, profile.branches
    pairs = [
        (report.ipc, profile.target_ipc),
        (report.miss_rate(1), memory.target_l1_miss_rate),
        (report.miss_rate(2), memory.target_l2_miss_rate),
        (report.miss_rate(3), memory.target_l3_miss_rate),
        (report.mispredict_rate, branches.target_mispredict_rate),
    ]
    return table8, [rel(s, a) for s, a in pairs if a != 0]


def main(argv=None) -> int:
    args = _parse(argv)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")
    sys.path.insert(0, src)

    started = time.perf_counter()
    import repro.reports.cli  # noqa: F401  (the CLI's import closure)
    import_s = time.perf_counter() - started

    import repro
    from repro.obs.ledger import RunLedger
    from repro.perf.session import DEFAULT_SAMPLE_OPS
    from repro.reports import experiments
    from repro.runner import SuiteRunner

    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        print("repro imported from %s, not %s" % (repro.__file__, src),
              file=sys.stderr)
        return 2
    repro_modules = sum(
        1 for name in sys.modules if name.split(".")[0] == "repro"
    )

    # As ``repro run all --jobs N --cache-dir DIR`` builds them.
    runner = SuiteRunner(
        sample_ops=DEFAULT_SAMPLE_OPS, workers=args.jobs, use_cache=True,
        cache_dir=args.cache_dir, engine="auto",
    )
    ctx = experiments.ExperimentContext(runner=runner)
    setup_s = time.monotonic() - args.spawned_at

    # Host speed right before the sweep; ``perfbench/calibrate.py``.
    from perfbench.calibrate import measure

    calibration = {"before": measure()}

    timer = None
    if args.layers:
        from perfbench.layers import STATS_DIR_ENV, LayerTimer

        os.environ[STATS_DIR_ENV] = args.layers
        timer = LayerTimer().install()
    else:
        from perfbench.layers import wrapped_targets

        if wrapped_targets():
            raise RuntimeError("untraced sample found layer wrappers")
    if args.spans:
        from repro import obs

        obs.enable(trace_path=args.spans, metrics=True)

    started = time.perf_counter()
    chunks = []
    for exp_id in experiments.EXPERIMENT_IDS:
        chunks.append("%s\n\n" % experiments.run_experiment(exp_id, ctx))
    report_sha256 = hashlib.sha256("".join(chunks).encode("utf-8")).hexdigest()
    run_s = time.perf_counter() - started
    calibration["after"] = measure()

    if timer is not None:
        timer.uninstall()
    if args.spans:
        obs.disable()
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )

    # Everything below is outside the timed region.
    profiles = {
        pair.profile.pair_name: pair.profile
        for suite in (ctx.suite17, ctx.suite06)
        for pair in suite.pairs(size=None)
    }
    records, sweeps = [], []
    for record in RunLedger(cache_dir=args.cache_dir).runs():
        manifest = record["manifest"]
        sweeps.append([manifest["workers"], manifest["wall_time_seconds"]])
        records.extend(
            [r["pair"], r["seconds"], r["cached"], r["attempts"], r["error"]]
            for r in manifest["records"]
        )
    pair_sha256 = {}
    table8_errors, other_errors = [], []
    for name, _, _, _, error in records:
        if error is not None:
            continue
        report = ctx.characterizer.report(profiles[name])
        values = json.dumps(dict(report), sort_keys=True)
        pair_sha256[name] = hashlib.sha256(values.encode("utf-8")).hexdigest()
        table8, other = _relative_errors(report, profiles[name])
        table8_errors += table8
        other_errors += other

    result = {
        "setup_s": setup_s,
        "calibration": calibration,
        "import_s": import_s,
        "repro_modules": repro_modules,
        "run_s": run_s,
        "peak_rss_mb": peak_kb / 1024.0,
        "sample_ops": DEFAULT_SAMPLE_OPS,
        "records": records,
        "sweeps": sweeps,
        "report_sha256": report_sha256,
        "pair_sha256": pair_sha256,
        "paper_err_pct":
            100.0 * statistics.median(table8_errors + other_errors),
        "table8_err_pct": 100.0 * statistics.median(table8_errors),
        "other_err_pct": 100.0 * statistics.median(other_errors),
    }
    if timer is not None:
        from perfbench.layers import load_worker_stats, merge

        result["parent_self_s"] = sum(v[2] for v in timer.stats.values())
        result["layers"] = merge(timer.stats, load_worker_stats(args.layers))
    if args.spans:
        from repro.obs.summarize import load_spans, summarize_spans

        summary = summarize_spans(load_spans(args.spans))
        result["spans"] = [
            [stage.name, stage.count, stage.self_s] for stage in summary.stages
        ]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

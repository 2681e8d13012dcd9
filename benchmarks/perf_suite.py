"""Reproducible performance suite for the prediction solve path.

Runs a fixed matrix of benchmark-app histories (smallbank / wikipedia /
tpcc at several workload sizes, plus ``predict_many`` k-sweeps) through
the predictive analysis, measuring median-of-N end-to-end wall time and
the per-stage (encode / compile / solve / decode) split with solver
counters, and writes the machine-readable ``BENCH_<n>.json`` trajectory
file every perf-minded PR compares against.

Usage::

    python benchmarks/perf_suite.py --quick --out BENCH_7.json
    python benchmarks/perf_suite.py                       # full matrix
    python benchmarks/perf_suite.py --quick \
        --baseline BENCH_7.json --fail-threshold 2.0      # CI gate

``--quick`` drops the large-workload scenarios and halves the repeat
count; it still covers every mid-size scenario, which is the tier speedup
targets are stated over. With ``--baseline`` the run exits non-zero when
any shared scenario's median wall exceeds ``--fail-threshold`` times the
baseline's (see :func:`repro.perf.compare_profiles`).

Scenario walls measure the *analysis* (encode→compile→solve→decode via
one cold :class:`repro.predict.IsoPredict` enumeration per run); history
recording happens once per scenario, outside the timed region.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

# Counters are comparable across runs and machines without any hash-seed
# pinning: the encoder sorts every key-set iteration (PR 4), so CNF
# variable ordering — and with it the whole search trajectory — no longer
# depends on Python's per-process string-hash seed.

sys.path.insert(0, str(Path(__file__).parent))
try:
    import repro  # noqa: F401  (installed package wins)
except ModuleNotFoundError:  # running from a checkout without pip install
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.bench_apps import ALL_APPS, WorkloadConfig, record_observed
from repro.isolation import IsolationLevel
from repro.store.backends import make_store_backend, store_backend_spec
from repro.perf import (
    ScenarioResult,
    compare_profiles,
    load_report,
    run_measured,
    write_report,
)
from repro.predict import IsoPredict, PredictionStrategy

_APPS = {app.name: app for app in ALL_APPS}

#: Seed used for every recording: scenario identity must not drift run to
#: run, or the trajectory file stops being comparable across PRs.
RECORD_SEED = 1


def _workload(label: str) -> WorkloadConfig:
    if label == "tiny":
        return WorkloadConfig.tiny()
    if label == "small":
        return WorkloadConfig.small()
    if label == "large":
        return WorkloadConfig.large()
    raise ValueError(f"unknown workload label {label!r}")


#: (name, size class, app, workload, isolation, strategy, k, store).
#: Size classes are assigned by pre-PR-3 median wall on the reference
#: machine: under 1 s is ``small`` (tracked mainly for counters and
#: encode/compile trends), 1–10 s is ``mid`` (the tier speedup targets
#: are stated over), above 10 s is ``large`` (skipped by ``--quick``).
#: The ``store`` column selects
#: the store backend the scenario's history records on (the timed region
#: is the analysis, so sharded rows measure the sharded *workloads*, not
#: routing overhead — recording happens once, outside the timer).
SCENARIOS = [
    ("smallbank-tiny-k1", "small", "smallbank", "tiny", "causal",
     "approx-relaxed", 1, "inmemory"),
    ("wikipedia-tiny-k1", "small", "wikipedia", "tiny", "causal",
     "approx-relaxed", 1, "inmemory"),
    ("tpcc-tiny-k1", "small", "tpcc", "tiny", "causal",
     "approx-relaxed", 1, "inmemory"),
    ("smallbank-small-rc-strict-k1", "small", "smallbank", "small", "rc",
     "approx-strict", 1, "inmemory"),
    ("smallbank-small-k1", "mid", "smallbank", "small", "causal",
     "approx-relaxed", 1, "inmemory"),
    ("wikipedia-small-k1", "mid", "wikipedia", "small", "causal",
     "approx-relaxed", 1, "inmemory"),
    ("tpcc-small-k1", "mid", "tpcc", "small", "causal",
     "approx-relaxed", 1, "inmemory"),
    ("smallbank-small-k4", "mid", "smallbank", "small", "causal",
     "approx-relaxed", 4, "inmemory"),
    ("tpcc-small-rc-strict-k1", "mid", "tpcc", "small", "rc",
     "approx-strict", 1, "inmemory"),
    # -- Table 4's exact column: CEGIS with one serializability check per
    # candidate; the ``candidates`` counter tracks the refinement's reach
    ("smallbank-tiny-exact-strict-k1", "small", "smallbank", "tiny",
     "causal", "exact-strict", 1, "inmemory"),
    ("shardtransfer-tiny-exact-strict-k1", "small", "shardtransfer", "tiny",
     "causal", "exact-strict", 1, "inmemory"),
    # an exact UNSAT answer: the CEGIS walk exhausts its candidates (CI
    # gates the verdict and the candidate count, not the wall)
    ("tpcc-small-exact-strict-k1", "mid", "tpcc", "small", "causal",
     "exact-strict", 1, "inmemory"),
    # the same history's approx UNSAT: CEGIS with a pco-cycle check per
    # candidate (CI gates the verdict and the candidate count)
    ("tpcc-small-approx-strict-k1", "mid", "tpcc", "small", "causal",
     "approx-strict", 1, "inmemory"),
    # -- sharded scenario workloads (PR 5) ------------------------------
    ("shardtransfer-small-sharded4-k1", "mid", "shardtransfer", "small",
     "causal", "approx-relaxed", 1, "sharded:4"),
    ("shardtransfer-small-sharded4-rc-k2", "small", "shardtransfer", "small",
     "rc", "approx-relaxed", 2, "sharded:4"),
    ("smallbank-sharded-small-sharded3-k1", "small", "smallbank_sharded",
     "small", "causal", "approx-relaxed", 1, "sharded:3"),
    ("smallbank-large-k1", "large", "smallbank", "large", "causal",
     "approx-relaxed", 1, "inmemory"),
    ("wikipedia-large-k1", "large", "wikipedia", "large", "causal",
     "approx-relaxed", 1, "inmemory"),
]

#: Streaming-service scenarios (PR 7): the same recorded histories pushed
#: through the windowed incremental engine (:mod:`repro.serve`). The row's
#: wall is the whole stream session; its ``rates`` record findings/sec,
#: ingest lag and per-window latency — the numbers a service is judged by.
#: ``stream-smallbank-large`` is the scale story: the encoding is
#: quadratic in transaction pairs, so windowing the same large history
#: that ``smallbank-large-k1`` solves whole must hold every per-window
#: wall strictly under that scenario's whole-history wall.
#: (name, size, kind, target, workload, isolation, window, stride, k, runs)
STREAM_SCENARIOS = [
    ("stream-smallbank-small-w6s3", "mid", "bench", "smallbank", "small",
     "causal", 6, 3, 2, 1),
    ("stream-fuzz3-w8s4", "mid", "fuzz", 0, "small", "causal", 8, 4, 2, 3),
    ("stream-smallbank-large-w8s4", "large", "bench", "smallbank", "large",
     "causal", 8, 4, 1, 1),
]


def run_scenario(
    name: str,
    size: str,
    app: str,
    workload: str,
    isolation: str,
    strategy: str,
    k: int,
    store: str,
    repeats: int,
    max_seconds: float,
) -> ScenarioResult:
    backend = make_store_backend(store)
    history = record_observed(
        _APPS[app](_workload(workload)), RECORD_SEED, backend=backend
    ).history

    def once() -> dict:
        analyzer = IsoPredict(
            IsolationLevel.parse(isolation),
            PredictionStrategy.parse(strategy),
            max_seconds=max_seconds,
        )
        batch = analyzer.predict_many(history, k=k)
        stats = dict(batch.stats)
        stats["status"] = batch.status.value
        return stats

    params = {
        "app": app,
        "workload": workload,
        "seed": RECORD_SEED,
        "isolation": isolation,
        "strategy": strategy,
        "k": k,
        "store": store_backend_spec(store),
        "transactions": len(history.transactions()),
    }
    return run_measured([(name, size, params, once)], repeats)[0]


def run_stream_scenario(
    name: str,
    size: str,
    kind: str,
    target,
    workload: str,
    isolation: str,
    window: int,
    stride: int,
    k: int,
    runs: int,
    repeats: int,
    max_seconds: float,
) -> ScenarioResult:
    from repro.serve import StreamingAnalysis

    params = {
        "kind": kind,
        "workload": workload,
        "seed": RECORD_SEED,
        "isolation": isolation,
        "window": window,
        "stride": stride,
        "k": k,
        "runs": runs,
    }
    if kind == "bench":
        # recording happens once, outside the timed region, matching the
        # batch scenarios: the timed stream is segmentation + analysis
        history = record_observed(
            _APPS[target](_workload(workload)), RECORD_SEED
        ).history
        params["app"] = target
        params["transactions"] = len(history.transactions())

        def make_source():
            return history

    else:
        from repro.sources import FuzzSource

        params["shape_seed"] = target

        # fuzz streams time ingest too: recording *is* part of a service
        def make_source():
            return FuzzSource(
                shape_seed=target,
                config=_workload(workload),
                seed=RECORD_SEED,
                count=runs,
            )

    def once() -> dict:
        engine = StreamingAnalysis(
            make_source(),
            window=window,
            stride=stride,
            isolation=isolation,
            k=k,
            max_seconds=max_seconds,
            max_runs=runs,
        )
        return engine.run().metrics.to_stats()

    return run_measured([(name, size, params, once)], repeats)[0]


#: The telemetry overhead pair (PR 8): a mid-size reference scenario
#: measured with telemetry off and on (spans + registry + trace export to
#: a scratch file) in interleaved repeats. The reference is tpcc-small's
#: approx-strict UNSAT walk (about 1 s, 20 candidates, a decode span
#: each). The overhead percentage is printed and recorded as trend data
#: only: with two repeats of a ~1 s wall, run-to-run noise is wider than
#: any useful bound. What the telemetry-on row gates instead is
#: deterministic: the trace's span and point counts (``trace_spans``,
#: ``trace_points`` counters), equal on every repeat, which CI pins.
TELEMETRY_PAIR = ("telemetry-off-tpcc-small-approx-strict-k1",
                  "telemetry-on-tpcc-small-approx-strict-k1")


def run_telemetry_pair(repeats: int, max_seconds: float):
    import json
    import os
    import shutil
    import tempfile

    from repro.obs import observe_analysis_stats, telemetry_session

    history = record_observed(
        _APPS["tpcc"](WorkloadConfig.small()), RECORD_SEED
    ).history
    params = {
        "app": "tpcc",
        "workload": "small",
        "seed": RECORD_SEED,
        "isolation": "causal",
        "strategy": "approx-strict",
        "k": 1,
        "store": "inmemory",
        "transactions": len(history.transactions()),
    }

    def analyze() -> dict:
        analyzer = IsoPredict(
            IsolationLevel.parse("causal"),
            PredictionStrategy.parse("approx-strict"),
            max_seconds=max_seconds,
        )
        batch = analyzer.predict_many(history, k=1)
        stats = dict(batch.stats)
        stats["status"] = batch.status.value
        return stats

    scratch = tempfile.mkdtemp(prefix="isopredict-bench-telemetry-")
    trace = os.path.join(scratch, "trace.jsonl")
    trace_counts: set[tuple[int, int]] = set()

    def analyze_with_telemetry() -> dict:
        # the full enabled path: session install, stage spans, stat
        # counters, part merge at exit — everything a --telemetry run pays
        with telemetry_session(trace, command="bench"):
            stats = analyze()
            observe_analysis_stats(stats)
        with open(trace) as fh:
            events = [json.loads(line)["event"] for line in fh]
        trace_counts.add((events.count("span"), events.count("point")))
        return stats

    off_name, on_name = TELEMETRY_PAIR
    try:
        off, on = run_measured([
            (off_name, "mid", {**params, "telemetry": "off"}, analyze),
            (on_name, "mid", {**params, "telemetry": "on"},
             analyze_with_telemetry),
        ], repeats)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if len(trace_counts) != 1:
        raise RuntimeError(
            f"trace (spans, points) differ across repeats: {trace_counts}"
        )
    spans, points = trace_counts.pop()
    on.counters.update(trace_spans=spans, trace_points=points)
    return off, on


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="IsoPredict solve-path performance suite"
    )
    parser.add_argument(
        "--out", default="BENCH_7.json",
        help="output JSON path (default: %(default)s)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="skip large scenarios and halve repeats (CI smoke mode)",
    )
    parser.add_argument(
        "--repeats", type=int, default=None,
        help="runs per scenario (default: 3, quick: 2)",
    )
    parser.add_argument(
        "--only", default=None,
        help="comma-separated scenario-name substrings to run",
    )
    parser.add_argument(
        "--max-seconds", type=float, default=600.0,
        help="per-enumeration solver budget",
    )
    parser.add_argument(
        "--baseline", default=None,
        help="BENCH_*.json to compare against (regression gate)",
    )
    parser.add_argument(
        "--fail-threshold", type=float, default=2.0,
        help="fail when a scenario exceeds this x baseline median",
    )
    args = parser.parse_args(argv)

    repeats = args.repeats or (2 if args.quick else 3)

    def keep(name: str, size: str) -> bool:
        if args.quick and size == "large":
            return False
        if args.only and not any(
            frag.strip() in name for frag in args.only.split(",")
        ):
            return False
        return True

    selected = [s for s in SCENARIOS if keep(s[0], s[1])]
    stream_selected = [s for s in STREAM_SCENARIOS if keep(s[0], s[1])]
    telemetry_selected = [n for n in TELEMETRY_PAIR if keep(n, "mid")]
    if not selected and not stream_selected and not telemetry_selected:
        print("no scenarios selected", file=sys.stderr)
        return 2

    results = []
    for (name, size, app, workload, isolation, strategy, k,
         store) in selected:
        result = run_scenario(
            name, size, app, workload, isolation, strategy, k, store,
            repeats=repeats, max_seconds=args.max_seconds,
        )
        solve = result.stages.get("solve", 0.0)
        print(
            f"{name:32} [{size:5}] median={result.wall_median:7.3f}s "
            f"(solve {solve:6.3f}s, "
            f"{result.counters.get('propagations', 0):,} props, "
            f"{result.counters.get('conflicts', 0):,} conflicts)",
            flush=True,
        )
        results.append(result)

    for (name, size, kind, target, workload, isolation, window, stride, k,
         runs) in stream_selected:
        result = run_stream_scenario(
            name, size, kind, target, workload, isolation, window, stride,
            k, runs, repeats=repeats, max_seconds=args.max_seconds,
        )
        rates = result.rates
        print(
            f"{name:32} [{size:5}] median={result.wall_median:7.3f}s "
            f"(windows {result.counters.get('windows', 0)}, "
            f"findings {result.counters.get('findings', 0)}, "
            f"{rates.get('findings_per_sec', 0.0):.2f}/s, "
            f"window max {rates.get('window_seconds_max', 0.0):.3f}s, "
            f"lag max {rates.get('ingest_lag_seconds_max', 0.0):.3f}s)",
            flush=True,
        )
        results.append(result)

    if telemetry_selected:
        off, on = run_telemetry_pair(
            repeats=repeats, max_seconds=args.max_seconds
        )
        overhead = (
            (on.wall_median - off.wall_median) / off.wall_median * 100.0
            if off.wall_median else 0.0
        )
        for result in (off, on):
            print(
                f"{result.name:32} [mid  ] "
                f"median={result.wall_median:7.3f}s",
                flush=True,
            )
        print(
            f"telemetry overhead: {overhead:+.2f}% (trend only; "
            f"{on.counters['trace_spans']} spans, "
            f"{on.counters['trace_points']} points)",
            flush=True,
        )
        results.extend([off, on])

    doc = write_report(
        results,
        args.out,
        meta={
            "quick": args.quick,
            "repeats": repeats,
            "record_seed": RECORD_SEED,
        },
    )
    print(f"wrote {args.out} ({len(results)} scenarios)")

    if args.baseline:
        baseline = load_report(args.baseline)
        regressions = compare_profiles(
            doc, baseline, threshold=args.fail_threshold
        )
        if regressions:
            print(
                f"PERF REGRESSION vs {args.baseline} "
                f"(threshold {args.fail_threshold}x):",
                file=sys.stderr,
            )
            for regression in regressions:
                print(f"  {regression}", file=sys.stderr)
            return 1
        print(f"no regressions vs {args.baseline} "
              f"(threshold {args.fail_threshold}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

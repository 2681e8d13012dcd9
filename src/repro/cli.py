"""Command-line interface: analyze / record / predict / check / campaign.

Examples::

    isopredict analyze --app smallbank --seed 3 --isolation causal
    isopredict analyze --trace saved.json --isolation rc --k 3
    isopredict analyze --app tpcc --max-seconds 30 --max-conflicts 20000
    isopredict analyze --app shardtransfer --backend sharded:4
    isopredict analyze --app smallbank --backend sqlite:runs.sqlite
    isopredict analyze --trace runs.sqlite --isolation causal
    isopredict record --app smallbank --seed 3 --out trace.json
    isopredict predict trace.json --isolation causal --strategy approx-relaxed
    isopredict check trace.json
    isopredict render trace.json --format dot
    isopredict bench --app voter --isolation rc --seeds 10
    isopredict campaign --apps smallbank,voter --isolation causal,rc \\
        --seeds 4 --jobs 4 --out campaign.jsonl
    isopredict fleet plan --spec sweep.toml --fleet 3 --out fleet/manifest.json
    isopredict campaign --manifest fleet/manifest.json --worker-id 0
    isopredict fleet merge --manifest fleet/manifest.json --resume \\
        --report report.json
    isopredict archive compact merged.sqlite worker-*/archive.sqlite
    isopredict fuzz --iterations 60 --seed 1 --out fuzzdir
    isopredict fuzz --minutes 10 --jobs 4 --backend sharded:2 --out fuzzdir

``analyze`` is the source-agnostic entry point (``--app``, ``--trace``, or
``--fuzz``); ``predict``/``validate``/``bench`` are the stage-by-stage
spellings, all routed through the same :class:`repro.api.Analysis` session.
See README.md for the full tour, including how each paper table and figure
maps onto these commands.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .api import Analysis, AnalysisResult
from .bench_apps import ALL_APPS, WorkloadConfig, record_observed
from .history import load_history, save_history
from .isolation import (
    IsolationLevel,
    is_causal,
    is_read_committed,
    is_serializable,
    pco_unserializable,
)
from .jsonl import JsonlError, open_append
from .predict import PredictionStrategy
from .smt import Result
from .sources import (
    _SQLITE_SUFFIXES,
    BenchAppSource,
    FuzzSource,
    TraceFileSource,
)
from .store.backends import close_store_backend
from .viz import history_to_dot, history_to_text

__all__ = ["main"]

_APPS = {app.name: app for app in ALL_APPS}

#: The two solver limits, spelled once for every command that solves:
#: keyword -> (flag, type, metavar, help).
_SOLVER_LIMITS = {
    "max_seconds": (
        "--max-seconds", float, "SECONDS",
        "wall-clock limit of each prediction call: one history's, round's "
        "or window's whole k-enumeration, encoding included",
    ),
    "max_conflicts": (
        "--max-conflicts", int, "N",
        "conflict limit of each solver check; deterministic, unlike a "
        "wall-clock limit",
    ),
}


def _workload(args) -> WorkloadConfig:
    if args.workload == "small":
        return WorkloadConfig.small(args.ops_scale)
    return WorkloadConfig.large(args.ops_scale)


def _store_backend(args):
    """The parsed --backend selection (None for the in-memory default)."""
    from .store.backends import make_store_backend

    try:
        return make_store_backend(getattr(args, "backend", None))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _cmd_record(args) -> int:
    app_cls = _APPS[args.app]
    backend = _store_backend(args)
    try:
        outcome = record_observed(
            app_cls(_workload(args)), args.seed, backend=backend
        )
    finally:
        close_store_backend(backend)
    meta = {
        "app": args.app,
        "seed": args.seed,
        "workload": args.workload,
        "isolation": "serializable",  # observed recordings are serial
    }
    meta.update(outcome.meta)  # backend provenance (shards, archive id)
    save_history(outcome.history, args.out, meta=meta)
    h = outcome.history
    reads = sum(len(t.reads) for t in h.transactions())
    writes = sum(len(t.writes) for t in h.transactions())
    print(
        f"recorded {args.app} seed={args.seed}: {len(h)} committed "
        f"transactions, {reads} reads, {writes} writes -> {args.out}"
    )
    return 0


def _print_prediction(result, args) -> None:
    """The shared report block for predict/analyze."""
    print(f"prediction: {result.status.value}")
    stats = result.stats
    print(
        f"  literals={stats.get('literals', 0)} "
        f"gen={stats.get('gen_seconds', 0):.2f}s "
        f"solve={stats.get('solve_seconds', 0):.2f}s"
    )
    if getattr(args, "profile", False):
        from .perf import format_profile

        print(format_profile(stats))
    if result.found:
        print(f"  boundaries: {result.boundaries}")
        print(f"  pco cycle:  {' < '.join(result.cycle)}")
        shown = result.predicted
        if getattr(args, "minimize", False):
            from .minimize import minimize_witness

            shown = minimize_witness(shown)
            print(
                f"  minimized witness: {len(shown)} of "
                f"{len(result.predicted)} transactions"
            )
        print(history_to_text(shown, include_pco=True))
        if args.out:
            save_history(result.predicted, args.out)
            print(f"  predicted history written to {args.out}")


def _tally_solver(stats: dict) -> None:
    """Count the analysis's solver effort on the command's root span."""
    from .obs import tally
    from .perf import COUNTER_KEYS

    tally("solver", stats, COUNTER_KEYS)


def _cmd_predict(args) -> int:
    session = (
        Analysis(TraceFileSource(args.trace))
        .under(IsolationLevel.parse(args.isolation))
        .using(
            PredictionStrategy.parse(args.strategy),
            max_seconds=args.max_seconds,
            max_conflicts=args.max_conflicts,
        )
    )
    result = session.run(k=1, validate=False).prediction
    _tally_solver(result.stats)
    _print_prediction(result, args)
    return 0 if result.status is not Result.UNKNOWN else 2


def _analyze_source(args):
    backend = _store_backend(args)
    if args.trace is not None:
        if backend is not None:
            print(
                "error: --backend selects where an app executes; a trace "
                "is already recorded (sqlite archives load as traces: "
                "--trace runs.sqlite)",
                file=sys.stderr,
            )
            raise SystemExit(2)
        from .sources import as_source

        return as_source(args.trace)  # JSON/JSONL file or sqlite archive
    if args.fuzz is not None:
        return FuzzSource(
            shape_seed=args.fuzz, config=_workload(args), seed=args.seed,
            backend=backend,
        )
    return BenchAppSource(
        args.app, _workload(args), args.seed, backend=backend
    )


def _cmd_analyze(args) -> int:
    """Source-agnostic record→predict→validate in one command."""
    source = _analyze_source(args)
    try:
        return _analyze(source, args)
    finally:
        close_store_backend(getattr(source, "backend", None))


def _analyze(source, args) -> int:
    session = (
        Analysis(source)
        .under(IsolationLevel.parse(args.isolation))
        .using(
            PredictionStrategy.parse(args.strategy),
            max_seconds=args.max_seconds,
            max_conflicts=args.max_conflicts,
        )
    )
    run = session.recorded
    meta = " ".join(f"{k}={v}" for k, v in sorted(run.meta.items()))
    print(f"analyzing {session.source.name}: {len(run.history)} committed "
          f"transactions ({meta})")
    batch = session.predict(k=args.k)
    _tally_solver(batch.stats)
    best = AnalysisResult(run=run, batch=batch).prediction
    if args.k > 1:
        print(f"predictions found: {len(batch)}/{args.k}")
    _print_prediction(best, args)
    if batch.found and not args.no_validate:
        if run.can_validate:
            report = session.validate()
            print(f"validated:  {report.validated}")
            print(
                f"diverged:   {report.diverged} "
                f"({len(report.divergences)} reads)"
            )
        else:
            print(
                "validation unavailable: this source has no replayable "
                "application (analysis-only trace)"
            )
    return 0 if batch.status is not Result.UNKNOWN else 2


def _cmd_check(args) -> int:
    history = load_history(args.trace)
    ser = is_serializable(history)
    print(f"transactions:    {len(history)}")
    print(f"serializable:    {bool(ser)}")
    if ser:
        print(f"  witness order: {' < '.join(ser.commit_order)}")
    else:
        print(f"  pco witness:   {pco_unserializable(history)}")
    print(f"causal:          {is_causal(history)}")
    print(f"read committed:  {is_read_committed(history)}")
    return 0


def _cmd_render(args) -> int:
    history = load_history(args.trace)
    if args.format == "dot":
        print(history_to_dot(history, include_pco=args.pco))
    else:
        print(history_to_text(history, include_pco=args.pco))
    return 0


def _cmd_validate(args) -> int:
    """Validate a predicted trace by replaying the app that produced it."""
    predicted = load_history(args.predicted)
    observed = load_history(args.observed) if args.observed else None
    session = Analysis(
        BenchAppSource(args.app, _workload(args), args.seed)
    ).under(IsolationLevel.parse(args.isolation))
    report = session.validate(prediction=predicted, observed=observed)
    print(f"validated:  {report.validated}")
    print(f"diverged:   {report.diverged} ({len(report.divergences)} reads)")
    print(f"validating execution: {len(report.validating)} transactions")
    if args.verbose:
        print(history_to_text(report.validating, include_pco=True))
    return 0 if report.validated else 1


def _cmd_bench(args) -> int:
    level = IsolationLevel.parse(args.isolation)
    strategy = PredictionStrategy.parse(args.strategy)
    sat = validated = 0
    for seed in range(args.seeds):
        session = (
            Analysis(BenchAppSource(args.app, _workload(args), seed))
            .under(level)
            .using(strategy, max_seconds=args.max_seconds)
        )
        result = session.run(k=1)
        mark = result.batch.status.value
        if result.batch.found:
            sat += 1
            report = result.validation
            if report.validated:
                validated += 1
            mark += " validated" if report.validated else " NOT validated"
            if report.diverged:
                mark += " (diverged)"
        print(f"  seed {seed}: {mark}")
    print(
        f"{args.app} under {level} [{strategy}]: "
        f"{sat}/{args.seeds} predicted, {validated} validated"
    )
    return 0


def _cmd_campaign(args) -> int:
    """Run a parallel sweep of rounds (see repro.campaign)."""
    from .campaign import (
        CampaignExecutor,
        CampaignSpec,
        load_manifest,
        plan_fleet,
        run_worker,
    )

    fleet_mode = args.manifest is not None or args.fleet is not None
    if fleet_mode and args.worker_id is None:
        print(
            "error: --fleet/--manifest run one worker's shard; pass "
            "--worker-id I (see 'isopredict fleet plan' / 'fleet merge' "
            "for the full recipe)",
            file=sys.stderr,
        )
        return 2
    if args.worker_id is not None and not fleet_mode:
        print(
            "error: --worker-id needs --fleet K or --manifest PATH",
            file=sys.stderr,
        )
        return 2
    if args.manifest is not None and args.spec:
        print(
            "error: --manifest already carries the campaign spec; drop "
            "--spec",
            file=sys.stderr,
        )
        return 2
    try:
        manifest = None
        if args.manifest is not None:
            manifest = load_manifest(args.manifest)
            spec = manifest.spec
        elif args.spec:
            spec = CampaignSpec.from_file(args.spec)
        else:
            spec = CampaignSpec(
                name=args.name,
                apps=args.apps,
                isolation_levels=args.isolation,
                strategies=args.strategies,
                workloads=args.workloads,
                seeds=args.seeds,
                modes=args.modes,
                source=args.source,
                ops_scale=args.ops_scale,
                validate=not args.no_validate,
                max_seconds=args.max_seconds,
                max_predictions=args.k,
                max_rounds=args.max_rounds,
                backend=args.backend,
            )
        if fleet_mode and manifest is None:
            manifest = plan_fleet(spec, args.fleet, root=".")
        executor = None
        if not fleet_mode:
            executor = CampaignExecutor(
                spec,
                jobs=args.jobs,
                out=args.out or "campaign.jsonl",
                resume=args.resume,
                log=None if args.quiet else print,
                max_retries=args.max_retries,
                retry_backoff=args.retry_backoff,
                heartbeat_seconds=args.heartbeat,
                fault_plan=args.fault_plan,
            )
    except (ValueError, OSError) as exc:
        print(f"error: invalid campaign spec: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # tomllib/json parse errors
        source = args.spec or args.manifest or "flags"
        print(f"error: could not parse {source}: {exc}", file=sys.stderr)
        return 2
    if fleet_mode:
        report = run_worker(
            manifest,
            args.worker_id,
            jobs=args.jobs,
            resume=args.resume,
            log=None if args.quiet else print,
            out=args.out,
            max_retries=args.max_retries,
            retry_backoff=args.retry_backoff,
            heartbeat_seconds=args.heartbeat,
            fault_plan=args.fault_plan,
        )
    else:
        report = executor.run()
    print(report.summary())
    if args.report:
        Path(args.report).write_text(report.canonical_json())
        print(f"canonical report written to {args.report}")
    if args.summary:
        Path(args.summary).write_text(report.summary() + "\n")
        print(f"summary written to {args.summary}")
    if report.cancelled:
        return 130
    return 1 if report.errors else 0


def _robustness_env(args) -> int:
    """Export retry knobs / install the chaos plan for in-process seams
    (``fleet merge``'s manifest and merge, ``watch``'s store and stream)
    before they run. Returns a non-zero exit code on a bad plan."""
    import os

    from .faults import MAX_RETRIES_ENV, RETRY_BACKOFF_ENV, install_plan

    if args.max_retries is not None:
        os.environ[MAX_RETRIES_ENV] = str(args.max_retries)
    if args.retry_backoff is not None:
        os.environ[RETRY_BACKOFF_ENV] = repr(args.retry_backoff)
    if args.fault_plan:
        try:
            install_plan(args.fault_plan, env=True)
        except ValueError as exc:
            print(f"error: bad --fault-plan: {exc}", file=sys.stderr)
            return 2
    return 0


def _cmd_fleet_plan(args) -> int:
    """Shard a campaign spec into a written fleet manifest."""
    from .campaign import CampaignSpec, plan_fleet

    out = Path(args.out)
    try:
        spec = CampaignSpec.from_file(args.spec)
        manifest = plan_fleet(spec, args.fleet, root=out.parent)
    except (ValueError, OSError) as exc:
        print(f"error: invalid campaign spec: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # tomllib/json parse errors
        print(f"error: could not parse {args.spec}: {exc}", file=sys.stderr)
        return 2
    manifest.write(out)
    total = sum(len(w.round_ids) for w in manifest.workers)
    print(
        f"fleet manifest: {out} ({manifest.fleet} workers, "
        f"{total} rounds)"
    )
    for entry in manifest.workers:
        print(
            f"  worker {entry.worker_id}: {len(entry.round_ids)} rounds "
            f"-> {entry.results}"
        )
    print(
        "run each shard with: isopredict campaign "
        f"--manifest {out} --worker-id I"
    )
    return 0


def _cmd_fleet_merge(args) -> int:
    """Merge worker streams into one campaign report (optionally heal)."""
    import json

    from .campaign import CampaignSpec, load_manifest, merge_fleet

    code = _robustness_env(args)
    if code:
        return code
    try:
        if args.manifest is not None:
            if args.streams:
                print(
                    "error: --manifest derives the worker streams; drop "
                    "the positional stream arguments",
                    file=sys.stderr,
                )
                return 2
            manifest = load_manifest(args.manifest)
            spec = manifest.spec
            streams = [
                manifest.results_path(w.worker_id)
                for w in manifest.workers
            ]
        else:
            if not args.spec or not args.streams:
                print(
                    "error: fleet merge needs --manifest PATH, or --spec "
                    "FILE plus the worker stream paths",
                    file=sys.stderr,
                )
                return 2
            spec = CampaignSpec.from_file(args.spec)
            streams = list(args.streams)
            manifest = None
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # tomllib/json parse errors
        source = args.manifest or args.spec
        print(f"error: could not parse {source}: {exc}", file=sys.stderr)
        return 2
    merge = merge_fleet(
        spec,
        streams,
        out=args.out,
        heal=args.resume,
        jobs=args.jobs,
        log=None if args.quiet else print,
        max_retries=args.max_retries,
        retry_backoff=args.retry_backoff,
        fault_plan=args.fault_plan,
    )
    print(merge.report.summary())
    print("merge: " + json.dumps(merge.summary(), sort_keys=True))
    if args.report:
        Path(args.report).write_text(merge.report.canonical_json())
        print(f"canonical report written to {args.report}")
    if args.archive:
        code = _merge_worker_archives(args, manifest, spec)
        if code:
            return code
    if not merge.complete:
        print(
            "incomplete: some rounds have no successful result "
            "(re-run with --resume to heal locally)",
            file=sys.stderr,
        )
        return 1
    return 0


def _merge_worker_archives(args, manifest, spec) -> int:
    """Compact the per-worker SQLite archives into ``args.archive``."""
    from .store.backends import (
        SqliteBackend,
        compact_archive,
        make_store_backend,
    )

    if manifest is None:
        print(
            "error: --archive needs --manifest (the worker workdirs "
            "locate the per-worker archives)",
            file=sys.stderr,
        )
        return 2
    backend = make_store_backend(spec.backend)
    if not isinstance(backend, SqliteBackend):
        print(
            f"error: --archive: spec backend is {spec.backend!r}, not a "
            "sqlite archive",
            file=sys.stderr,
        )
        return 2
    sources = []
    for entry in manifest.workers:
        candidate = manifest.workdir(entry.worker_id) / backend.path
        if candidate.exists() and candidate.resolve() not in [
            s.resolve() for s in sources
        ]:
            sources.append(candidate)
    if not sources:
        print("no worker archives found; nothing to compact")
        return 0
    stats = compact_archive(args.archive, sources)
    print(stats.summary())
    print(f"merged archive: {args.archive}")
    return 0


def _cmd_archive_compact(args) -> int:
    """Dedup/merge/VACUUM SQLite execution archives."""
    from .store.backends import compact_archive

    try:
        stats = compact_archive(
            args.dest, args.sources, vacuum=not args.no_vacuum
        )
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(stats.summary())
    print(
        f"archive: {args.dest} ({stats.rows_out} executions, "
        f"{stats.bytes_after} bytes)"
    )
    return 0


def _cmd_fuzz(args) -> int:
    """Run the coverage-guided anomaly miner (see repro.fuzz)."""
    import json

    from .fuzz import FuzzConfig, fuzz
    from .store.backends import store_backend_spec

    try:
        config = FuzzConfig(
            seed=args.seed,
            iterations=args.iterations,
            minutes=args.minutes,
            isolation=args.isolation,
            backend=store_backend_spec(args.backend),
            k=args.k,
            guided=not args.blind,
            max_conflicts=args.max_conflicts,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = Path(args.out)
    report = fuzz(
        config,
        jobs=args.jobs,
        corpus_path=out / "corpus.jsonl",
        finds_dir=out / "finds",
        resume=args.resume,
        log=None if args.quiet else print,
    )
    print(json.dumps(report.summary(), indent=2, sort_keys=True))
    print(f"corpus: {out / 'corpus.jsonl'} ({len(report.finds)} finds)")
    return 0 if report.finds else 1


def _watch_source(args):
    """The (possibly tailing) history source behind ``watch``."""
    from .serve import SqliteWatchSource, TailingJsonlSource

    if args.trace is not None:
        path = Path(args.trace)
        tail = dict(
            poll_seconds=args.poll,
            follow=args.follow,
            idle_timeout=args.idle_timeout,
            max_runs=args.runs,
        )
        if path.suffix.lower() in _SQLITE_SUFFIXES:
            return SqliteWatchSource(path, from_start=not args.new_only,
                                     **tail)
        return TailingJsonlSource(path, from_start=not args.new_only, **tail)
    backend = None
    if args.archive:
        from .store.backends import SqliteBackend

        backend = SqliteBackend(args.archive, max_runs=args.keep)
    return FuzzSource(
        shape_seed=args.fuzz,
        config=_workload(args),
        seed=args.seed,
        count=args.runs,
        backend=backend,
    )


def _cmd_watch(args) -> int:
    """Continuous windowed prediction over a live run stream."""
    import json

    from .serve import StreamingAnalysis

    code = _robustness_env(args)
    if code:
        return code
    if args.trace is not None and args.archive:
        print(
            "error: --archive persists runs recorded by --fuzz; a tailed "
            "--trace recording is already durable",
            file=sys.stderr,
        )
        return 2
    if args.trace is None and (args.follow or args.new_only):
        print(
            "error: --follow/--new-only tail a --trace recording; a "
            "--fuzz stream is generated, not tailed",
            file=sys.stderr,
        )
        return 2
    if args.checkpoint and args.trace is None:
        print(
            "error: --checkpoint resumes a tailed --trace source; a "
            "--fuzz stream restarts deterministically from its seed",
            file=sys.stderr,
        )
        return 2
    levels = [s.strip() for s in args.isolation.split(",") if s.strip()]

    def on_finding(finding):
        if out_fh is not None:
            out_fh.write(json.dumps(finding.to_json(), sort_keys=True) + "\n")
            out_fh.flush()
        if not args.quiet:
            print(
                f"  FOUND {finding.key} "
                f"(run {finding.run_index}, window "
                f"[{finding.window_start}:{finding.window_stop}])"
            )

    source = _watch_source(args)
    engine = StreamingAnalysis(
        source,
        window=args.window,
        stride=args.stride,
        isolation=levels,
        strategy=args.strategy,
        k=args.k,
        max_seconds=args.max_seconds,
        max_conflicts=args.max_conflicts,
        max_runs=args.runs,
        max_windows=args.windows,
        max_findings=args.max_findings,
        on_finding=on_finding,
        log=None if args.quiet else print,
        checkpoint=args.checkpoint,
    )
    metrics_server = None
    if args.metrics_addr:
        from .obs import MetricsServer

        try:
            metrics_server = MetricsServer(args.metrics_addr, engine.metrics)
            metrics_server.start()
        except (OSError, ValueError) as exc:
            close_store_backend(getattr(source, "backend", None))
            print(f"error: bad --metrics-addr: {exc}", file=sys.stderr)
            return 2
        if not args.quiet:
            print(f"metrics: http://{metrics_server.address}/metrics")
    out_fh = open_append(args.out)[0] if args.out else None
    interrupted = False
    try:
        report = engine.run()
    except KeyboardInterrupt:
        interrupted = True
        report = engine.report()
        print("\ninterrupted — reporting the stream so far", file=sys.stderr)
    finally:
        close_store_backend(getattr(source, "backend", None))  # --archive
        if out_fh is not None:
            out_fh.close()
        if metrics_server is not None:
            metrics_server.stop()
    print(json.dumps(report.summary(), indent=2, sort_keys=True))
    if args.out:
        print(f"findings: {args.out} ({len(report.findings)} rows)")
    if interrupted:
        return 130
    return 0 if report.findings else 1


def _cmd_corpus_promote(args) -> int:
    """Promote novel fuzz finds into the regression corpus."""
    from .fuzz import promote_entries

    source = Path(args.source)
    if source.is_dir():
        source = source / "corpus.jsonl"
    if not source.exists():
        print(f"error: no corpus at {source}", file=sys.stderr)
        return 2
    report = promote_entries(
        source,
        args.dest,
        verify=not args.no_verify,
        log=None if args.quiet else print,
    )
    summary = report.summary()
    print(
        f"promoted {len(summary['promoted'])} entr(y/ies) to {args.dest} "
        f"({len(summary['known'])} already known, "
        f"{len(summary['failed'])} failed verification)"
    )
    return 1 if report.failed else 0


def _cmd_obs_report(args) -> int:
    """Summarize a telemetry trace: stages, rollups, critical path."""
    import json

    from .obs import build_report, format_report, load_events

    report = build_report(load_events(args.trace))
    try:
        if args.json:
            print(json.dumps(report, indent=2, sort_keys=True))
        else:
            print(format_report(report, top=args.top))
    except BrokenPipeError:  # report | head is a normal way to skim
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


def _cmd_obs_validate(args) -> int:
    """Check a telemetry trace against the event schema."""
    from .obs import load_events, validate_events

    events = load_events(args.trace)
    problems = validate_events(events)
    for problem in problems:
        print(f"INVALID: {problem}")
    if problems:
        return 1
    spans = sum(1 for e in events if e.get("event") == "span")
    print(f"ok: {len(events)} events, {spans} spans")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isopredict",
        description=(
            "Dynamic predictive analysis for unserializable behaviours "
            "under weak isolation (PLDI 2024 reproduction)"
        ),
        epilog=(
            "Start with README.md for a guided tour; 'campaign' runs the "
            "paper-scale sweeps (Tables 3-7) in parallel."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_workload(p):
        p.add_argument("--workload", choices=("small", "large"),
                       default="small")
        p.add_argument("--ops-scale", type=int, default=1, dest="ops_scale")

    def add_store_backend(p):
        p.add_argument(
            "--backend", default="inmemory", metavar="SPEC",
            help="store backend: inmemory (default), sharded:N[:local] "
                 "(hash-routed shards; ':local' judges read legality per "
                 "shard), or sqlite:PATH (persist every execution to a "
                 "reopenable SQLite archive)",
        )

    def add_solver_limits(p, **defaults):
        """``--max-seconds``/``--max-conflicts``: one per keyword given,
        with that keyword's value as the command's default."""
        for dest, default in defaults.items():
            flag, kind, metavar, what = _SOLVER_LIMITS[dest]
            shown = "unbounded" if default is None else f"{default:g}"
            p.add_argument(
                flag, type=kind, default=default, metavar=metavar,
                help=f"{what} (default: {shown})",
            )

    def add_robustness(p):
        p.add_argument(
            "--max-retries", type=int, default=None, metavar="N",
            help="retry budget for transient failures (locked archive, "
                 "crashed worker, solver timeout); default 2",
        )
        p.add_argument(
            "--retry-backoff", type=float, default=None, metavar="SECONDS",
            help="base backoff between retries (exponential with "
                 "deterministic jitter); default 0.05",
        )
        p.add_argument(
            "--fault-plan", default=None, metavar="SPEC",
            help="deterministic fault injection for chaos testing: "
                 "';'-separated point:kind[@after][*times] specs, e.g. "
                 "'store.sqlite.persist:busy*2;campaign.round:crash' "
                 "(see docs/robustness.md)",
        )

    def add_telemetry(p):
        p.add_argument(
            "--telemetry", default=None, metavar="PATH",
            help="write a structured trace of this invocation to PATH "
                 "as schema-versioned JSONL spans/metrics; worker "
                 "processes stitch into the same trace (see "
                 "docs/observability.md); inspect with 'isopredict obs "
                 "report PATH'",
        )
        p.add_argument(
            "--telemetry-clock", default=None, metavar="SPEC",
            help="telemetry clock override: 'fixed[:T]' freezes every "
                 "timestamp so same-seed runs emit byte-identical "
                 "traces (determinism harnesses; durations become 0)",
        )

    p_analyze = sub.add_parser(
        "analyze",
        help="record/load a history from any source, predict, validate",
        description=(
            "The source-agnostic pipeline: pick exactly one history "
            "source (--app records a benchmark app in process, --trace "
            "loads an externally recorded JSON/JSONL trace, --fuzz "
            "records a generated random app), then predict and — when "
            "the source can replay — validate."
        ),
    )
    source_group = p_analyze.add_mutually_exclusive_group(required=True)
    source_group.add_argument(
        "--app", choices=sorted(_APPS), default=None,
        help="record this benchmark app",
    )
    source_group.add_argument(
        "--trace", default=None,
        help="analyze a saved trace file (no app class in the loop)",
    )
    source_group.add_argument(
        "--fuzz", type=int, default=None, metavar="SHAPE_SEED",
        help="record a generated random app with this shape seed",
    )
    p_analyze.add_argument("--seed", type=int, default=0)
    p_analyze.add_argument("--isolation", default="causal")
    p_analyze.add_argument("--strategy", default="approx-relaxed")
    p_analyze.add_argument(
        "--k", type=int, default=1,
        help="distinct predictions to enumerate",
    )
    add_solver_limits(p_analyze, max_seconds=120.0, max_conflicts=None)
    p_analyze.add_argument(
        "--no-validate", action="store_true",
        help="skip replay validation of predictions",
    )
    p_analyze.add_argument(
        "--out", default=None,
        help="write the best predicted history to this file",
    )
    p_analyze.add_argument(
        "--minimize", action="store_true",
        help="shrink the reported prediction to its witness kernel",
    )
    p_analyze.add_argument(
        "--profile", action="store_true",
        help="print per-stage timings (encode/compile/solve/decode) "
             "and solver counters",
    )
    add_workload(p_analyze)
    add_store_backend(p_analyze)
    add_telemetry(p_analyze)
    p_analyze.set_defaults(func=_cmd_analyze)

    p_record = sub.add_parser("record", help="record an observed execution")
    p_record.add_argument("--app", choices=sorted(_APPS), required=True)
    p_record.add_argument("--seed", type=int, default=0)
    p_record.add_argument("--out", default="trace.json")
    add_workload(p_record)
    add_store_backend(p_record)
    p_record.set_defaults(func=_cmd_record)

    p_predict = sub.add_parser("predict", help="predict an unserializable run")
    p_predict.add_argument("trace")
    p_predict.add_argument("--isolation", default="causal")
    p_predict.add_argument("--strategy", default="approx-relaxed")
    add_solver_limits(p_predict, max_seconds=None, max_conflicts=None)
    p_predict.add_argument("--out", default=None)
    p_predict.add_argument(
        "--minimize",
        action="store_true",
        help="shrink the reported prediction to its witness kernel",
    )
    p_predict.add_argument(
        "--profile", action="store_true",
        help="print per-stage timings and solver counters",
    )
    add_telemetry(p_predict)
    p_predict.set_defaults(func=_cmd_predict)

    p_check = sub.add_parser("check", help="check a trace's isolation levels")
    p_check.add_argument("trace")
    p_check.set_defaults(func=_cmd_check)

    p_render = sub.add_parser("render", help="render a trace")
    p_render.add_argument("trace")
    p_render.add_argument("--format", choices=("text", "dot"), default="text")
    p_render.add_argument("--pco", action="store_true")
    p_render.set_defaults(func=_cmd_render)

    p_validate = sub.add_parser(
        "validate", help="replay an app against a predicted trace"
    )
    p_validate.add_argument("predicted")
    p_validate.add_argument("--app", choices=sorted(_APPS), required=True)
    p_validate.add_argument("--seed", type=int, default=0)
    p_validate.add_argument("--isolation", default="causal")
    p_validate.add_argument("--observed", default=None)
    p_validate.add_argument("--verbose", action="store_true")
    add_workload(p_validate)
    p_validate.set_defaults(func=_cmd_validate)

    p_bench = sub.add_parser("bench", help="predict+validate across seeds")
    p_bench.add_argument("--app", choices=sorted(_APPS), required=True)
    p_bench.add_argument("--isolation", default="causal")
    p_bench.add_argument("--strategy", default="approx-relaxed")
    p_bench.add_argument("--seeds", type=int, default=10)
    add_solver_limits(p_bench, max_seconds=120.0)
    add_workload(p_bench)
    p_bench.set_defaults(func=_cmd_bench)

    p_campaign = sub.add_parser(
        "campaign",
        help="run a parallel sweep of record/predict/validate rounds",
        description=(
            "Plan and execute a campaign: a sweep of rounds over apps x "
            "isolation levels x strategies x seeds, fanned out over worker "
            "processes, streaming per-round results to JSONL and printing "
            "a Tables 4-7 style summary. A spec file (TOML or JSON) "
            "replaces the sweep flags; see README.md for the format."
        ),
    )
    p_campaign.add_argument(
        "--spec", default=None,
        help="campaign spec file (.toml or .json); overrides sweep flags",
    )
    p_campaign.add_argument("--name", default="campaign")
    p_campaign.add_argument(
        "--apps", default="smallbank",
        help="comma-separated app names, or 'all'",
    )
    p_campaign.add_argument(
        "--isolation", default="causal",
        help="comma-separated isolation levels (causal, rc, ra)",
    )
    p_campaign.add_argument(
        "--strategies", default="approx-relaxed",
        help="comma-separated prediction strategies",
    )
    p_campaign.add_argument(
        "--workloads", default="small",
        help="comma-separated workloads (tiny, small, large)",
    )
    p_campaign.add_argument(
        "--seeds", default="3",
        help="seed count (N -> seeds 0..N-1) or explicit list '0,3,7'",
    )
    p_campaign.add_argument(
        "--modes", default="predict",
        help="comma-separated round modes (predict, monkeydb, interleaved)",
    )
    p_campaign.add_argument(
        "--source", default="bench",
        help="history source: bench, fuzz, or trace:<path>",
    )
    p_campaign.add_argument("--ops-scale", type=int, default=1,
                            dest="ops_scale")
    p_campaign.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes (1 = run inline)",
    )
    p_campaign.add_argument(
        "--out", default=None,
        help="streamed per-round results (JSONL; default campaign.jsonl, "
             "or the manifest's worker stream in fleet mode)",
    )
    p_campaign.add_argument(
        "--resume", action="store_true",
        help="skip rounds already completed in --out",
    )
    p_campaign.add_argument(
        "--fleet", type=int, default=None, metavar="K",
        help="fleet mode: run only this host's shard of a deterministic "
             "K-way round partition (requires --worker-id; merge the "
             "worker streams with 'isopredict fleet merge')",
    )
    p_campaign.add_argument(
        "--worker-id", type=int, default=None, dest="worker_id",
        metavar="I",
        help="which shard to run, 0-based (with --fleet or --manifest)",
    )
    p_campaign.add_argument(
        "--manifest", default=None, metavar="PATH",
        help="fleet manifest written by 'isopredict fleet plan'; carries "
             "the spec and per-worker layout (implies fleet mode)",
    )
    p_campaign.add_argument(
        "--report", default=None, metavar="PATH",
        help="write the canonical timing-free report JSON to PATH — "
             "byte-identical across equivalent runs (jobs, fleet size)",
    )
    p_campaign.add_argument(
        "--no-validate", action="store_true",
        help="skip replay validation of predictions",
    )
    add_solver_limits(p_campaign, max_seconds=120.0)
    p_campaign.add_argument(
        "--k", type=int, default=1, dest="k",
        help="distinct predictions to enumerate per history",
    )
    p_campaign.add_argument(
        "--max-rounds", type=int, default=None,
        help="round budget: stop expanding the sweep after N rounds",
    )
    p_campaign.add_argument(
        "--backend", default="inmemory", metavar="SPEC",
        help="store backend per round: inmemory, sharded:N[:local], or "
             "sqlite:PATH (workers share one archive file)",
    )
    p_campaign.add_argument(
        "--summary", default=None,
        help="also write the summary tables to this file",
    )
    add_robustness(p_campaign)
    p_campaign.add_argument(
        "--heartbeat", type=float, default=300.0, metavar="SECONDS",
        help="declare the worker pool stalled when no round result "
             "arrives for this long; missing rounds are re-submitted, "
             "then quarantined as errored rows past the retry budget",
    )
    p_campaign.add_argument("--quiet", action="store_true",
                            help="suppress per-round progress lines")
    add_telemetry(p_campaign)
    p_campaign.set_defaults(func=_cmd_campaign)

    p_fleet = sub.add_parser(
        "fleet",
        help="shard a campaign across workers and merge their streams",
        description=(
            "Fleet-scale campaigns: 'plan' shards a spec into a written "
            "manifest (round-robin over the deterministic expansion "
            "order), each worker runs its shard via 'isopredict campaign "
            "--manifest M --worker-id I' — separate processes, workdirs, "
            "or hosts — and 'merge' folds the worker streams back into "
            "one report byte-identical to a single-executor run. "
            "See docs/fleet.md."
        ),
    )
    fleet_sub = p_fleet.add_subparsers(dest="fleet_command", required=True)
    p_fleet_plan = fleet_sub.add_parser(
        "plan",
        help="shard a campaign spec into a written fleet manifest",
        description=(
            "Partition the spec's rounds into K deterministic shards and "
            "write a relocatable manifest (worker-<i>/ workdirs and "
            "streams relative to it). The manifest records each shard's "
            "round ids, so a spec edited after planning fails loud as "
            "stale instead of half-running the old partition."
        ),
    )
    p_fleet_plan.add_argument(
        "--spec", required=True,
        help="campaign spec file (.toml or .json)",
    )
    p_fleet_plan.add_argument(
        "--fleet", type=int, required=True, metavar="K",
        help="number of worker shards",
    )
    p_fleet_plan.add_argument(
        "--out", default="fleet/manifest.json",
        help="manifest path; worker workdirs are created next to it",
    )
    p_fleet_plan.set_defaults(func=_cmd_fleet_plan)
    p_fleet_merge = fleet_sub.add_parser(
        "merge",
        help="merge worker streams into one report; optionally heal gaps",
        description=(
            "Read every worker's JSONL stream (a missing stream is an "
            "empty one — that worker's rounds become the gap), keep one "
            "result per round id, write the merged stream, and build the "
            "merged report. --resume re-runs only the missing/errored "
            "rounds through a local executor, healing workers that died "
            "mid-shard on other hosts. Exit 0 iff every round has a "
            "successful result."
        ),
    )
    p_fleet_merge.add_argument(
        "streams", nargs="*",
        help="worker JSONL streams (with --spec; --manifest derives them)",
    )
    p_fleet_merge.add_argument(
        "--manifest", default=None, metavar="PATH",
        help="fleet manifest written by 'fleet plan'",
    )
    p_fleet_merge.add_argument(
        "--spec", default=None,
        help="campaign spec file (when merging explicit stream paths)",
    )
    p_fleet_merge.add_argument(
        "--out", default="merged.jsonl",
        help="merged JSONL stream (also the heal/resume stream)",
    )
    p_fleet_merge.add_argument(
        "--report", default=None, metavar="PATH",
        help="write the canonical timing-free report JSON to PATH",
    )
    p_fleet_merge.add_argument(
        "--resume", action="store_true",
        help="heal the gap: re-run rounds with no successful result "
             "through a local executor resuming over --out",
    )
    p_fleet_merge.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the heal step",
    )
    p_fleet_merge.add_argument(
        "--archive", default=None, metavar="PATH",
        help="also compact the per-worker sqlite archives into this one "
             "reopenable archive (--manifest only)",
    )
    p_fleet_merge.add_argument("--quiet", action="store_true",
                               help="suppress heal progress lines")
    add_robustness(p_fleet_merge)
    add_telemetry(p_fleet_merge)
    p_fleet_merge.set_defaults(func=_cmd_fleet_merge)

    p_archive = sub.add_parser(
        "archive", help="maintain SQLite execution archives"
    )
    archive_sub = p_archive.add_subparsers(dest="archive_command",
                                           required=True)
    p_archive_compact = archive_sub.add_parser(
        "compact",
        help="dedup identical executions, fold archives in, VACUUM",
        description=(
            "Dedup DEST's executions by content hash (earliest row "
            "wins, so surviving ids and concurrent tail cursors stay "
            "valid), fold any SOURCES archives in the same pass — a "
            "missing DEST is created, so merging N worker archives into "
            "a fresh file is one step — then VACUUM to return the freed "
            "pages. Sources are read-only. Idempotent."
        ),
    )
    p_archive_compact.add_argument("dest", help="archive to compact into")
    p_archive_compact.add_argument(
        "sources", nargs="*",
        help="additional archives to fold into dest (read-only)",
    )
    p_archive_compact.add_argument(
        "--no-vacuum", action="store_true", dest="no_vacuum",
        help="skip the VACUUM pass (keep the file layout as-is)",
    )
    p_archive_compact.set_defaults(func=_cmd_archive_compact)

    p_fuzz = sub.add_parser(
        "fuzz",
        help="mine anomalies with coverage-guided scenario fuzzing",
        description=(
            "Feedback-driven fuzzing over random-app program plans: "
            "mutate scenarios, fingerprint each analysis by anomaly "
            "shape, and keep every novel find as a minimized reproducer "
            "in a JSONL corpus. Fully deterministic per --seed with "
            "--iterations; a --minutes budget is prefix-deterministic. "
            "See docs/fuzzing.md."
        ),
    )
    budget_group = p_fuzz.add_mutually_exclusive_group()
    budget_group.add_argument(
        "--minutes", type=float, default=None,
        help="wall-clock mining budget (prefix-deterministic)",
    )
    budget_group.add_argument(
        "--iterations", type=int, default=None,
        help="per-worker iteration budget (fully reproducible; "
             "default 40 when --minutes is not given)",
    )
    p_fuzz.add_argument("--seed", type=int, default=0,
                        help="campaign scheduler seed")
    p_fuzz.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes (finds merge deterministically)",
    )
    p_fuzz.add_argument("--isolation", default="causal",
                        help="base isolation level (perturbed occasionally)")
    p_fuzz.add_argument(
        "--k", type=int, default=2,
        help="distinct predictions to enumerate per scenario",
    )
    add_solver_limits(p_fuzz, max_conflicts=20_000)
    p_fuzz.add_argument(
        "--out", default="fuzz-out",
        help="output directory (corpus.jsonl + finds/*.json)",
    )
    p_fuzz.add_argument(
        "--resume", action="store_true",
        help="reload --out corpus first: known shapes stop being novel "
             "and checked-in plans rejoin the population",
    )
    p_fuzz.add_argument(
        "--blind", action="store_true",
        help="disable coverage guidance (fresh random plans only; the "
             "baseline the comparison tests measure against)",
    )
    p_fuzz.add_argument("--quiet", action="store_true",
                        help="suppress per-find progress lines")
    add_store_backend(p_fuzz)
    add_telemetry(p_fuzz)
    p_fuzz.set_defaults(func=_cmd_fuzz)

    p_watch = sub.add_parser(
        "watch",
        help="stream runs through windowed incremental prediction",
        description=(
            "The streaming service mode: consume a live run stream — a "
            "fuzz scenario stream, or a tailed JSONL/SQLite recording "
            "another process appends to — segment committed transactions "
            "into overlapping windows, analyze each window incrementally, "
            "and report each anomaly exactly once across overlaps. "
            "Anomalies wider than every window are counted as coverage "
            "gaps, never dropped silently; see docs/streaming.md."
        ),
    )
    watch_source = p_watch.add_mutually_exclusive_group(required=True)
    watch_source.add_argument(
        "--fuzz", type=int, default=None, metavar="SHAPE_SEED",
        help="stream generated scenarios starting at this shape seed",
    )
    watch_source.add_argument(
        "--trace", default=None, metavar="PATH",
        help="tail a recording: a JSONL trace file, or a SQLite "
             "execution archive (*.sqlite/*.sqlite3/*.db)",
    )
    p_watch.add_argument("--seed", type=int, default=0,
                         help="recording seed for --fuzz scenarios")
    p_watch.add_argument(
        "--window", type=int, default=16,
        help="window size in committed transactions",
    )
    p_watch.add_argument(
        "--stride", type=int, default=None,
        help="commits between window starts (default: half the window, "
             "rounded up)",
    )
    p_watch.add_argument("--isolation", default="causal",
                         help="comma-separated isolation levels")
    p_watch.add_argument("--strategy", default="approx-relaxed")
    p_watch.add_argument(
        "--k", type=int, default=2,
        help="distinct predictions to enumerate per window",
    )
    add_solver_limits(p_watch, max_seconds=None, max_conflicts=None)
    p_watch.add_argument(
        "--runs", type=int, default=None,
        help="stop after this many runs (unbounded by default)",
    )
    p_watch.add_argument(
        "--windows", type=int, default=None,
        help="stop after this many analyzed windows",
    )
    p_watch.add_argument(
        "--max-findings", type=int, default=None, dest="max_findings",
        help="stop after this many distinct findings",
    )
    p_watch.add_argument(
        "--follow", action="store_true",
        help="--trace only: keep polling for new data after draining "
             "the backlog (tail -f semantics; default drains and exits)",
    )
    p_watch.add_argument(
        "--poll", type=float, default=0.2,
        help="--trace polling interval in seconds",
    )
    p_watch.add_argument(
        "--idle-timeout", type=float, default=None, dest="idle_timeout",
        help="--follow only: exit after this many seconds with no new "
             "data",
    )
    p_watch.add_argument(
        "--new-only", action="store_true", dest="new_only",
        help="--trace only: skip the existing backlog, watch only runs "
             "that arrive after startup",
    )
    p_watch.add_argument(
        "--archive", default=None, metavar="PATH",
        help="--fuzz only: persist every recorded run to this SQLite "
             "archive (the durable ingest spine; bounded by --keep)",
    )
    p_watch.add_argument(
        "--keep", type=int, default=256,
        help="retention bound for --archive: keep only the newest N "
             "executions (default 256)",
    )
    p_watch.add_argument(
        "--out", default=None,
        help="append each finding as a JSON line to this file",
    )
    p_watch.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="persist the watch cursor + dedup state to this file after "
             "every window/run; restarting with the same path resumes "
             "exactly-once after a crash (see docs/robustness.md)",
    )
    p_watch.add_argument(
        "--metrics-addr", default=None, metavar="HOST:PORT",
        dest="metrics_addr",
        help="serve live Prometheus-text metrics on this address for "
             "the duration of the watch (GET /metrics; ':PORT' binds "
             "127.0.0.1, port 0 picks a free port)",
    )
    add_robustness(p_watch)
    p_watch.add_argument("--quiet", action="store_true",
                         help="suppress per-finding progress lines")
    add_workload(p_watch)
    add_telemetry(p_watch)
    p_watch.set_defaults(func=_cmd_watch)

    p_corpus = sub.add_parser(
        "corpus", help="maintain the checked-in regression corpus"
    )
    corpus_sub = p_corpus.add_subparsers(dest="corpus_command",
                                         required=True)
    p_promote = corpus_sub.add_parser(
        "promote",
        help="promote novel fuzz finds into the regression corpus",
        description=(
            "Read a fuzz run's corpus (a corpus.jsonl file or the "
            "--out directory that contains one), drop entries whose "
            "anomaly shape the destination corpus already covers, "
            "re-verify the rest by replaying their recorded "
            "configuration, and append the survivors. Idempotent: "
            "promoting the same campaign twice adds nothing."
        ),
    )
    p_promote.add_argument(
        "source",
        help="fuzz corpus to promote from (corpus.jsonl or fuzz out dir)",
    )
    p_promote.add_argument(
        "--dest", default="tests/corpus/corpus.jsonl",
        help="regression corpus to promote into",
    )
    p_promote.add_argument(
        "--no-verify", action="store_true",
        help="skip replay verification of candidates (not recommended)",
    )
    p_promote.add_argument("--quiet", action="store_true")
    p_promote.set_defaults(func=_cmd_corpus_promote)

    p_obs = sub.add_parser(
        "obs", help="inspect telemetry traces written by --telemetry"
    )
    obs_sub = p_obs.add_subparsers(dest="obs_command", required=True)
    p_obs_report = obs_sub.add_parser(
        "report",
        help="per-stage and critical-path breakdown of a trace",
        description=(
            "Aggregate a telemetry JSONL (written by any command's "
            "--telemetry PATH) into --profile-style stage totals, a "
            "per-span-name rollup, and the trace's critical path — "
            "post-hoc and across every process that joined the trace."
        ),
    )
    p_obs_report.add_argument("trace", help="telemetry JSONL path")
    p_obs_report.add_argument(
        "--json", action="store_true",
        help="emit the raw report document instead of tables",
    )
    p_obs_report.add_argument(
        "--top", type=int, default=12,
        help="rows in the top-spans table (default 12)",
    )
    p_obs_report.set_defaults(func=_cmd_obs_report)
    p_obs_validate = obs_sub.add_parser(
        "validate",
        help="check a trace against the telemetry event schema",
        description=(
            "The CI schema gate: meta header first, known schema "
            "version, required fields per event kind, spans closed "
            "exactly once, resolvable parents, and same-process "
            "nesting containment."
        ),
    )
    p_obs_validate.add_argument("trace", help="telemetry JSONL path")
    p_obs_validate.set_defaults(func=_cmd_obs_validate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    from .obs import telemetry_session

    try:
        with telemetry_session(
            getattr(args, "telemetry", None),
            command=args.command,
            clock=getattr(args, "telemetry_clock", None),
        ):
            return args.func(args)
    except (JsonlError, OSError) as exc:  # a corrupt or unreadable file
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

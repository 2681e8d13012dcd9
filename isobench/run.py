"""End-to-end benchmark of isopredict prediction campaigns run as a fleet.

One *batch* is the full user-visible path of a campaign run as a fleet:

    plan K shards -> write the manifest -> each worker loads the manifest
    and runs its shard (JSONL stream + SQLite archive in its own workdir)
    -> merge the worker streams (healing any gap with a local resume)
    -> compact the worker archives into one deduplicated archive.

Every batch is a fresh ``CampaignSpec`` of tiny-history prediction rounds
(five apps x causal/rc) whose round seed derives from ``--seed`` and the
batch index, so the same seed always gives the same inputs. Batches run
back to back (a closed loop, one client, workers in this process) until
``--seconds`` of batch time has been measured.

Workloads (``--workload``):

``exact``    one-worker fleet of exact-strict rounds: CEGIS with a fresh
             serializability solve per candidate, so the solver dominates;
             merge and compaction see one stream and one archive, so a
             change to the fleet layers should not move this workload.
``fleet``    three workers of approx-relaxed rounds; the last one "dies"
             mid-shard (its stream loses its tail and ends in a torn
             line), so the merge heals the gap and compaction drops the
             duplicate executions the dead worker had already archived.

Correctness, never timed: on every batch, the merge is complete, no round
errored, and the compacted archive holds each distinct execution once; on
an untimed warm-up batch and every tenth timed one, the merged report's
canonical JSON is byte-identical to a single ``CampaignExecutor`` run
(``--jobs 1``) of the same spec, and the compacted archive holds exactly
the distinct executions of that reference run (same content hashes).

Timing: the end-to-end times are CPU times normalised for host speed
(see ``speed.py``): each batch and each cold start runs between two runs
of a fixed reference kernel (a batch shares them with its neighbours),
and its CPU time is reported in units of their mean, scaled to
milliseconds on the reference host. The batch is one single-threaded
process doing little but compute, so its CPU time is its latency on an
idle host; time it waits on the disk is left out.

Output: the last stdout line is one JSON object. ``--trace 0`` reports
the end-to-end metrics: ``norm_batch_ms``, the median normalised batch
time; ``norm_rounds_per_s``, merged rounds per normalised second over all
timed batches; and ``setup_s``, the median over five cold starts (fresh
interpreter, import, first batch) of the normalised time to the first
merged, compacted report. ``--trace 1`` reports per-layer medians (wall
ms per batch) and per-batch mean counts. Round layers come from each
executed round's own timings (encode, solve, and the rest: recording,
archive writes, validation replay, CEGIS checks); ``merge_ms`` excludes
the rounds the heal re-ran, and ``coord_ms`` is the batch wall not spent
inside any round. ``retained_objects`` counts the objects a batch leaves
alive after a collection; ``batch_wall_ms`` is the median raw batch wall
time and ``kernel_ms`` the median reference-kernel CPU time, the host's
speed.

Usage, from the repository root::

    python3 isobench/run.py --workload fleet --seed 1 --seconds 30 --trace 0
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import sqlite3
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".isobench_work"

sys.path.insert(0, str(SRC))
try:
    import repro
    from repro.campaign import CampaignExecutor, CampaignSpec
    from repro.campaign.fleet import (
        load_manifest,
        merge_fleet,
        plan_fleet,
        run_worker,
    )
    from repro.store.backends.sqlite import (
        compact_archive,
        execution_content_hash,
    )
except ModuleNotFoundError as exc:
    sys.exit(f"error: cannot import the program from {SRC}: {exc}")

APPS = ("smallbank", "tpcc", "voter", "wikipedia", "shardtransfer")
ISOLATION = ("causal", "rc")
ARCHIVE = "archive.sqlite"

#: workload -> (strategy, fleet size, whether the last worker dies)
WORKLOADS = {
    "exact": ("exact-strict", 1, False),
    "fleet": ("approx-relaxed", 3, True),
}

#: Cold starts timed per run for ``setup_s`` (median reported).
SETUP_REPEATS = 5

#: Every CHECK_EVERY-th batch is re-run through a single executor and
#: compared byte for byte; the others are checked for invariants only.
CHECK_EVERY = 10


@contextlib.contextmanager
def _chdir(path: Path):
    previous = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(previous)


def batch_spec(workload: str, seed: int, index: int) -> CampaignSpec:
    return CampaignSpec(
        name=f"isobench-{workload}-{seed}-{index}",
        apps=APPS,
        isolation_levels=ISOLATION,
        strategies=(WORKLOADS[workload][0],),
        workloads=("tiny",),
        seeds=(seed * 100_000 + index,),
        max_seconds=60.0,
        backend=f"sqlite:{ARCHIVE}",
    )


def tear_stream(path: Path) -> int:
    """Simulate a worker killed mid-shard: drop the stream's second half
    and leave half of the next row as a torn, newline-less last line.
    Returns the number of complete rows lost."""
    lines = path.read_text().splitlines(keepends=True)
    keep = len(lines) // 2
    torn = lines[keep][: len(lines[keep]) // 2] if keep < len(lines) else ""
    path.write_text("".join(lines[:keep]) + torn)
    return len(lines) - keep


def run_batch(workload: str, spec: CampaignSpec, bdir: Path) -> dict:
    """One timed batch; returns its merge, layer times and counts."""
    _, fleet, kill = WORKLOADS[workload]
    clock = time.perf_counter
    cpu_start = time.process_time()
    start = clock()
    manifest_path = plan_fleet(spec, fleet, root=bdir).write(
        bdir / "fleet.json"
    )
    executed, streams = [], []
    for worker_id in range(fleet):
        manifest = load_manifest(manifest_path)
        executed.extend(run_worker(manifest, worker_id).results)
        streams.append(manifest.results_path(worker_id))
    lost = tear_stream(streams[-1]) if kill else 0

    merge_dir = bdir / "merge"
    merge_dir.mkdir()
    merge_start = clock()
    with _chdir(merge_dir):
        merge = merge_fleet(
            spec, streams, out=merge_dir / "rounds.jsonl", heal=True
        )
    merge_wall = clock() - merge_start
    missing = set(merge.missing_before_heal)
    healed = [r for r in merge.report.results if r.round_id in missing]
    executed.extend(healed)

    archives = [bdir / f"worker-{i}" / ARCHIVE for i in range(fleet)]
    archives.append(merge_dir / ARCHIVE)
    compact_start = clock()
    stats = compact_archive(
        bdir / "merged.sqlite", [a for a in archives if a.exists()]
    )
    compact_wall = clock() - compact_start
    wall = clock() - start
    cpu = time.process_time() - cpu_start

    encode = sum(r.gen_seconds for r in executed)
    solve = sum(r.solve_seconds for r in executed)
    rounds_time = sum(r.wall_seconds for r in executed)
    heal_time = sum(r.wall_seconds for r in healed)
    return {
        "merge": merge,
        "wall": wall,
        "cpu": cpu,
        "lost": lost,
        "healed": len(healed),
        "layers": {
            "encode_ms": encode * 1e3,
            "solve_ms": solve * 1e3,
            "round_rest_ms": (rounds_time - encode - solve) * 1e3,
            "merge_ms": (merge_wall - heal_time) * 1e3,
            "compact_ms": compact_wall * 1e3,
            "coord_ms": (wall - rounds_time) * 1e3,
        },
        "counts": {
            "rounds_executed": len(executed),
            "archive_rows_in": stats.rows_in,
            "archive_duplicates": stats.duplicates,
            "clauses": sum(r.clauses for r in executed),
            "candidates": sum(r.candidates for r in executed),
        },
    }


def archive_hashes(path: Path) -> list:
    conn = sqlite3.connect(str(path))
    try:
        rows = conn.execute(
            "SELECT phase, seed, sessions, transactions, doc"
            " FROM executions ORDER BY id"
        ).fetchall()
    finally:
        conn.close()
    return sorted(execution_content_hash(*row) for row in rows)


def check_batch(
    spec: CampaignSpec, batch: dict, bdir: Path, reference: bool
) -> list:
    """Invariants of one batch and, with ``reference``, its equality to a
    single-executor ``--jobs 1`` run of the same spec."""
    problems = []
    report = batch["merge"].report
    if not batch["merge"].complete or len(report.results) != len(
        spec.rounds()
    ):
        problems.append("merge left rounds missing")
    if batch["healed"] < batch["lost"]:
        problems.append("heal re-ran fewer rounds than the dead worker lost")
    for result in report.results:
        if result.status == "error":
            problems.append(f"{result.round_id}: {result.error[-200:]}")
    merged_hashes = archive_hashes(bdir / "merged.sqlite")
    counts = batch["counts"]
    kept = counts["archive_rows_in"] - counts["archive_duplicates"]
    if len(set(merged_hashes)) != len(merged_hashes) or len(
        merged_hashes
    ) != kept:
        problems.append("compacted archive holds duplicates or lost rows")
    if not reference:
        return problems
    ref_dir = bdir / "reference"
    ref_dir.mkdir()
    with _chdir(ref_dir):
        expected = CampaignExecutor(
            spec, jobs=1, out=ref_dir / "rounds.jsonl"
        ).run()
    if report.canonical_json() != expected.canonical_json():
        problems.append("merged report differs from the --jobs 1 report")
    # a single run archives some identical executions (a replay equal to
    # its recording); compaction must keep exactly one of each
    if merged_hashes != sorted(set(archive_hashes(ref_dir / ARCHIVE))):
        problems.append(
            "compacted archive is not the reference archive's distinct "
            "executions"
        )
    return problems


def setup_probe(workload: str, seed: int) -> None:
    """A cold start: fresh interpreter, import, then the run's first batch."""
    probe_dir = WORK / f"setup-{os.getpid()}"
    shutil.rmtree(probe_dir, ignore_errors=True)
    probe_dir.mkdir(parents=True)
    try:
        run_batch(workload, batch_spec(workload, seed, 0), probe_dir)
    finally:
        shutil.rmtree(probe_dir, ignore_errors=True)


def children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def time_setup(workload: str, seed: int) -> float:
    """Median normalised seconds of SETUP_REPEATS cold starts."""
    times = []
    for _ in range(SETUP_REPEATS):
        kernel_before = speed.kernel()
        start = children_cpu()
        # no timeout: with one, the wait polls in steps of up to 50 ms
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            check=True,
        )
        cpu = children_cpu() - start
        kernel_s = (kernel_before + speed.kernel()) / 2
        times.append(speed.normalise(cpu, kernel_s) / 1e3)
    return statistics.median(times)


def measure(workload: str, seed: int, seconds: float) -> dict:
    run_dir = WORK / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    batches, problems = [], []
    attempted = failed = 0
    measured = 0.0
    try:
        # batch 0 warms lazy imports and caches and is not timed; it and
        # every CHECK_EVERY-th timed batch are compared with a reference run
        index = 0
        kernel_before = speed.kernel()
        while index == 0 or measured < seconds:
            spec = batch_spec(workload, seed, index)
            bdir = run_dir / f"batch-{index}"
            bdir.mkdir()
            # The program keeps what it built (``Expr._table`` hash-conses
            # every term for good); frozen, survivors of earlier batches
            # are not rescanned, so each batch starts from the same
            # collector state whatever the run's length.
            gc.collect()
            gc.freeze()
            batch = run_batch(workload, spec, bdir)
            gc.collect()
            batch["counts"]["retained_objects"] = len(gc.get_objects())
            kernel_after = speed.kernel()
            kernel_s = (kernel_before + kernel_after) / 2
            kernel_before = kernel_after
            batch["kernel_ms"] = kernel_s * 1e3
            batch["norm_ms"] = speed.normalise(batch["cpu"], kernel_s)
            bad = check_batch(
                spec, batch, bdir, reference=index % CHECK_EVERY == 0
            )
            # keep numbers only: held reports would slow every collection
            batch["merged"] = len(batch.pop("merge").report.results)
            rounds = len(spec.rounds())
            attempted += rounds
            if bad:
                failed += rounds
                problems.extend(bad)
            if index:
                measured += batch["wall"]
                batches.append(batch)
            shutil.rmtree(bdir)
            index += 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return {
        "batches": batches,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "measured": measured,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        # an installed copy would benchmark the wrong program
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    # the benchmark sets no fault plan, retry policy or telemetry sink
    for key in [k for k in os.environ if k.startswith("ISOPREDICT_")]:
        del os.environ[key]
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    setup_s = time_setup(args.workload, args.seed)
    run = measure(args.workload, args.seed, args.seconds)
    batches = run["batches"]
    for problem in run["problems"][:20]:
        print(f"check failed: {problem}", file=sys.stderr)

    if args.trace:
        metrics = {
            key: {
                "value": statistics.median(b["layers"][key] for b in batches),
                "unit": "ms",
            }
            for key in batches[0]["layers"]
        }
        metrics.update(
            (key, {
                "value": statistics.fmean(b["counts"][key] for b in batches),
                "unit": "count",
            })
            for key in batches[0]["counts"]
        )
        metrics["batch_wall_ms"] = {
            "value": statistics.median(b["wall"] for b in batches) * 1e3,
            "unit": "ms",
        }
        metrics["kernel_ms"] = {
            "value": statistics.median(b["kernel_ms"] for b in batches),
            "unit": "ms",
        }
    else:
        merged = sum(b["merged"] for b in batches)
        norm_s = sum(b["norm_ms"] for b in batches) / 1e3
        metrics = {
            "norm_batch_ms": {
                "value": statistics.median(b["norm_ms"] for b in batches),
                "unit": "ms",
            },
            "norm_rounds_per_s": {
                "value": merged / norm_s,
                "unit": "1/s",
            },
            "setup_s": {"value": setup_s, "unit": "s"},
        }
    print(
        f"{args.workload}: {len(batches)} timed batches, "
        f"{run['attempted']} rounds checked, {run['measured']:.2f} s "
        f"measured, {len(run['problems'])} check failures"
    )
    print(json.dumps({
        "correct": not run["problems"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
